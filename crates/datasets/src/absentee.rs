//! Simulated North-Carolina absentee-ballot workload (Section 5.1.4,
//! Figure 10).
//!
//! The runtime experiment only depends on the hierarchy shape: 4 single-level
//! hierarchies — county (100 values), party (6), week (53), gender (3) — and
//! ~179K rows. This module generates a relation with exactly those
//! cardinalities ([`AbsenteeConfig::paper_scale`], which the Figure 10 test
//! drills).

use crate::rng::SimRng;
use reptile_relational::{Relation, Schema, Value};
use std::sync::Arc;

/// Configuration of the simulated absentee dataset.
#[derive(Debug, Clone, Copy)]
pub struct AbsenteeConfig {
    /// Number of counties.
    pub counties: usize,
    /// Number of parties.
    pub parties: usize,
    /// Number of weeks.
    pub weeks: usize,
    /// Number of gender categories.
    pub genders: usize,
    /// Total number of ballot rows to generate.
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl AbsenteeConfig {
    /// The paper's full-scale shape (179K rows).
    pub fn paper_scale() -> Self {
        AbsenteeConfig {
            counties: 100,
            parties: 6,
            weeks: 53,
            genders: 3,
            rows: 179_000,
            seed: 20,
        }
    }
}

/// Generate the simulated absentee relation. Schema: four single-attribute
/// hierarchies (`county`, `party`, `week`, `gender`) and a `ballots` measure
/// of 1 per row (so COUNT complaints mirror the paper's setup).
pub fn generate(config: AbsenteeConfig) -> (Arc<Schema>, Arc<Relation>) {
    let mut rng = SimRng::seed_from_u64(config.seed);
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("county", ["county"])
            .hierarchy("party", ["party"])
            .hierarchy("week", ["week"])
            .hierarchy("gender", ["gender"])
            .measure("ballots")
            .build()
            .unwrap(),
    );
    let mut relation = Relation::empty(schema.clone());
    // skewed county sizes, mild weekly trend
    let county_weight: Vec<f64> = (0..config.counties)
        .map(|_| rng.uniform_range(0.2, 3.0))
        .collect();
    let total_weight: f64 = county_weight.iter().sum();
    for (c, w) in county_weight.iter().enumerate() {
        let county_rows = ((w / total_weight) * config.rows as f64).round() as usize;
        for _ in 0..county_rows {
            let party = rng.below(config.parties);
            let week = rng.below(config.weeks);
            let gender = rng.below(config.genders);
            relation
                .push_row(vec![
                    Value::str(format!("county{c:03}")),
                    Value::str(format!("party{party}")),
                    Value::int(week as i64),
                    Value::str(format!("gender{gender}")),
                    Value::float(1.0),
                ])
                .expect("arity");
        }
    }
    (schema, Arc::new(relation))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced shape, so the test stays fast.
    fn test_scale() -> AbsenteeConfig {
        AbsenteeConfig {
            counties: 12,
            parties: 4,
            weeks: 8,
            genders: 3,
            rows: 4_000,
            seed: 20,
        }
    }

    #[test]
    fn cardinalities_match_configuration() {
        let config = test_scale();
        let (schema, rel) = generate(config);
        assert_eq!(schema.hierarchies().len(), 4);
        assert!(rel.len() > config.rows / 2 && rel.len() < config.rows * 2);
        assert_eq!(
            rel.distinct(schema.attr("county").unwrap()).len(),
            config.counties
        );
        assert!(rel.distinct(schema.attr("party").unwrap()).len() <= config.parties);
        assert!(rel.distinct(schema.attr("week").unwrap()).len() <= config.weeks);
        assert_eq!(
            rel.distinct(schema.attr("gender").unwrap()).len(),
            config.genders
        );
    }

    #[test]
    fn paper_scale_matches_documented_shape() {
        let config = AbsenteeConfig::paper_scale();
        assert_eq!(config.counties, 100);
        assert_eq!(config.parties, 6);
        assert_eq!(config.weeks, 53);
        assert_eq!(config.genders, 3);
        assert_eq!(config.rows, 179_000);
    }
}
