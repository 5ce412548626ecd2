//! Simulated COMPAS recidivism workload (Section 5.1.4, Figure 10).
//!
//! The runtime experiment depends on the hierarchy shape only: a three-level
//! time hierarchy (year, month, day — 704 distinct days in the original), and
//! single-level age-range (3), race (6) and charge-degree (3) hierarchies over
//! ~60,843 rows.

use crate::rng::SimRng;
use reptile_relational::{Relation, Schema, Value};
use std::sync::Arc;

/// Configuration of the simulated COMPAS dataset.
#[derive(Debug, Clone, Copy)]
pub struct CompasConfig {
    /// Number of years in the time hierarchy.
    pub years: usize,
    /// Months per year.
    pub months: usize,
    /// Days per month.
    pub days: usize,
    /// Number of age ranges.
    pub age_ranges: usize,
    /// Number of race categories.
    pub races: usize,
    /// Number of charge degrees.
    pub degrees: usize,
    /// Total number of rows.
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl CompasConfig {
    /// The paper's full-scale shape (60,843 rows, ~704 days).
    pub fn paper_scale() -> Self {
        CompasConfig {
            years: 2,
            months: 12,
            days: 30,
            age_ranges: 3,
            races: 6,
            degrees: 3,
            rows: 60_843,
            seed: 21,
        }
    }
}

/// Generate the simulated COMPAS relation. Schema: hierarchy
/// `time = [year, month, day]` plus single-attribute hierarchies `age`,
/// `race`, `degree`, and a `score` measure (decile risk score 1..10).
pub fn generate(config: CompasConfig) -> (Arc<Schema>, Arc<Relation>) {
    let mut rng = SimRng::seed_from_u64(config.seed);
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("time", ["year", "month", "day"])
            .hierarchy("age", ["age_range"])
            .hierarchy("race", ["race"])
            .hierarchy("degree", ["charge_degree"])
            .measure("score")
            .build()
            .unwrap(),
    );
    let mut relation = Relation::empty(schema.clone());
    for _ in 0..config.rows {
        let year = 2013 + rng.below(config.years) as i64;
        let month = 1 + rng.below(config.months) as i64;
        let day = 1 + rng.below(config.days) as i64;
        let age = rng.below(config.age_ranges);
        let race = rng.below(config.races);
        let degree = rng.below(config.degrees);
        let score = (rng.normal(5.0, 2.5)).clamp(1.0, 10.0).round();
        relation
            .push_row(vec![
                Value::int(year),
                // encode month/day with the year prefix so the time hierarchy
                // satisfies its functional dependencies (day -> month -> year)
                Value::str(format!("{year}-{month:02}")),
                Value::str(format!("{year}-{month:02}-{day:02}")),
                Value::str(format!("age{age}")),
                Value::str(format!("race{race}")),
                Value::str(format!("degree{degree}")),
                Value::float(score),
            ])
            .expect("arity");
    }
    (schema, Arc::new(relation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reptile_relational::hierarchy::validate_hierarchy;

    /// A reduced shape, so the test stays fast.
    fn test_scale() -> CompasConfig {
        CompasConfig {
            years: 2,
            months: 4,
            days: 7,
            age_ranges: 3,
            races: 4,
            degrees: 3,
            rows: 3_000,
            seed: 21,
        }
    }

    #[test]
    fn generated_relation_matches_shape_and_fds() {
        let config = test_scale();
        let (schema, rel) = generate(config);
        assert_eq!(rel.len(), config.rows);
        // the time hierarchy satisfies day -> month -> year
        let time = schema.hierarchy("time").unwrap();
        assert!(validate_hierarchy(&rel, time).is_ok());
        let days = rel.distinct(schema.attr("day").unwrap()).len();
        assert!(days <= config.years * config.months * config.days);
        assert!(days > config.days);
        // score stays within the decile range
        let score_attr = schema.attr("score").unwrap();
        for r in 0..rel.len() {
            let s = rel.value(r, score_attr).as_f64_or_zero();
            assert!((1.0..=10.0).contains(&s));
        }
    }

    #[test]
    fn paper_scale_matches_documented_counts() {
        let config = CompasConfig::paper_scale();
        assert_eq!(config.rows, 60_843);
        assert_eq!(config.races, 6);
        assert_eq!(config.age_ranges, 3);
        assert_eq!(config.degrees, 3);
        // ~704 unique days
        assert!(config.years * config.months * config.days >= 700);
    }
}
