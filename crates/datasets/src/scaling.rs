//! Wide synthetic panel for the multi-core scaling experiments.
//!
//! The sharded execution backend parallelises the *factorised* hot path —
//! encoded factor builds, the aggregate batch, the cluster partition and
//! the EM fit's per-cluster operators — so the workload that shows scaling
//! must be wide where those paths are hot: many distinct leaf paths (wide
//! hierarchies, so factor encode/aggregate scans dominate) and many
//! clusters (so the per-iteration EM operators dominate the fit). That is
//! exactly the shallow-and-wide shape real hierarchies take (countries →
//! districts → villages, days × geography), which is why the
//! partition/merge decomposition pays off.
//!
//! Used by the quickstart example's `--shards N` scaling run.

use crate::rng::SimRng;
use reptile_relational::{GroupKey, Predicate, Relation, Schema, Value, View};
use std::sync::Arc;

/// Shape of the scaling panel.
#[derive(Debug, Clone, Copy)]
pub struct ScalingConfig {
    /// Number of days in the time hierarchy.
    pub days: usize,
    /// Number of districts (each a cluster parent when drilling to village).
    pub districts: usize,
    /// Villages per district (the wide leaf level).
    pub villages_per_district: usize,
    /// RNG seed for the measure noise.
    pub seed: u64,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            days: 6,
            districts: 40,
            villages_per_district: 80,
            seed: 7,
        }
    }
}

impl ScalingConfig {
    /// Total rows of the panel (one per day × village).
    pub fn rows(&self) -> usize {
        self.days * self.districts * self.villages_per_district
    }
}

/// A generated scaling panel plus the views and complaint the benchmarks
/// pose against it.
#[derive(Debug)]
pub struct ScalingWorkload {
    /// Shared schema: `geo = district -> village`, `time = day`, measure `m`.
    pub schema: Arc<Schema>,
    /// The panel relation (one row per day × village).
    pub relation: Arc<Relation>,
    /// The analyst's complaint view: mean `m` per (district, day).
    pub complaint_view: View,
    /// The drilled training view: mean `m` per (day, district, village) —
    /// the parallel-groups view whose design build and fit the sharded
    /// backend accelerates.
    pub training_view: View,
    /// A complaint against the corrupted district/day tuple.
    pub complaint_key: GroupKey,
    /// The village whose reports were corrupted (ground truth).
    pub corrupted_village: String,
}

/// Generate the scaling panel: a smooth day/district/village surface with
/// deterministic noise, plus one village whose reports collapse on the last
/// day (the tuple the benchmark complains about).
pub fn scaling_panel(config: ScalingConfig) -> ScalingWorkload {
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("geo", ["district", "village"])
            .hierarchy("time", ["day"])
            .measure("m")
            .build()
            .expect("valid scaling schema"),
    );
    let mut rng = SimRng::seed_from_u64(config.seed);
    let corrupted_district = "D0000".to_string();
    let corrupted_village = "D0000-V0000".to_string();
    let bad_day = config.days as i64 - 1;
    let mut b = Relation::builder(schema.clone());
    for day in 0..config.days as i64 {
        for d in 0..config.districts {
            let district = format!("D{d:04}");
            for v in 0..config.villages_per_district {
                let village = format!("{district}-V{v:04}");
                let base = 50.0
                    + day as f64 * 1.5
                    + d as f64 * 0.25
                    + ((v * 13 + d * 7) % 23) as f64 * 0.2
                    + rng.normal(0.0, 0.5);
                let value = if village == corrupted_village && day == bad_day {
                    base - 30.0
                } else {
                    base
                };
                b = b
                    .row([
                        Value::str(district.clone()),
                        Value::str(village),
                        Value::int(day),
                        Value::float(value),
                    ])
                    .expect("row matches schema");
            }
        }
    }
    let relation = Arc::new(b.build());
    let complaint_view = View::compute(
        relation.clone(),
        Predicate::all(),
        vec![
            schema.attr("district").unwrap(),
            schema.attr("day").unwrap(),
        ],
        schema.attr("m").unwrap(),
        &reptile_relational::Exec::Serial,
    )
    .expect("complaint view");
    let training_view = View::compute(
        relation.clone(),
        Predicate::all(),
        vec![
            schema.attr("day").unwrap(),
            schema.attr("district").unwrap(),
            schema.attr("village").unwrap(),
        ],
        schema.attr("m").unwrap(),
        &reptile_relational::Exec::Serial,
    )
    .expect("training view");
    ScalingWorkload {
        schema,
        relation,
        complaint_view,
        training_view,
        complaint_key: GroupKey(vec![Value::str(corrupted_district), Value::int(bad_day)]),
        corrupted_village,
    }
}

/// Shape of the *deep* scaling panel: a 3-level geography with **mixed
/// fanouts** (regions own different district counts, districts own
/// different village counts) crossed with a day hierarchy, carrying **two
/// measures**. The deeper tree pushes the per-hierarchy `COF` tables and
/// their shard merges beyond what the two-level panel exercises, and the
/// second measure gives the view layer two distinct aggregation columns
/// over one relation — the deep-panel view battery in
/// `tests/property_tests.rs`.
#[derive(Debug, Clone, Copy)]
pub struct DeepScalingConfig {
    /// Number of days in the time hierarchy.
    pub days: usize,
    /// Number of regions (the coarsest geo level).
    pub regions: usize,
    /// Minimum districts per region; region `r` owns
    /// `districts_base + r % districts_spread` districts.
    pub districts_base: usize,
    /// Spread of the per-region district fanout (mixed fanout when > 1).
    pub districts_spread: usize,
    /// Minimum villages per district; district `d` (counted globally) owns
    /// `villages_base + d % villages_spread` villages.
    pub villages_base: usize,
    /// Spread of the per-district village fanout (mixed fanout when > 1).
    pub villages_spread: usize,
    /// RNG seed for the measure noise.
    pub seed: u64,
}

impl DeepScalingConfig {
    /// A small shape, still deep (3 geo levels) and mixed-fanout.
    pub fn smoke() -> Self {
        DeepScalingConfig {
            days: 6,
            regions: 6,
            districts_base: 5,
            districts_spread: 4,
            villages_base: 12,
            villages_spread: 9,
            seed: 11,
        }
    }
}

/// A generated deep panel plus the views and complaint the benchmarks pose
/// against it.
#[derive(Debug)]
pub struct DeepScalingWorkload {
    /// Shared schema: `geo = region -> district -> village`, `time = day`,
    /// measures `m` and `m2`.
    pub schema: Arc<Schema>,
    /// The panel relation (one row per day × village).
    pub relation: Arc<Relation>,
    /// The analyst's complaint view: mean `m` per region — **both**
    /// hierarchies are still drillable from here (geo to district, time to
    /// day), so a recommendation over it evaluates two candidate
    /// hierarchies (concurrently, on a parallel engine).
    pub complaint_view: View,
    /// The same view over the second measure `m2`.
    pub complaint_view_m2: View,
    /// The full-depth training view: mean `m` per
    /// (day, region, district, village) — the widest group-by the view
    /// sharding has to reproduce bit-exactly.
    pub training_view: View,
    /// A complaint against the corrupted region.
    pub complaint_key: GroupKey,
    /// The village whose `m` reports were corrupted (ground truth).
    pub corrupted_village: String,
}

/// Generate the deep panel: a smooth surface over a mixed-fanout 3-level
/// geography with deterministic noise on both measures, plus one village
/// whose `m` collapses on the last day.
pub fn deep_scaling_panel(config: DeepScalingConfig) -> DeepScalingWorkload {
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("geo", ["region", "district", "village"])
            .hierarchy("time", ["day"])
            .measure("m")
            .measure("m2")
            .build()
            .expect("valid deep scaling schema"),
    );
    let mut rng = SimRng::seed_from_u64(config.seed);
    let corrupted_region = "R00".to_string();
    let corrupted_village = "R00-D00-V0000".to_string();
    let bad_day = config.days as i64 - 1;
    let mut b = Relation::builder(schema.clone());
    for day in 0..config.days as i64 {
        let mut global_district = 0usize;
        for r in 0..config.regions {
            let region = format!("R{r:02}");
            let districts = config.districts_base + r % config.districts_spread.max(1);
            for d in 0..districts {
                let district = format!("{region}-D{d:02}");
                let villages =
                    config.villages_base + global_district % config.villages_spread.max(1);
                global_district += 1;
                for v in 0..villages {
                    let village = format!("{district}-V{v:04}");
                    let base = 40.0
                        + day as f64 * 1.2
                        + r as f64 * 0.8
                        + d as f64 * 0.3
                        + ((v * 11 + d * 5 + r * 3) % 19) as f64 * 0.25
                        + rng.normal(0.0, 0.4);
                    let m = if village == corrupted_village && day == bad_day {
                        base - 25.0
                    } else {
                        base
                    };
                    // The second measure follows its own smooth surface.
                    let m2 = 100.0 - day as f64 * 0.7
                        + d as f64 * 0.5
                        + ((v * 7 + r * 13) % 23) as f64 * 0.3
                        + rng.normal(0.0, 0.6);
                    b = b
                        .row([
                            Value::str(region.clone()),
                            Value::str(district.clone()),
                            Value::str(village),
                            Value::int(day),
                            Value::float(m),
                            Value::float(m2),
                        ])
                        .expect("row matches schema");
                }
            }
        }
    }
    let relation = Arc::new(b.build());
    let region = schema.attr("region").unwrap();
    let m = schema.attr("m").unwrap();
    let m2 = schema.attr("m2").unwrap();
    let complaint_view = View::compute(
        relation.clone(),
        Predicate::all(),
        vec![region],
        m,
        &reptile_relational::Exec::Serial,
    )
    .expect("complaint view");
    let complaint_view_m2 = View::compute(
        relation.clone(),
        Predicate::all(),
        vec![region],
        m2,
        &reptile_relational::Exec::Serial,
    )
    .expect("complaint view (m2)");
    let training_view = View::compute(
        relation.clone(),
        Predicate::all(),
        vec![
            schema.attr("day").unwrap(),
            region,
            schema.attr("district").unwrap(),
            schema.attr("village").unwrap(),
        ],
        m,
        &reptile_relational::Exec::Serial,
    )
    .expect("training view");
    DeepScalingWorkload {
        schema,
        relation,
        complaint_view,
        complaint_view_m2,
        training_view,
        complaint_key: GroupKey(vec![Value::str(corrupted_region)]),
        corrupted_village,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_has_configured_shape() {
        let config = ScalingConfig {
            days: 3,
            districts: 4,
            villages_per_district: 5,
            seed: 1,
        };
        let workload = scaling_panel(config);
        assert_eq!(workload.relation.len(), config.rows());
        assert_eq!(workload.complaint_view.len(), 4 * 3);
        assert_eq!(workload.training_view.len(), 3 * 4 * 5);
        // The complaint tuple exists and its group mean is depressed.
        let complained = workload
            .complaint_view
            .group(&workload.complaint_key)
            .expect("complaint tuple present");
        let other = workload
            .complaint_view
            .group(&GroupKey(vec![Value::str("D0001"), Value::int(2)]))
            .unwrap();
        assert!(complained.mean() < other.mean());
    }

    #[test]
    fn deep_panel_has_mixed_fanouts_and_two_measures() {
        let config = DeepScalingConfig::smoke();
        let workload = deep_scaling_panel(config);
        let schema = &workload.schema;
        // 3-level geo + day, two measures.
        let geo = schema.hierarchy("geo").unwrap();
        assert_eq!(geo.levels.len(), 3);
        assert_eq!(schema.measures().len(), 2);
        // Mixed fanout: district counts differ across regions, village
        // counts differ across districts.
        let region_attr = schema.attr("region").unwrap();
        let district_attr = schema.attr("district").unwrap();
        let village_attr = schema.attr("village").unwrap();
        let mut districts_of_first = std::collections::BTreeSet::new();
        let mut districts_of_second = std::collections::BTreeSet::new();
        for row in 0..workload.relation.len() {
            let region = workload.relation.value(row, region_attr);
            if region == &Value::str("R00") {
                districts_of_first.insert(workload.relation.value(row, district_attr).clone());
            } else if region == &Value::str("R01") {
                districts_of_second.insert(workload.relation.value(row, district_attr).clone());
            }
        }
        assert_ne!(districts_of_first.len(), districts_of_second.len());
        let mut villages_per_district = std::collections::BTreeMap::new();
        for row in 0..workload.relation.len() {
            villages_per_district
                .entry(workload.relation.value(row, district_attr).clone())
                .or_insert_with(std::collections::BTreeSet::new)
                .insert(workload.relation.value(row, village_attr).clone());
        }
        let counts: std::collections::BTreeSet<usize> =
            villages_per_district.values().map(|v| v.len()).collect();
        assert!(counts.len() > 1, "village fanout should vary: {counts:?}");
        // The complaint tuple exists and both hierarchies are drillable
        // from the complaint view (group-by = region only).
        workload
            .complaint_view
            .group(&workload.complaint_key)
            .expect("complaint tuple present");
        assert!(geo.next_level(workload.complaint_view.group_by()).is_some());
        assert!(schema
            .hierarchy("time")
            .unwrap()
            .next_level(workload.complaint_view.group_by())
            .is_some());
        // The m2 view reads the second measure.
        assert_eq!(
            workload.complaint_view_m2.measure(),
            schema.attr("m2").unwrap()
        );
        // The training view covers every distinct full path once.
        assert_eq!(
            workload.training_view.len(),
            villages_per_district
                .values()
                .map(|v| v.len())
                .sum::<usize>()
                * config.days
        );
    }

    #[test]
    fn corruption_is_attributable_to_the_village() {
        let config = ScalingConfig {
            days: 5,
            districts: 24,
            villages_per_district: 48,
            seed: 7,
        };
        let workload = scaling_panel(config);
        let village_attr = workload.schema.attr("village").unwrap();
        let day_attr = workload.schema.attr("day").unwrap();
        let bad_day = config.days as i64 - 1;
        let mut bad = f64::INFINITY;
        let mut rest = f64::INFINITY;
        for row in 0..workload.relation.len() {
            if workload.relation.value(row, day_attr) != &Value::int(bad_day) {
                continue;
            }
            let m = workload
                .relation
                .numeric(row, workload.schema.attr("m").unwrap())
                .unwrap()
                .unwrap();
            if workload.relation.value(row, village_attr)
                == &Value::str(workload.corrupted_village.clone())
            {
                bad = bad.min(m);
            } else {
                rest = rest.min(m);
            }
        }
        assert!(bad < rest - 10.0, "corruption visible: {bad} vs {rest}");
    }
}
