//! Feature generation (Section 3.3).
//!
//! * **Default features**: every dimension attribute is categorical; instead
//!   of one-hot encoding (which would be hopelessly sparse), each attribute
//!   value is replaced by the *median* of the target statistic over the
//!   training groups carrying that value — the "main effects" featurisation
//!   borrowed from OLAP anomaly detection.
//! * **Auxiliary features**: a joined auxiliary dataset (e.g. satellite
//!   rainfall per village) contributes one extra feature column keyed by the
//!   join attribute.
//! * **Custom features**: arbitrary user-supplied value→feature mappings
//!   (e.g. the previous year's severity), also keyed by an attribute.
//!
//! Extra features become pseudo-levels appended to the hierarchy of the
//! attribute they are keyed on, so the factorised representation (and all of
//! its operators) applies unchanged.

use reptile_relational::{AttrId, Value};
use std::collections::BTreeMap;

/// An extra (auxiliary or custom) feature keyed by an attribute's values.
#[derive(Debug, Clone)]
pub struct ExtraFeature {
    /// Display name of the feature (used in reports and for Z tuning).
    pub name: String,
    /// The attribute whose values index the feature.
    pub attr: AttrId,
    /// Value → feature value. Missing values fall back to the mean of the map
    /// (so unseen groups are not pulled toward zero).
    pub values: BTreeMap<Value, f64>,
}

impl ExtraFeature {
    /// Create an extra feature.
    pub fn new(name: impl Into<String>, attr: AttrId, values: BTreeMap<Value, f64>) -> Self {
        ExtraFeature {
            name: name.into(),
            attr,
            values,
        }
    }

    /// The fallback value used for unseen attribute values.
    pub fn fallback(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.values().sum::<f64>() / self.values.len() as f64
        }
    }
}

/// The full featurisation plan of a training design.
#[derive(Debug, Clone, Default)]
pub struct FeaturePlan {
    /// Extra feature columns (auxiliary datasets, custom features).
    pub extras: Vec<ExtraFeature>,
    /// Names of features excluded from the random-effect matrix `Z`
    /// (Section 3.3.4). Default-feature columns are named after their
    /// attribute; extra features use their own name.
    pub exclude_from_random_effects: Vec<String>,
}

impl FeaturePlan {
    /// Plan with no extra features.
    pub fn none() -> Self {
        FeaturePlan::default()
    }

    /// Add an auxiliary / custom feature.
    pub fn with_extra(mut self, extra: ExtraFeature) -> Self {
        self.extras.push(extra);
        self
    }

    /// Exclude a feature (by name) from the random effects.
    pub fn exclude_from_z(mut self, name: impl Into<String>) -> Self {
        self.exclude_from_random_effects.push(name.into());
        self
    }
}

/// Median of a slice (empty slices yield 0).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// The main-effect featurisation of one attribute, by code: `codes[i]` is
/// training group `i`'s code (below `n_codes`) and `values[i]` its target
/// statistic; entry `c` of the result is the median over the groups with
/// code `c` (0 for a code no group carries).
pub fn main_effects(codes: impl Iterator<Item = u32>, n_codes: usize, values: &[f64]) -> Vec<f64> {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); n_codes];
    for (code, value) in codes.zip(values) {
        buckets[code as usize].push(*value);
    }
    buckets.iter_mut().map(|ys| median(ys)).collect()
}

/// Center and rescale a feature column to zero mean / unit scale (used for
/// numeric features). Constant columns are left untouched except centering.
pub fn normalize(values: &mut [f64]) {
    if values.is_empty() {
        return;
    }
    let n = values.len() as f64;
    let mean: f64 = values.iter().sum::<f64>() / n;
    let var: f64 = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let std = var.sqrt();
    for v in values.iter_mut() {
        *v -= mean;
        if std > 1e-12 {
            *v /= std;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reptile_relational::{AggregateKind, Predicate, Relation, Schema, View};
    use std::sync::Arc;

    fn training_view() -> View {
        let schema = Arc::new(
            Schema::builder()
                .hierarchy("geo", ["district", "village"])
                .hierarchy("time", ["year"])
                .measure("severity")
                .build()
                .unwrap(),
        );
        let rows: Vec<(&str, &str, i64, f64)> = vec![
            ("Ofla", "Adishim", 1986, 8.0),
            ("Ofla", "Adishim", 1986, 6.0),
            ("Ofla", "Darube", 1986, 2.0),
            ("Ofla", "Adishim", 1987, 5.0),
            ("Raya", "Zata", 1986, 9.0),
            ("Raya", "Zata", 1987, 3.0),
        ];
        let mut b = Relation::builder(schema.clone());
        for (d, v, y, s) in rows {
            b = b
                .row([Value::str(d), Value::str(v), Value::int(y), Value::float(s)])
                .unwrap();
        }
        let rel = Arc::new(b.build());
        let s = rel.schema().clone();
        View::compute(
            rel,
            Predicate::all(),
            vec![
                s.attr("year").unwrap(),
                s.attr("district").unwrap(),
                s.attr("village").unwrap(),
            ],
            s.attr("severity").unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn main_effects_use_group_statistics() {
        let view = training_view();
        // The main effects of group-by attribute `gb`, keyed back by value.
        let by_value = |gb: usize, statistic: AggregateKind| -> BTreeMap<Value, f64> {
            let dict = view.key_columns()[gb].dict();
            let codes = view.group_codes().iter().skip(gb).step_by(3).copied();
            let values: Vec<f64> = view
                .aggregates()
                .iter()
                .map(|a| a.value(statistic))
                .collect();
            main_effects(codes, dict.len(), &values)
                .into_iter()
                .enumerate()
                .map(|(code, effect)| (dict.value(code as u32).clone(), effect))
                .collect()
        };
        // group_by = [year, district, village]; statistic MEAN
        let by_year = by_value(0, AggregateKind::Mean);
        // 1986: groups are (Ofla Adishim)=7, (Ofla Darube)=2, (Raya Zata)=9 -> median 7
        assert_eq!(by_year[&Value::int(1986)], 7.0);
        // 1987: groups (Ofla Adishim)=5, (Raya Zata)=3 -> median 4
        assert_eq!(by_year[&Value::int(1987)], 4.0);
        let by_district = by_value(1, AggregateKind::Count);
        // Ofla groups have counts 2,1,1 -> median 1; Raya groups 1,1 -> 1
        assert_eq!(by_district[&Value::str("Ofla")], 1.0);
        assert_eq!(by_district[&Value::str("Raya")], 1.0);
        // a code no group carries gets the empty median
        assert_eq!(
            main_effects([0u32, 2].into_iter(), 3, &[4.0, 6.0]),
            [4.0, 0.0, 6.0]
        );
    }

    #[test]
    fn normalization_centers_and_scales() {
        let mut m = [10.0, 20.0, 30.0];
        normalize(&mut m);
        let sum: f64 = m.iter().sum();
        assert!(sum.abs() < 1e-9);
        assert!(m[2] > 0.0);
        // constant column: centered, not divided by zero
        let mut c = [5.0, 5.0];
        normalize(&mut c);
        assert_eq!(c[0], 0.0);
        // empty column is a no-op
        normalize(&mut []);
    }

    #[test]
    fn extra_feature_fallback_is_mean() {
        let mut values = BTreeMap::new();
        values.insert(Value::str("a"), 10.0);
        values.insert(Value::str("b"), 30.0);
        let f = ExtraFeature::new("rainfall", AttrId(2), values);
        assert_eq!(f.fallback(), 20.0);
        let empty = ExtraFeature::new("none", AttrId(2), BTreeMap::new());
        assert_eq!(empty.fallback(), 0.0);
    }

    #[test]
    fn plan_builder_collects_extras_and_exclusions() {
        let plan = FeaturePlan::none()
            .with_extra(ExtraFeature::new("rain", AttrId(1), BTreeMap::new()))
            .exclude_from_z("rain");
        assert_eq!(plan.extras.len(), 1);
        assert_eq!(plan.exclude_from_random_effects, vec!["rain".to_string()]);
    }
}
