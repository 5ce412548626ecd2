//! Per-attribute feature mappings.
//!
//! The paper keeps the attribute matrix and the feature mapping separate
//! (Appendix B): aggregates are computed over attribute values and mapped to
//! feature space afterwards, because the value→feature mapping is one-to-one.
//! A [`FeatureMap`] stores, for every column of a
//! [`Factorization`](crate::Factorization), the map from attribute value to
//! its numeric feature value.

use reptile_relational::Value;
use std::collections::BTreeMap;

/// Value → feature-value mapping for each column of a factorised matrix.
#[derive(Debug, Clone, Default)]
pub struct FeatureMap {
    columns: Vec<BTreeMap<Value, f64>>,
    /// Value used when a lookup misses (e.g. an empty drill-down group).
    default: f64,
}

impl FeatureMap {
    /// A feature map with `columns` empty columns (lookups return 0).
    pub fn zeros(columns: usize) -> Self {
        FeatureMap {
            columns: vec![BTreeMap::new(); columns],
            default: 0.0,
        }
    }

    /// Set the fallback value returned when a value has no entry.
    pub fn with_default(mut self, default: f64) -> Self {
        self.default = default;
        self
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Register the feature value of `value` in `column`.
    pub fn set(&mut self, column: usize, value: Value, feature: f64) {
        self.columns[column].insert(value, feature);
    }

    /// Look up the feature value of `value` in `column`.
    pub fn value(&self, column: usize, value: &Value) -> f64 {
        self.columns[column]
            .get(value)
            .copied()
            .unwrap_or(self.default)
    }

    /// The raw mapping of one column.
    pub fn column(&self, column: usize) -> &BTreeMap<Value, f64> {
        &self.columns[column]
    }

    /// An "identity-like" featurisation used by tests and performance
    /// benchmarks: numeric values map to themselves, strings map to their
    /// rank in the provided per-column domains.
    pub fn indexed(domains: &[Vec<Value>]) -> Self {
        let mut map = FeatureMap::zeros(domains.len());
        for (c, domain) in domains.iter().enumerate() {
            for (i, v) in domain.iter().enumerate() {
                let feature = v.as_f64().unwrap_or((i + 1) as f64);
                map.set(c, v.clone(), feature);
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_lookup() {
        let mut m = FeatureMap::zeros(2);
        m.set(0, Value::str("a"), 1.5);
        m.set(1, Value::int(7), -2.0);
        assert_eq!(m.n_cols(), 2);
        assert_eq!(m.value(0, &Value::str("a")), 1.5);
        assert_eq!(m.value(1, &Value::int(7)), -2.0);
        assert_eq!(m.value(0, &Value::str("missing")), 0.0);
        assert_eq!(m.column(1).len(), 1);
    }

    #[test]
    fn default_value_is_configurable() {
        let m = FeatureMap::zeros(1).with_default(9.0);
        assert_eq!(m.value(0, &Value::str("x")), 9.0);
    }

    #[test]
    fn indexed_uses_numeric_values_and_ranks() {
        let domains = vec![
            vec![Value::int(10), Value::int(20)],
            vec![Value::str("a"), Value::str("b"), Value::str("c")],
        ];
        let m = FeatureMap::indexed(&domains);
        assert_eq!(m.value(0, &Value::int(20)), 20.0);
        assert_eq!(m.value(1, &Value::str("a")), 1.0);
        assert_eq!(m.value(1, &Value::str("c")), 3.0);
    }
}
