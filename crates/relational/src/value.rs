//! The dynamically typed cell value used by dimension and measure columns.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single cell value.
///
/// `Value` has a *total* ordering (`Null < Int < Float < Str`, floats ordered
/// with [`f64::total_cmp`]) and a consistent `Hash` implementation so it can be
/// used as a group-by key and as a key of sorted maps inside the factorised
/// representation.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL-style missing value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Interned string (cheap to clone).
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Build a float value.
    pub fn float(f: f64) -> Self {
        Value::Float(f)
    }

    /// Returns true if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value; `Null` and `Str` return `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Numeric view, treating non-numeric values as 0.0.
    pub fn as_f64_or_zero(&self) -> f64 {
        self.as_f64().unwrap_or(0.0)
    }

    /// Integer view of the value if it is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// String view of the value if it is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Rank of the variant, used to order across variants.
    fn variant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

// The three comparison impls are the inner loop of every dictionary sort and
// lookup (`ValueDict::from_values`, `code_of`): `#[inline]` so that whether
// they inline there does not hang on how the crate is split into codegen
// units (an unrelated edit moved that split and cost the 453k-row panel's
// dictionary builds 60 %).
impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.variant_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn ordering_is_total_across_variants() {
        let vals = [
            Value::Null,
            Value::int(-3),
            Value::int(7),
            Value::float(-1.5),
            Value::float(2.25),
            Value::str("a"),
            Value::str("b"),
        ];
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                let ord = vals[i].cmp(&vals[j]);
                let rev = vals[j].cmp(&vals[i]);
                assert_eq!(ord, rev.reverse());
            }
        }
    }

    #[test]
    fn equal_values_hash_equal() {
        let a = Value::str("district-1");
        let b = Value::str("district-1");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));

        let x = Value::float(3.5);
        let y = Value::float(3.5);
        assert_eq!(x, y);
        assert_eq!(hash_of(&x), hash_of(&y));
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::int(4).as_f64(), Some(4.0));
        assert_eq!(Value::float(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
        assert_eq!(Value::Null.as_f64_or_zero(), 0.0);
        assert_eq!(Value::int(9).as_i64(), Some(9));
        assert_eq!(Value::float(9.9).as_i64(), Some(9));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
    }

    #[test]
    fn nan_is_orderable() {
        let nan = Value::float(f64::NAN);
        let one = Value::float(1.0);
        // total_cmp puts NaN after all ordinary numbers; the exact position is
        // unimportant, what matters is that comparisons never panic and are
        // consistent.
        assert_eq!(nan.cmp(&one), one.cmp(&nan).reverse());
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn display_round_trips_reasonably() {
        assert_eq!(Value::int(12).to_string(), "12");
        assert_eq!(Value::str("Ofla").to_string(), "Ofla");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::int(3));
        assert_eq!(Value::from(3i32), Value::int(3));
        assert_eq!(Value::from(3usize), Value::int(3));
        assert_eq!(Value::from(0.5), Value::float(0.5));
        assert_eq!(Value::from("v"), Value::str("v"));
        assert_eq!(Value::from(String::from("v")), Value::str("v"));
    }
}
