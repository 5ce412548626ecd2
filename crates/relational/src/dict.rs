//! Dictionary encoding of attribute domains.
//!
//! A [`ValueDict`] maps each distinct [`Value`] of one attribute domain to a
//! dense `u32` code. Two construction orders exist:
//!
//! * **Sorted** ([`ValueDict::from_values`], [`ValueDict::from_sorted_values`]):
//!   codes are the values' sorted ranks, so comparing two codes orders like
//!   comparing the values. The factorised operators build their level
//!   dictionaries this way and run on codes end to end (flat `Vec<f64>`
//!   indexing instead of `BTreeMap<Value, _>` lookups).
//! * **Arrival** ([`ValueDict::code_or_insert`]): a relation's columns are
//!   encoded row by row, so each value gets the next code on first
//!   appearance. Streaming ingest grows a domain the same way: existing
//!   codes never move, so code-indexed tables built before an extension stay
//!   valid and only need to be lengthened.
//!
//! While code order is value order, lookups ([`ValueDict::code_of`],
//! [`ValueDict::code_or_insert`]) binary-search the domain. The first value
//! that arrives out of order builds an open-addressing hash index of codes,
//! and lookups go through it from then on, so an insertion costs O(log d)
//! amortised whatever order values arrive in. [`ValueDict::codes_by_value`]
//! and its inverse [`ValueDict::ranks`] recover value order, derived together
//! by one sort the first time a grown domain asks for either.

use crate::value::Value;
use std::hash::{BuildHasher, RandomState};
use std::sync::{Arc, OnceLock};

/// An empty slot of the hash index.
const EMPTY: u32 = u32::MAX;

/// A dictionary assigning dense `u32` codes to one attribute domain.
///
/// Codes remain *stable* across [`ValueDict::code_or_insert`]: growing the
/// domain never renumbers an existing value, it only appends codes for new
/// ones.
#[derive(Debug, Clone)]
pub struct ValueDict {
    /// Distinct values in *code* order.
    values: Vec<Value>,
    /// `None` while code order is value order (lookups binary-search
    /// `values`), else the hash index lookups go through.
    index: Option<HashIndex>,
    /// Value order of the codes, derived on first use after the domain last
    /// grew.
    by_value: OnceLock<ValueOrder>,
}

/// The codes of a dictionary ordered by their value, and its inverse.
#[derive(Debug, Clone)]
struct ValueOrder {
    /// `codes[r]` is the code of the `r`-th smallest value.
    codes: Vec<u32>,
    /// `ranks[code]` is the value-rank of `code`.
    ranks: Vec<u32>,
}

impl PartialEq for ValueDict {
    /// Two dictionaries are equal when they assign the same codes; the hash
    /// index and the value order are functions of that.
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl Eq for ValueDict {}

impl Default for ValueDict {
    fn default() -> Self {
        Self::from_code_order(Vec::new())
    }
}

impl ValueDict {
    /// Build a dictionary from an arbitrary collection of values. Values are
    /// sorted and de-duplicated; the resulting code of a value is its rank in
    /// the distinct sorted domain.
    pub fn from_values(mut values: Vec<Value>) -> Self {
        // Equal values are indistinguishable and collapse in `dedup`, so the
        // unstable sort gives the same dictionary.
        values.sort_unstable();
        values.dedup();
        Self::from_sorted_values(values)
    }

    /// Build from values already sorted and distinct (checked in debug).
    pub fn from_sorted_values(values: Vec<Value>) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        ValueDict {
            values,
            index: None,
            by_value: OnceLock::new(),
        }
    }

    /// Rebuild a dictionary from its domain in *code* order (the exact
    /// `values()` slice of another dictionary, e.g. decoded off the wire).
    /// Unlike [`ValueDict::from_values`] the input is **not** re-sorted:
    /// value `i` keeps code `i`, so an arrival-order dictionary round-trips
    /// with every code intact.
    ///
    /// Values must be distinct (dictionary domains always are).
    pub fn from_code_order(values: Vec<Value>) -> Self {
        let sorted = values.windows(2).all(|w| w[0] < w[1]);
        let dict = ValueDict {
            index: (!sorted).then(|| HashIndex::build(&values)),
            values,
            by_value: OnceLock::new(),
        };
        debug_assert!(dict
            .iter()
            .all(|(code, value)| dict.code_of(value) == Some(code)));
        dict
    }

    /// Number of distinct values in the domain.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The code of `value`, if it is part of the domain.
    #[inline]
    pub fn code_of(&self, value: &Value) -> Option<u32> {
        match &self.index {
            None => self.values.binary_search(value).ok().map(|i| i as u32),
            Some(index) => index.probe(&self.values, value).1,
        }
    }

    /// The code of `value`, appending a fresh code if the value is unseen.
    /// Existing codes are never renumbered.
    pub fn code_or_insert(&mut self, value: &Value) -> u32 {
        let code = self.values.len() as u32;
        match &mut self.index {
            None => match self.values.binary_search(value) {
                Ok(found) => return found as u32,
                Err(at) => {
                    self.values.push(value.clone());
                    if at < code as usize {
                        self.index = Some(HashIndex::build(&self.values));
                    }
                }
            },
            Some(index) => {
                let (slot, found) = index.probe(&self.values, value);
                if let Some(found) = found {
                    return found;
                }
                self.values.push(value.clone());
                index.slots[slot] = code;
                if 2 * self.values.len() > index.slots.len() {
                    *index = HashIndex::build(&self.values);
                }
            }
        }
        self.by_value.take();
        code
    }

    /// Decode a code back to its value.
    ///
    /// # Panics
    /// Panics if `code` is out of range (codes only come from this dict).
    #[inline]
    pub fn value(&self, code: u32) -> &Value {
        &self.values[code as usize]
    }

    /// The full domain in code order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The codes ordered by their value: `codes_by_value()[r]` is the code
    /// of the domain's `r`-th smallest value.
    pub fn codes_by_value(&self) -> &[u32] {
        &self.value_order().codes
    }

    /// The value-rank of every code (the inverse of
    /// [`ValueDict::codes_by_value`]): comparing `ranks()[a]` with
    /// `ranks()[b]` orders like comparing the values of codes `a` and `b`,
    /// whatever order the codes were assigned in.
    pub fn ranks(&self) -> &[u32] {
        &self.value_order().ranks
    }

    fn value_order(&self) -> &ValueOrder {
        self.by_value.get_or_init(|| {
            let mut codes: Vec<u32> = (0..self.values.len() as u32).collect();
            if self.index.is_none() {
                return ValueOrder {
                    ranks: codes.clone(),
                    codes,
                };
            }
            codes.sort_unstable_by(|&a, &b| self.values[a as usize].cmp(&self.values[b as usize]));
            let mut ranks = vec![0u32; codes.len()];
            for (rank, &code) in codes.iter().enumerate() {
                ranks[code as usize] = rank as u32;
            }
            ValueOrder { codes, ranks }
        })
    }

    /// Iterate `(code, value)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Value)> {
        self.values.iter().enumerate().map(|(i, v)| (i as u32, v))
    }
}

/// The code of `value` in a shared dictionary, appending it when unseen —
/// through a private copy of the dictionary if another column still shares
/// it, so snapshots that hold the old dictionary never see the new code.
pub(crate) fn code_or_append(dict: &mut Arc<ValueDict>, value: &Value) -> u32 {
    match dict.code_of(value) {
        Some(code) => code,
        None => Arc::make_mut(dict).code_or_insert(value),
    }
}

/// An open-addressing (linear probing) hash index of a dictionary's codes:
/// each slot holds a code or [`EMPTY`], and the slot count is a power of two
/// at least twice the domain, so probe sequences stay short and always end.
/// The hash keys are random (std's `RandomState`), so values crafted to
/// collide — a dictionary can grow from client input — cannot lengthen them.
#[derive(Debug, Clone)]
struct HashIndex {
    slots: Vec<u32>,
    keys: RandomState,
}

impl HashIndex {
    /// The index of `values` (the first of equal values wins, which only
    /// hostile input can produce).
    fn build(values: &[Value]) -> Self {
        let slots = vec![EMPTY; (2 * values.len()).next_power_of_two().max(8)];
        let mut index = HashIndex {
            slots,
            keys: RandomState::new(),
        };
        for (code, value) in values.iter().enumerate() {
            if let (slot, None) = index.probe(values, value) {
                index.slots[slot] = code as u32;
            }
        }
        index
    }

    /// The slot `value` occupies with its code, or the empty slot that ends
    /// its probe sequence.
    #[inline]
    fn probe(&self, values: &[Value], value: &Value) -> (usize, Option<u32>) {
        let mask = self.slots.len() - 1;
        let mut slot = self.keys.hash_one(value) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return (slot, None),
                code if values[code as usize] == *value => return (slot, Some(code)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_follow_sorted_order() {
        let dict = ValueDict::from_values(vec![
            Value::str("b"),
            Value::str("a"),
            Value::str("c"),
            Value::str("a"),
        ]);
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.code_of(&Value::str("a")), Some(0));
        assert_eq!(dict.code_of(&Value::str("b")), Some(1));
        assert_eq!(dict.code_of(&Value::str("c")), Some(2));
        assert_eq!(dict.code_of(&Value::str("z")), None);
        assert_eq!(dict.value(1), &Value::str("b"));
    }

    #[test]
    fn code_order_matches_value_order_across_variants() {
        let dict = ValueDict::from_values(vec![
            Value::str("x"),
            Value::int(5),
            Value::Null,
            Value::float(2.5),
        ]);
        let codes: Vec<Value> = dict.values().to_vec();
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted);
        for (code, value) in dict.iter() {
            assert_eq!(dict.code_of(value), Some(code));
        }
    }

    #[test]
    fn empty_domain() {
        let dict = ValueDict::from_values(Vec::new());
        assert!(dict.is_empty());
        assert_eq!(dict.code_of(&Value::int(1)), None);
    }

    #[test]
    fn extension_keeps_existing_codes_stable() {
        let mut dict =
            ValueDict::from_values(vec![Value::str("b"), Value::str("d"), Value::str("f")]);
        let before: Vec<(u32, Value)> = dict.iter().map(|(c, v)| (c, v.clone())).collect();
        // "c" and "e" sort into the middle of the domain, "a" before it, and
        // "f" is already present.
        let extra = [
            Value::str("e"),
            Value::str("a"),
            Value::str("f"),
            Value::str("c"),
        ];
        for value in &extra {
            dict.code_or_insert(value);
        }
        assert_eq!(dict.len(), 6);
        for (code, value) in before {
            assert_eq!(dict.code_of(&value), Some(code), "stable code for {value}");
            assert_eq!(dict.value(code), &value);
        }
        // new values got appended codes, in arrival order
        assert_eq!(dict.code_of(&Value::str("e")), Some(3));
        assert_eq!(dict.code_of(&Value::str("a")), Some(4));
        assert_eq!(dict.code_of(&Value::str("c")), Some(5));
        // lookups still work for every value, seen or appended
        for (code, value) in dict.iter() {
            assert_eq!(dict.code_of(value), Some(code));
        }
        assert_eq!(dict.code_of(&Value::str("zz")), None);
    }

    #[test]
    fn code_or_insert_round_trips() {
        let mut dict = ValueDict::from_values(Vec::new());
        assert_eq!(dict.code_or_insert(&Value::int(7)), 0);
        assert_eq!(dict.code_or_insert(&Value::int(3)), 1);
        assert_eq!(dict.code_or_insert(&Value::int(7)), 0);
        assert_eq!(dict.value(1), &Value::int(3));
    }

    #[test]
    fn arrival_order_insertion_equals_code_order_rebuild() {
        let mut rng = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut dict = ValueDict::default();
        let mut arrival: Vec<Value> = Vec::new();
        for step in 0..20_000 {
            let value = match next() % 4 {
                0 => Value::int((next() % 3000) as i64 - 1500),
                1 => Value::str(format!("s{}", next() % 5000)),
                2 => Value::float((next() % 700) as f64 * 0.125),
                _ => Value::Null,
            };
            let fresh = dict.code_of(&value).is_none();
            let code = dict.code_or_insert(&value);
            if fresh {
                arrival.push(value.clone());
                assert_eq!(code as usize, arrival.len() - 1, "codes follow arrival");
            }
            assert_eq!(dict.value(code), &value);
            if step % 4999 == 0 {
                // Deriving the value order mid-stream must not stick.
                assert_eq!(dict.codes_by_value().len(), dict.len());
            }
        }
        let rebuilt = ValueDict::from_code_order(arrival.clone());
        assert_eq!(dict.values(), rebuilt.values());
        assert_eq!(dict.codes_by_value(), rebuilt.codes_by_value());
        assert_eq!(dict, rebuilt);
        let mut sorted = arrival;
        sorted.sort();
        let by_value: Vec<Value> = dict
            .codes_by_value()
            .iter()
            .map(|&code| dict.value(code).clone())
            .collect();
        assert_eq!(by_value, sorted);
        assert_eq!(
            ValueDict::from_values(sorted.clone()).values(),
            &by_value[..]
        );
        // Ascending arrival (binary-searched, no hash index) and any other
        // arrival agree on every lookup.
        let mut ascending = ValueDict::default();
        for value in &sorted {
            ascending.code_or_insert(value);
        }
        assert_eq!(ascending, ValueDict::from_sorted_values(sorted.clone()));
        let identity: Vec<u32> = (0..sorted.len() as u32).collect();
        assert_eq!(ascending.codes_by_value(), &identity[..]);
        for value in &sorted {
            assert_eq!(ascending.value(ascending.code_of(value).unwrap()), value);
        }
        let ranks = dict.ranks();
        for (code, value) in dict.iter() {
            assert_eq!(dict.code_of(value), Some(code));
            assert_eq!(
                ranks[code as usize] as usize,
                by_value.binary_search(value).unwrap()
            );
        }
        assert_eq!(dict.code_of(&Value::str("absent")), None);
    }

    #[test]
    fn ranks_follow_an_insert_that_sorts_before_every_value() {
        let mut dict =
            ValueDict::from_values(vec![Value::str("b"), Value::str("d"), Value::str("f")]);
        assert_eq!(dict.ranks(), &[0, 1, 2]);
        assert_eq!(dict.code_or_insert(&Value::str("a")), 3);
        assert_eq!(dict.codes_by_value(), &[3, 0, 1, 2]);
        assert_eq!(dict.ranks(), &[1, 2, 3, 0]);
        for (rank, &code) in dict.codes_by_value().iter().enumerate() {
            assert_eq!(dict.ranks()[code as usize] as usize, rank);
        }
    }
}
