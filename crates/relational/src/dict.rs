//! Dictionary encoding of attribute domains.
//!
//! A [`ValueDict`] maps each distinct [`Value`] of one attribute domain to a
//! dense `u32` code. At construction codes are assigned in the `Value`s'
//! sorted order, so comparing two codes orders the same way as comparing the
//! values they stand for — range predicates, sorted-run detection and
//! BTreeMap-iteration equivalence all survive the encoding. The factorised
//! operators run on codes end-to-end (flat `Vec<f64>` indexing instead of
//! `BTreeMap<Value, _>` lookups) and decode back to `Value` only at the
//! explanation/API boundary.
//!
//! Under streaming ingest a domain can *grow*: [`ValueDict::extend_with`]
//! keeps every existing code stable and appends fresh codes for unseen
//! values, so code-indexed tables built before the extension stay valid and
//! only need to be lengthened. After an extension, code order is no longer
//! globally sorted (the appended tail sorts wherever its values fall); a
//! separate permutation index keeps `code_of` an `O(log n)` binary search
//! either way.

use crate::parallel::Parallelism;
use crate::value::Value;

/// A dictionary assigning dense `u32` codes to one attribute domain.
///
/// Codes are sorted-rank order at construction and remain *stable* across
/// [`ValueDict::extend_with`]: extending never renumbers an existing value,
/// it only appends codes for new ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueDict {
    /// Distinct values in *code* order: the sorted construction domain
    /// followed by appended extension values in arrival order.
    values: Vec<Value>,
    /// Codes ordered by their value — the binary-search index behind
    /// [`ValueDict::code_of`]. Equals the identity permutation until the
    /// first extension appends out of sorted order.
    by_value: Vec<u32>,
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
        let by_value = (0..values.len() as u32).collect();
        ValueDict { values, by_value }
    }

    /// Build from values already sorted and distinct (checked in debug).
    pub fn from_sorted_values(values: Vec<Value>) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        let by_value = (0..values.len() as u32).collect();
        ValueDict { values, by_value }
    }

    /// [`ValueDict::from_values`] with the sort fanned out over
    /// `parallelism`: contiguous column ranges are sorted and de-duplicated
    /// per shard, then merged in shard order. The result is *identical* to
    /// the serial constructor (sorting is value-deterministic), so sharded
    /// and serial dictionary builds assign the same codes.
    pub fn from_column_with(column: &[Value], parallelism: &Parallelism) -> Self {
        if parallelism.is_serial() || column.len() < 2 {
            return Self::from_values(column.to_vec());
        }
        let runs: Vec<Vec<Value>> = parallelism.map_ranges(column.len(), |start, len| {
            let mut run = column[start..start + len].to_vec();
            run.sort();
            run.dedup();
            run
        });
        Self::from_sorted_values(merge_distinct_runs(runs))
    }

    /// Rebuild a dictionary from its domain in *code* order (the exact
    /// `values()` slice of another dictionary, e.g. decoded off the wire).
    /// Unlike [`ValueDict::from_values`] the input is **not** re-sorted:
    /// value `i` keeps code `i`, so a dictionary whose tail was appended by
    /// post-ingest extensions round-trips with every code intact. The
    /// `code_of` permutation index is rebuilt by sorting codes by value.
    ///
    /// Values must be distinct (dictionary domains always are).
    pub fn from_code_order(values: Vec<Value>) -> Self {
        let mut by_value: Vec<u32> = (0..values.len() as u32).collect();
        by_value.sort_by(|&a, &b| values[a as usize].cmp(&values[b as usize]));
        debug_assert!(by_value
            .windows(2)
            .all(|w| values[w[0] as usize] < values[w[1] as usize]));
        ValueDict { values, by_value }
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
        self.by_value
            .binary_search_by(|&c| self.values[c as usize].cmp(value))
            .ok()
            .map(|i| self.by_value[i])
    }

    /// The code of `value`, appending a fresh code if the value is unseen.
    /// Existing codes are never renumbered.
    pub fn code_or_insert(&mut self, value: &Value) -> u32 {
        match self
            .by_value
            .binary_search_by(|&c| self.values[c as usize].cmp(value))
        {
            Ok(i) => self.by_value[i],
            Err(i) => {
                let code = self.values.len() as u32;
                self.values.push(value.clone());
                self.by_value.insert(i, code);
                code
            }
        }
    }

    /// Extend the domain in place with every unseen value of `values`,
    /// keeping existing codes stable and appending fresh codes for new
    /// values. Returns the number of values appended.
    pub fn extend_with<'a>(&mut self, values: impl IntoIterator<Item = &'a Value>) -> usize {
        let before = self.values.len();
        for value in values {
            self.code_or_insert(value);
        }
        self.values.len() - before
    }

    /// Decode a code back to its value.
    ///
    /// # Panics
    /// Panics if `code` is out of range (codes only come from this dict).
    #[inline]
    pub fn value(&self, code: u32) -> &Value {
        &self.values[code as usize]
    }

    /// The full domain in code order (sorted order until the first
    /// extension; extension values follow in arrival order).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The codes ordered by their value: `codes_by_value()[r]` is the code
    /// of the domain's `r`-th smallest value.
    pub fn codes_by_value(&self) -> &[u32] {
        &self.by_value
    }

    /// The value-rank of every code (the inverse of
    /// [`ValueDict::codes_by_value`]): comparing `ranks()[a]` with
    /// `ranks()[b]` orders like comparing the values of codes `a` and `b`,
    /// also after extensions appended codes out of sorted order.
    pub fn ranks(&self) -> Vec<u32> {
        let mut ranks = vec![0u32; self.by_value.len()];
        for (rank, &code) in self.by_value.iter().enumerate() {
            ranks[code as usize] = rank as u32;
        }
        ranks
    }

    /// Iterate `(code, value)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Value)> {
        self.values.iter().enumerate().map(|(i, v)| (i as u32, v))
    }
}

/// Merge any number of sorted, de-duplicated runs into one sorted distinct
/// domain (pairwise rounds). Used by [`ValueDict::from_column_with`] and by
/// the sharded view scan, whose shards produce one run per column range.
pub(crate) fn merge_distinct_runs(mut runs: Vec<Vec<Value>>) -> Vec<Value> {
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(merge_distinct(a, b)),
                None => next.push(a),
            }
        }
        runs = next;
    }
    runs.pop().unwrap_or_default()
}

/// Merge two sorted, de-duplicated runs into one (duplicates across the
/// runs collapse).
fn merge_distinct(a: Vec<Value>, b: Vec<Value>) -> Vec<Value> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut a = a.into_iter().peekable();
    let mut b = b.into_iter().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => match x.cmp(y) {
                std::cmp::Ordering::Less => out.push(a.next().expect("peeked")),
                std::cmp::Ordering::Greater => out.push(b.next().expect("peeked")),
                std::cmp::Ordering::Equal => {
                    out.push(a.next().expect("peeked"));
                    b.next();
                }
            },
            (Some(_), None) => out.push(a.next().expect("peeked")),
            (None, Some(_)) => out.push(b.next().expect("peeked")),
            (None, None) => return out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_dictionary_build_equals_serial() {
        let mut rng = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for len in [0usize, 1, 2, 7, 100, 1001] {
            let column: Vec<Value> = (0..len)
                .map(|_| match next() % 3 {
                    0 => Value::int((next() % 17) as i64),
                    1 => Value::str(format!("v{}", next() % 29)),
                    _ => Value::float((next() % 11) as f64 * 0.5),
                })
                .collect();
            let serial = ValueDict::from_values(column.clone());
            for threads in [2usize, 3, 8] {
                let sharded = ValueDict::from_column_with(&column, &Parallelism::new(threads));
                assert_eq!(serial, sharded, "len {len}, {threads} threads");
            }
        }
    }

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
        assert_eq!(dict.extend_with(extra.iter()), 3);
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
}
