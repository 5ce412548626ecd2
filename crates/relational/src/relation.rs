//! Columnar relations.

use crate::dict::ValueDict;
use crate::error::RelationalError;
use crate::scan::{CodeColumn, CompiledPredicate};
use crate::schema::{AttrId, Schema};
use crate::value::Value;
use crate::Result;
use reptile_obs::{add_counter, Counter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Source of fresh lineage identifiers (see [`Relation::ident`]) and of
/// snapshot identities (see [`Delta`]).
static NEXT_IDENT: AtomicU64 = AtomicU64::new(1);

fn fresh_ident() -> u64 {
    NEXT_IDENT.fetch_add(1, Ordering::Relaxed)
}

/// A columnar relation (bag of tuples) with an attached [`Schema`].
///
/// The relation *is* its code columns: one `Arc`-shared [`CodeColumn`] per
/// attribute (dictionary, `u32` codes, run table, zone map) and no other
/// copy of the cells. [`Relation::value`] decodes through the dictionary;
/// every scan reads the codes. Building a relation encodes each cell as it
/// arrives, so codes follow first appearance.
///
/// Every relation carries a *lineage identity* and a *version*: a freshly
/// built (or cloned) relation starts a new lineage at version 0, while
/// [`Relation::apply`](crate::ingest) produces the next snapshot of the
/// *same* lineage with the version bumped. Caches key on the lineage ident
/// so that entries can survive an ingest of unrelated rows, and distinct
/// lineages (e.g. a clean panel and a corrupted copy) can never alias.
#[derive(Debug)]
pub struct Relation {
    schema: Arc<Schema>,
    columns: Vec<Arc<CodeColumn>>,
    rows: usize,
    ident: u64,
    version: u64,
    /// This value's identity as a snapshot: drawn on first use (a batch
    /// applied to it, or a successor checked against it), dropped by every
    /// in-place mutation.
    snapshot: OnceLock<u64>,
    /// How [`Relation::apply`](crate::ingest) made this snapshot from its
    /// predecessor; `None` for any other relation, and after an in-place
    /// mutation.
    delta: Option<Delta>,
}

/// What one [`Relation::apply`](crate::ingest) changed, recorded on the
/// snapshot it made: the predecessor's rows it deleted, and where the
/// inserts start. The surviving rows keep their order and their codes, and
/// the inserts follow them — what lets [`View::advance`](crate::View::advance)
/// move a view by the batch instead of rescanning the snapshot.
#[derive(Debug)]
pub(crate) struct Delta {
    /// The snapshot identity of the predecessor.
    predecessor: u64,
    /// The predecessor's deleted rows, ascending.
    deleted: Vec<usize>,
    /// This snapshot's rows before the first insert: the predecessor's
    /// surviving rows, in their order.
    kept: usize,
}

impl Delta {
    /// The predecessor's deleted rows, ascending.
    pub(crate) fn deleted(&self) -> &[usize] {
        &self.deleted
    }

    /// The first inserted row; every row before it survived from the
    /// predecessor, in order.
    pub(crate) fn kept(&self) -> usize {
        self.kept
    }
}

impl Clone for Relation {
    /// Share every column under a **new lineage** (fresh ident, version 0):
    /// a clone can be mutated independently (e.g. error injection via
    /// [`Relation::set_value`], which copies a shared column on first
    /// write), so it must never alias its source in any lineage-keyed cache.
    fn clone(&self) -> Self {
        Relation {
            schema: self.schema.clone(),
            columns: self.columns.clone(),
            rows: self.rows,
            ident: fresh_ident(),
            version: 0,
            snapshot: OnceLock::new(),
            delta: None,
        }
    }
}

impl Relation {
    /// Create an empty relation for `schema`.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let columns = (0..schema.arity())
            .map(|_| CodeColumn::from_parts(ValueDict::default(), Vec::new()))
            .collect();
        Relation::from_code_columns(schema, fresh_ident(), 0, columns)
    }

    /// Start building a relation row by row.
    pub fn builder(schema: Arc<Schema>) -> RelationBuilder {
        RelationBuilder {
            relation: Relation::empty(schema),
        }
    }

    /// Assemble snapshot `version` of lineage `ident` from one column per
    /// attribute: the successor built by [`Relation::apply`](crate::ingest),
    /// or a worker-side partition decoded off the wire (see [`crate::ship`])
    /// that keeps the *coordinator's* lineage, version and code space, so
    /// code-keyed partials computed there merge with the coordinator's.
    pub(crate) fn from_code_columns(
        schema: Arc<Schema>,
        ident: u64,
        version: u64,
        columns: Vec<CodeColumn>,
    ) -> Relation {
        debug_assert_eq!(columns.len(), schema.arity());
        Relation {
            schema,
            rows: columns.first().map_or(0, CodeColumn::len),
            columns: columns.into_iter().map(Arc::new).collect(),
            ident,
            version,
            snapshot: OnceLock::new(),
            delta: None,
        }
    }

    /// This value's snapshot identity, drawn on first use.
    pub(crate) fn snapshot_id(&self) -> u64 {
        *self.snapshot.get_or_init(fresh_ident)
    }

    /// Record that this relation is `predecessor` with `deleted` rows
    /// removed and the inserts appended from row `kept` on.
    pub(crate) fn with_delta(
        mut self,
        predecessor: &Relation,
        deleted: Vec<usize>,
        kept: usize,
    ) -> Relation {
        self.delta = Some(Delta {
            predecessor: predecessor.snapshot_id(),
            deleted,
            kept,
        });
        self
    }

    /// The delta that made this relation from `predecessor`, if it is the
    /// snapshot [`Relation::apply`](crate::ingest) made from exactly that
    /// value and neither was mutated in place since.
    pub(crate) fn delta_from(&self, predecessor: &Relation) -> Option<&Delta> {
        self.delta
            .as_ref()
            .filter(|delta| delta.predecessor == predecessor.snapshot_id())
    }

    /// Whether this relation is the snapshot [`Relation::apply`](crate::ingest)
    /// made from `predecessor`, so that a view over `predecessor` can
    /// [advance](crate::View::advance) to it.
    pub fn succeeds(&self, predecessor: &Relation) -> bool {
        self.delta_from(predecessor).is_some()
    }

    /// Forget this value's snapshot identity and delta: an in-place
    /// mutation makes it a different snapshot under the same version.
    fn mutated(&mut self) {
        self.snapshot = OnceLock::new();
        self.delta = None;
    }

    /// A new lineage over the same dictionaries, each column holding
    /// `codes(the column)`.
    fn derive(&self, codes: impl Fn(&CodeColumn) -> Vec<u32>) -> Relation {
        let columns = self
            .columns
            .iter()
            .map(|col| CodeColumn::from_parts(col.dict().clone(), codes(col)))
            .collect();
        Relation::from_code_columns(self.schema.clone(), fresh_ident(), 0, columns)
    }

    /// The schema of the relation.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The lineage identity: shared by every snapshot produced from this
    /// relation via [`Relation::apply`](crate::ingest), unique across
    /// independently built (or cloned) relations.
    pub fn ident(&self) -> u64 {
        self.ident
    }

    /// The snapshot version within the lineage (0 at creation, +1 per
    /// applied [`IngestBatch`](crate::ingest::IngestBatch)).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The value at (`row`, `attr`), decoded through the column's dictionary.
    pub fn value(&self, row: usize, attr: AttrId) -> &Value {
        let column = &self.columns[attr.index()];
        column.dict().value(column.code(row))
    }

    /// The [`CodeColumn`] of `attr` — the storage of this snapshot
    /// (dictionary, dense codes, run table, zone map), `Arc`-shared so
    /// shard workers read it without locks. See [`crate::scan`].
    pub fn code_column(&self, attr: AttrId) -> Arc<CodeColumn> {
        self.columns[attr.index()].clone()
    }

    /// Numeric value at (`row`, `attr`), erroring if non-numeric and non-null.
    pub fn numeric(&self, row: usize, attr: AttrId) -> Result<Option<f64>> {
        let v = self.value(row, attr);
        if v.is_null() {
            return Ok(None);
        }
        v.as_f64()
            .map(Some)
            .ok_or_else(|| RelationalError::NonNumericMeasure {
                attribute: self.schema.name(attr).to_string(),
                row,
            })
    }

    /// Append a row; the row must match the schema arity. Each cell is
    /// encoded in place (a column shared with another snapshot is copied on
    /// first write), O(1) amortised.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(RelationalError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        self.mutated();
        for (col, v) in self.columns.iter_mut().zip(&row) {
            Arc::make_mut(col).write(self.rows, v);
        }
        self.rows += 1;
        Ok(())
    }

    /// Extract one row as an owned vector of values.
    pub fn row(&self, row: usize) -> Vec<Value> {
        (0..self.columns.len())
            .map(|a| self.value(row, AttrId(a)).clone())
            .collect()
    }

    /// Iterate over row indices satisfying `pred`.
    pub fn filter_indices<F: Fn(usize) -> bool>(&self, pred: F) -> Vec<usize> {
        (0..self.rows).filter(|r| pred(*r)).collect()
    }

    /// Materialise a new relation keeping only the given row indices (same
    /// dictionaries, so the same codes).
    pub fn take(&self, indices: &[usize]) -> Relation {
        self.derive(|col| indices.iter().map(|&r| col.code(r)).collect())
    }

    /// Materialise the contiguous row range `[start, start + len)` as a new
    /// relation (a row shard over the same dictionaries). Out-of-range
    /// requests panic.
    pub fn take_range(&self, start: usize, len: usize) -> Relation {
        assert!(
            start + len <= self.rows,
            "row range {start}..{} out of bounds for {} rows",
            start + len,
            self.rows
        );
        self.derive(|col| col.codes()[start..start + len].to_vec())
    }

    /// Partition the relation into `shards` contiguous row shards (balanced
    /// to within one row; `shards` is clamped to at least 1, and shards past
    /// the row count are empty) that **share the relation's dictionaries**.
    /// Shared dictionaries are what make per-shard encoded aggregates
    /// mergeable code-wise: a code means the same value in every shard, so
    /// shard partials sum exactly (see `reptile-factor`'s sharded
    /// aggregation).
    ///
    /// Concatenating the shards in order reproduces the relation's rows in
    /// row order — per-group accumulation over shard-merged data therefore
    /// visits rows in the original order.
    pub fn partition(&self, shards: usize) -> RelationShards {
        let shards = shards.max(1);
        let base = self.rows / shards;
        let extra = self.rows % shards;
        let mut out = Vec::with_capacity(shards);
        // Per-shard min/max code per attribute, in the code space every
        // shard and every compiled predicate share.
        let mut zones = Vec::with_capacity(shards);
        let mut start = 0usize;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            out.push(Arc::new(self.take_range(start, len)));
            zones.push(
                self.columns
                    .iter()
                    .map(|col| {
                        let codes = &col.codes()[start..start + len];
                        let min = codes.iter().copied().min()?;
                        let max = codes.iter().copied().max()?;
                        Some((min, max))
                    })
                    .collect(),
            );
            start += len;
        }
        debug_assert_eq!(start, self.rows);
        RelationShards {
            shards: out,
            dicts: self.columns.iter().map(|col| col.dict().clone()).collect(),
            zones,
        }
    }

    /// Distinct values some row of `attr` carries, sorted (a dictionary
    /// can outlive the rows of a value; those values are not listed).
    pub fn distinct(&self, attr: AttrId) -> Vec<Value> {
        let column = &self.columns[attr.index()];
        let mut present = vec![false; column.dict().len()];
        for &code in column.codes() {
            present[code as usize] = true;
        }
        let dict = column.dict();
        let codes = dict.codes_by_value().iter();
        codes
            .filter(|&&code| present[code as usize])
            .map(|&code| dict.value(code).clone())
            .collect()
    }

    /// Replace the value at a given row (used by error-injection and repair
    /// simulation utilities): encoded in place, O(1) amortised.
    pub fn set_value(&mut self, row: usize, attr: AttrId, value: Value) {
        self.mutated();
        Arc::make_mut(&mut self.columns[attr.index()]).write(row, &value);
    }

    /// Append all rows of `other` (schemas must match by arity; attribute
    /// compatibility is the caller's responsibility).
    pub fn extend_from(&mut self, other: &Relation) -> Result<()> {
        if other.schema.arity() != self.schema.arity() {
            return Err(RelationalError::ArityMismatch {
                expected: self.schema.arity(),
                got: other.schema.arity(),
            });
        }
        self.mutated();
        for (a, col) in self.columns.iter_mut().enumerate() {
            let col = Arc::make_mut(col);
            for row in 0..other.rows {
                col.write(self.rows + row, other.value(row, AttrId(a)));
            }
        }
        self.rows += other.rows;
        Ok(())
    }
}

/// The result of [`Relation::partition`]: contiguous row shards plus the
/// per-attribute dictionaries every shard shares with the source relation.
/// Each shard is an ordinary [`Relation`] (its own lineage — shards are
/// derived data, never aliased into lineage-keyed caches), and the
/// dictionaries are `Arc`-shared so fanning shards out to worker threads
/// costs pointer bumps.
///
/// Partitioning also records a **zone map**: the min/max code of every
/// attribute within every shard, in the source relation's code space (see
/// [`crate::scan`]). [`RelationShards::live_shards`] uses it
/// to prune shards a compiled predicate provably cannot match before any
/// work is dispatched for them.
#[derive(Debug, Clone)]
pub struct RelationShards {
    shards: Vec<Arc<Relation>>,
    dicts: Vec<Arc<ValueDict>>,
    /// `zones[shard][attr]` = `(min, max)` code of `attr` within the shard,
    /// `None` for empty shards.
    zones: Vec<Vec<Option<(u32, u32)>>>,
}

impl RelationShards {
    /// The row shards, in row order (concatenating them reproduces the
    /// partitioned relation's rows).
    pub fn shards(&self) -> &[Arc<Relation>] {
        &self.shards
    }

    /// Number of shards (including empty trailing shards when the shard
    /// count exceeded the row count).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether there are no shards (never true: partitioning clamps to one).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shared per-attribute dictionaries, in schema attribute order —
    /// the source relation's own, so a code is stable across every shard.
    pub fn dicts(&self) -> &[Arc<ValueDict>] {
        &self.dicts
    }

    /// The shared dictionary of one attribute.
    pub fn dict(&self, attr: AttrId) -> &ValueDict {
        &self.dicts[attr.index()]
    }

    /// The `(min, max)` code of `attr` within shard `shard` (`None` for an
    /// empty shard), in the source relation's code space.
    pub fn zone(&self, shard: usize, attr: AttrId) -> Option<(u32, u32)> {
        self.zones[shard][attr.index()]
    }

    /// Indices of the shards `predicate` may match, per the zone map —
    /// the shard set worth dispatching. Pruned shards provably contain no
    /// matching row (exact min/max per shard, so unlike block zones there
    /// is no edge slack); each one counts toward
    /// [`Counter::ShardsPruned`]. `predicate` must be compiled against the
    /// relation this partition was built from.
    pub fn live_shards(&self, predicate: &CompiledPredicate) -> Vec<usize> {
        let mut live = Vec::with_capacity(self.shards.len());
        let mut pruned = 0u64;
        for s in 0..self.shards.len() {
            if self.shards[s].is_empty() {
                continue; // nothing to dispatch, nothing to count
            }
            let possible = !predicate.is_unsatisfiable()
                && predicate.term_codes().all(|(attr, code)| {
                    self.zones[s][attr.index()].is_some_and(|(lo, hi)| lo <= code && code <= hi)
                });
            if possible {
                live.push(s);
            } else {
                pruned += 1;
            }
        }
        if pruned > 0 {
            add_counter(Counter::ShardsPruned, pruned);
        }
        live
    }
}

/// Incremental builder over [`Relation::push_row`].
#[derive(Debug)]
pub struct RelationBuilder {
    relation: Relation,
}

impl RelationBuilder {
    /// Append a row built from anything convertible to [`Value`].
    pub fn row<I, V>(mut self, values: I) -> Result<Self>
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        self.relation
            .push_row(values.into_iter().map(Into::into).collect())?;
        Ok(self)
    }

    /// Finish building.
    pub fn build(self) -> Relation {
        self.relation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .hierarchy("geo", ["district", "village"])
                .hierarchy("time", ["year"])
                .measure("severity")
                .build()
                .unwrap(),
        )
    }

    fn sample() -> Relation {
        let s = schema();
        Relation::builder(s)
            .row([
                Value::str("Ofla"),
                Value::str("Adishim"),
                Value::int(1986),
                Value::float(8.1),
            ])
            .unwrap()
            .row([
                Value::str("Ofla"),
                Value::str("Darube"),
                Value::int(1986),
                Value::float(2.2),
            ])
            .unwrap()
            .row([
                Value::str("Ofla"),
                Value::str("Dinka"),
                Value::int(1986),
                Value::float(7.7),
            ])
            .unwrap()
            .row([
                Value::str("Bora"),
                Value::str("Zata"),
                Value::int(1987),
                Value::float(3.0),
            ])
            .unwrap()
            .build()
    }

    #[test]
    fn push_and_read_back() {
        let r = sample();
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert_eq!(r.value(1, AttrId(1)), &Value::str("Darube"));
        assert_eq!(r.numeric(1, AttrId(3)).unwrap(), Some(2.2));
        assert_eq!(r.row(3)[0], Value::str("Bora"));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let s = schema();
        let mut r = Relation::empty(s);
        let err = r.push_row(vec![Value::int(1)]).unwrap_err();
        assert!(matches!(
            err,
            RelationalError::ArityMismatch {
                expected: 4,
                got: 1
            }
        ));
    }

    #[test]
    fn non_numeric_measure_detected() {
        let s = schema();
        let mut r = Relation::empty(s);
        r.push_row(vec![
            Value::str("Ofla"),
            Value::str("Dinka"),
            Value::int(1986),
            Value::str("oops"),
        ])
        .unwrap();
        assert!(r.numeric(0, AttrId(3)).is_err());
        r.set_value(0, AttrId(3), Value::Null);
        assert_eq!(r.numeric(0, AttrId(3)).unwrap(), None);
    }

    #[test]
    fn filter_and_take() {
        let r = sample();
        let idx = r.filter_indices(|row| r.value(row, AttrId(0)) == &Value::str("Ofla"));
        assert_eq!(idx, vec![0, 1, 2]);
        let sub = r.take(&idx);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.value(2, AttrId(1)), &Value::str("Dinka"));
    }

    #[test]
    fn distinct_is_sorted_and_deduped() {
        let r = sample();
        let d = r.distinct(AttrId(0));
        assert_eq!(d, vec![Value::str("Bora"), Value::str("Ofla")]);
        let y = r.distinct(AttrId(2));
        assert_eq!(y, vec![Value::int(1986), Value::int(1987)]);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = sample();
        let b = sample();
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn take_range_slices_rows() {
        let r = sample();
        let mid = r.take_range(1, 2);
        assert_eq!(mid.len(), 2);
        assert_eq!(mid.value(0, AttrId(1)), &Value::str("Darube"));
        assert_eq!(mid.value(1, AttrId(1)), &Value::str("Dinka"));
        assert!(r.take_range(4, 0).is_empty());
    }

    #[test]
    fn partition_covers_rows_in_order_with_shared_dicts() {
        let r = sample();
        for shards in [1usize, 2, 3, 4, 7] {
            let parts = r.partition(shards);
            assert_eq!(parts.len(), shards);
            assert!(!parts.is_empty());
            // Concatenating the shards reproduces the rows in order.
            let mut row = 0usize;
            for shard in parts.shards() {
                assert!(Arc::ptr_eq(shard.schema(), r.schema()));
                for s in 0..shard.len() {
                    assert_eq!(shard.row(s), r.row(row));
                    row += 1;
                }
            }
            assert_eq!(row, r.len());
            // Balanced to within one row.
            let sizes: Vec<usize> = parts.shards().iter().map(|s| s.len()).collect();
            let max = sizes.iter().max().unwrap();
            let min = sizes.iter().min().unwrap();
            assert!(max - min <= 1, "unbalanced shards: {sizes:?}");
            // One dictionary per attribute, shared (stable codes) across
            // shards and covering the full domain.
            assert_eq!(parts.dicts().len(), r.schema().arity());
            for attr in [AttrId(0), AttrId(1), AttrId(2), AttrId(3)] {
                let dict = parts.dict(attr);
                for v in r.distinct(attr) {
                    assert!(dict.code_of(&v).is_some(), "{v} missing from shared dict");
                }
                for shard in parts.shards() {
                    for row in 0..shard.len() {
                        assert!(dict.code_of(shard.value(row, attr)).is_some());
                    }
                    assert!(Arc::ptr_eq(
                        shard.code_column(attr).dict(),
                        &parts.dicts()[attr.index()]
                    ));
                }
            }
        }
        // Shard count is clamped to at least one.
        assert_eq!(r.partition(0).len(), 1);
        assert_eq!(r.partition(0).shards()[0].len(), r.len());
    }

    #[test]
    fn partition_zone_maps_prune_exactly() {
        use crate::predicate::Predicate;
        use crate::scan::CompiledPredicate;
        let r = sample(); // rows 0..3 Ofla, row 3 Bora
        for shards in [1usize, 2, 3, 4, 7] {
            let parts = r.partition(shards);
            // Zones cover every shard row.
            let mut row = 0usize;
            for (s, shard) in parts.shards().iter().enumerate() {
                for local in 0..shard.len() {
                    for a in 0..r.schema().arity() {
                        let attr = AttrId(a);
                        let code = r.code_column(attr).code(row + local);
                        let (lo, hi) = parts.zone(s, attr).expect("non-empty shard has a zone");
                        assert!(lo <= code && code <= hi);
                    }
                }
                if shard.is_empty() {
                    assert_eq!(parts.zone(s, AttrId(0)), None);
                }
                row += shard.len();
            }
            // Bora lives in the last row only: with >= 2 row-bearing shards
            // the early shard(s) are pruned, and no shard holding a matching
            // row is ever dropped.
            let p = CompiledPredicate::compile(&Predicate::eq(AttrId(0), Value::str("Bora")), &r);
            let live = parts.live_shards(&p);
            let matching: Vec<usize> = (0..parts.len())
                .filter(|&s| {
                    !parts.shards()[s]
                        .filter_indices(|row| {
                            parts.shards()[s].value(row, AttrId(0)) == &Value::str("Bora")
                        })
                        .is_empty()
                })
                .collect();
            for s in &matching {
                assert!(live.contains(s), "{shards} shards: shard {s} holds Bora");
            }
            if shards >= 2 {
                assert!(live.len() < shards.min(r.len()), "{shards} shards prune");
            }
            // An unsatisfiable predicate keeps nothing.
            let unsat =
                CompiledPredicate::compile(&Predicate::eq(AttrId(0), Value::str("Nope")), &r);
            assert!(parts.live_shards(&unsat).is_empty());
            // The trivial predicate keeps every non-empty shard.
            let all = CompiledPredicate::compile(&Predicate::all(), &r);
            let live = parts.live_shards(&all);
            assert_eq!(live.len(), shards.min(r.len()));
        }
    }
}
