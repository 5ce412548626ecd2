//! Code-native predicate compilation, run-skipping scans and the segment
//! group-by kernel.
//!
//! The serving-path scans ([`View::compute`](crate::View), provenance
//! selection, drill-downs) evaluate conjunctive equality predicates. Doing
//! that row-by-row on raw [`Value`]s pays a tag dispatch and (for strings) a
//! pointer chase per row per term. This module compiles the predicate once
//! per scan into dense `u32` comparisons against cached per-attribute code
//! columns:
//!
//! * **Compilation rule** — each `attr = value` term resolves `value`
//!   through the column's [`ValueDict`] exactly once. A value *absent* from
//!   the dictionary cannot match any row, so the term — and therefore the
//!   whole conjunction — selects nothing: the scan short-circuits to an
//!   empty result without touching a single row. Present values become one
//!   `u32` equality test per row against the cached code column. Code
//!   equality is [`Value`] equality (a dictionary maps distinct values to
//!   distinct codes under the same total order), so the compiled kernel is
//!   bit-identical — `==`, not tolerance — to the row-at-a-time `Value`
//!   scan.
//! * **Run skipping** — hierarchy level columns are run-length-ordered in
//!   practice (the encoded backend exploits the same structure through
//!   `level_runs_range`). Each [`CodeColumn`] carries its maximal-run table;
//!   when runs are long enough to pay, the kernel walks runs of the
//!   cheapest constrained column instead of rows: a non-matching run is
//!   skipped whole (one comparison, [`Counter::RunsSkipped`]), and a
//!   matching run under a single-term predicate is accepted in bulk without
//!   testing any of its rows. Only rows that are individually tested count
//!   toward [`Counter::RowsTested`].
//! * **Zone maps** — each [`CodeColumn`] also carries a min/max-code table
//!   over fixed row blocks ([`ZONE_BLOCK_ROWS`]). A contiguous row shard
//!   whose covering blocks cannot contain a term's code is pruned before
//!   dispatch ([`Counter::ShardsPruned`]): the sharded view scan drops the
//!   range from the scatter, and [`RelationShards`](crate::RelationShards)
//!   exposes the same test per row shard. Pruning is conservative (edge
//!   blocks may overhang the shard) and therefore always exact — a pruned
//!   shard provably contains no matching row, and an empty partial merges
//!   as the identity.
//!
//! * **One group-by kernel** — `group_matching_rows` is the loop behind
//!   every view scan: the serial scan, each shard of the pooled /
//!   `Shards(n)` scan and the worker's partial all call it, and nothing else
//!   groups rows. Hierarchy-ordered rows repeat their predecessor's key (a
//!   coarse key holds for hundreds of consecutive rows), so the kernel walks
//!   the matching ranges as *segments* — maximal stretches of consecutive
//!   matching rows with one code in every key column — and hands each to the
//!   caller's `fold(group, first_row, n_rows)`, which pushes measures in a
//!   tight loop. A row that continues a segment costs one `u32` comparison
//!   per key column: no allocation, no table access. A key change costs one
//!   lookup of the code tuple, packed mixed-radix into a `u64` (radices =
//!   the key columns' dictionary sizes); when the product of the radices
//!   overflows `u64` — a property of the input, not a setting — the one
//!   table indexes by the tuple itself instead (`SlotIndex`). The packed key
//!   is measured, not assumed: where every other row changes key, a
//!   tuple-keyed index costs 2–3× the scan. The hash index is transient: a
//!   scan returns plain vectors and drops it.
//! * **Where order is fixed, and why bits hold** — per group, measure values
//!   are folded in ascending row order, exactly as a row-at-a-time scan
//!   would: segments are visited in row order, the serial fold pushes
//!   straight into the group's `AggState`, and shards / workers keep
//!   per-group value lists that the merge replays in fixed shard / worker
//!   order (contiguous ordered ranges, so the concatenation *is* row
//!   order). Hash order reaches no output: groups leave the kernel in
//!   first-appearance order — a function of the rows alone — are addressed
//!   by slot, and are only ever emitted after a sort: by the value-ranks of
//!   their codes when a [`View`](crate::View) is assembled (code order
//!   diverges from value order after out-of-order dictionary appends), by
//!   code tuple when a worker encodes its partial (first appearance depends
//!   on where the partition was cut; code order does not, so reply bytes are
//!   a function of partition and plan).
//!
//! Cached code columns are built lazily per relation snapshot through the
//! stable-code dictionary machinery ([`ValueDict`]), invalidated by in-place
//! mutation, and **patched across streaming ingest**
//! ([`Relation::apply`](crate::ingest)): kept rows keep their codes (the
//! dictionary only ever appends), deleted rows are filtered out, inserted
//! rows extend the dictionary, and the run/zone tables are rebuilt in one
//! linear pass — no re-sort of the surviving rows.

use crate::dict::ValueDict;
use crate::error::RelationalError;
use crate::predicate::Predicate;
use crate::relation::Relation;
use crate::schema::AttrId;
use crate::value::Value;
use crate::Result;
use reptile_obs::{add_counter, Counter};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Rows per zone-map block of a [`CodeColumn`]: small enough to prune
/// meaningfully inside a single shard, large enough that the table stays
/// negligible (two `u32`s per block).
pub const ZONE_BLOCK_ROWS: usize = 1024;

/// Average run length at or above which the kernel drives a scan by the run
/// table instead of a dense row loop. Below it (runs of a few rows) the run
/// walk tests about as many codes as the row loop while touching an extra
/// table, so the dense loop wins.
const RUN_SKIP_MIN_AVG: usize = 4;

/// One attribute's dictionary-encoded column with its scan acceleration
/// tables: the dense code column, the maximal-run table, and the per-block
/// zone map. Immutable once built; `Arc`-shared out of the relation's scan
/// cache so shard workers read it without locks.
#[derive(Debug)]
pub struct CodeColumn {
    dict: ValueDict,
    codes: Vec<u32>,
    /// Start row of each maximal run, with a final sentinel equal to the row
    /// count: run `i` spans `run_starts[i] .. run_starts[i + 1]` and every
    /// row in it carries `codes[run_starts[i]]`.
    run_starts: Vec<usize>,
    /// Per-block `(min, max)` code over [`ZONE_BLOCK_ROWS`]-row blocks.
    zones: Vec<(u32, u32)>,
    /// The column read as a measure: the `f64` of every dictionary code, or
    /// the first row carrying a non-numeric, non-null value. Derived on the
    /// first [`MeasureColumn::resolve`] and kept for the column's lifetime.
    measure: OnceLock<std::result::Result<Arc<[f64]>, usize>>,
}

impl CodeColumn {
    /// Encode `column` through a freshly built dictionary (sorted-rank
    /// codes) and derive the run and zone tables.
    pub fn build(column: &[Value]) -> Self {
        let dict = ValueDict::from_values(column.to_vec());
        let codes = column
            .iter()
            .map(|v| dict.code_of(v).expect("dictionary built over this column"))
            .collect();
        Self::from_parts(dict, codes)
    }

    /// Assemble a column from an existing dictionary and pre-resolved codes
    /// (the ingest patch path), rebuilding the run and zone tables in one
    /// linear pass. Every code must be valid for `dict`.
    pub fn from_parts(dict: ValueDict, codes: Vec<u32>) -> Self {
        let mut run_starts = Vec::new();
        let mut zones = Vec::with_capacity(codes.len().div_ceil(ZONE_BLOCK_ROWS));
        let mut prev: Option<u32> = None;
        for (row, &code) in codes.iter().enumerate() {
            if prev != Some(code) {
                run_starts.push(row);
                prev = Some(code);
            }
            if row % ZONE_BLOCK_ROWS == 0 {
                zones.push((code, code));
            } else {
                let zone = zones.last_mut().expect("block opened above");
                zone.0 = zone.0.min(code);
                zone.1 = zone.1.max(code);
            }
        }
        run_starts.push(codes.len());
        CodeColumn {
            dict,
            codes,
            run_starts,
            zones,
            measure: OnceLock::new(),
        }
    }

    /// The column's dictionary.
    pub fn dict(&self) -> &ValueDict {
        &self.dict
    }

    /// The dense code column, one code per row.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The code at `row`.
    #[inline]
    pub fn code(&self, row: usize) -> u32 {
        self.codes[row]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of maximal runs.
    pub fn run_count(&self) -> usize {
        self.run_starts.len() - 1
    }

    /// Index of the run containing `row`.
    fn run_at(&self, row: usize) -> usize {
        debug_assert!(row < self.codes.len());
        self.run_starts.partition_point(|&s| s <= row) - 1
    }

    /// Whether any row of `[start, start + len)` *may* carry `code`,
    /// according to the block zone map. Conservative: a `true` can be a
    /// false positive (edge blocks overhang the range), a `false` is exact.
    pub fn range_may_contain(&self, code: u32, start: usize, len: usize) -> bool {
        if len == 0 {
            return false;
        }
        let first = start / ZONE_BLOCK_ROWS;
        let last = (start + len - 1) / ZONE_BLOCK_ROWS;
        self.zones[first..=last]
            .iter()
            .any(|&(lo, hi)| lo <= code && code <= hi)
    }

    /// The `f64` of every dictionary code (`Null` and values no row carries
    /// read `0.0`), or the first row whose value is neither numeric nor
    /// null. A dictionary patched across ingest keeps the values of deleted
    /// rows, so only codes still present in the column can be an error.
    fn measure_table(&self) -> std::result::Result<Arc<[f64]>, usize> {
        let mut non_numeric: Option<Vec<bool>> = None;
        let by_code: Arc<[f64]> = self
            .dict
            .iter()
            .map(|(code, value)| {
                value.as_f64().unwrap_or_else(|| {
                    if !value.is_null() {
                        non_numeric.get_or_insert_with(|| vec![false; self.dict.len()])
                            [code as usize] = true;
                    }
                    0.0
                })
            })
            .collect();
        match non_numeric.and_then(|bad| self.codes.iter().position(|&code| bad[code as usize])) {
            Some(row) => Err(row),
            None => Ok(by_code),
        }
    }
}

/// A conjunctive equality predicate compiled against one relation snapshot's
/// cached code columns (see the [module docs](self) for the compilation
/// rule). Compile once per scan; the kernel methods are read-only and safe
/// to call from shard workers.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    /// `(attr, column, target code)` per satisfiable term, ordered by
    /// ascending run count so the cheapest column drives the scan. The
    /// emitted row set is order-independent.
    terms: Vec<(AttrId, Arc<CodeColumn>, u32)>,
    /// Some term's value is absent from its column's dictionary: the
    /// conjunction selects nothing, no row is ever touched.
    unsatisfiable: bool,
}

impl CompiledPredicate {
    /// Resolve every term of `predicate` through `relation`'s cached code
    /// columns (building them on first use).
    pub fn compile(predicate: &Predicate, relation: &Relation) -> Self {
        let mut terms = Vec::with_capacity(predicate.len());
        let mut unsatisfiable = false;
        for (attr, value) in predicate.terms() {
            let column = relation.code_column(*attr);
            match column.dict().code_of(value) {
                Some(code) => terms.push((*attr, column, code)),
                None => unsatisfiable = true,
            }
        }
        terms.sort_by_key(|(_, column, _)| column.run_count());
        CompiledPredicate {
            terms,
            unsatisfiable,
        }
    }

    /// Whether some term's value is absent from its column's dictionary —
    /// the whole conjunction selects nothing and the scan must short-circuit
    /// without touching a row.
    pub fn is_unsatisfiable(&self) -> bool {
        self.unsatisfiable
    }

    /// Whether the predicate compiled to no tests at all (always true).
    pub fn is_trivial(&self) -> bool {
        !self.unsatisfiable && self.terms.is_empty()
    }

    /// The compiled `(attribute, code)` tests, in driving order.
    pub fn term_codes(&self) -> impl Iterator<Item = (AttrId, u32)> + '_ {
        self.terms.iter().map(|(attr, _, code)| (*attr, *code))
    }

    /// Whether any row of the shard `[start, start + len)` may satisfy the
    /// predicate, per the columns' zone maps. `false` is exact (the shard
    /// can be pruned); `true` may be a false positive. Callers count
    /// [`Counter::ShardsPruned`] when they drop a shard on a `false`.
    pub fn zone_may_match(&self, start: usize, len: usize) -> bool {
        if self.unsatisfiable || len == 0 {
            return false;
        }
        self.terms
            .iter()
            .all(|(_, column, code)| column.range_may_contain(*code, start, len))
    }

    /// Visit the matching rows of `[start, start + len)` as disjoint
    /// ascending `(start, len)` row ranges covering exactly the rows every
    /// term accepts — the same set, in the same order, as filtering the
    /// range by [`Predicate::matches`]. Flushes the scan counters once per
    /// call.
    pub fn for_each_matching_range<F: FnMut(usize, usize)>(
        &self,
        start: usize,
        len: usize,
        mut emit: F,
    ) {
        if self.unsatisfiable || len == 0 {
            return;
        }
        if self.terms.is_empty() {
            emit(start, len);
            return;
        }
        let end = start + len;
        let (_, drive, target) = &self.terms[0];
        let rest = &self.terms[1..];
        let mut rows_tested = 0u64;
        let mut runs_skipped = 0u64;
        // Run-skipping pays once runs are long on average; degenerate
        // columns (every run a row or two) fall back to the dense loop.
        if drive.len() >= RUN_SKIP_MIN_AVG * drive.run_count() {
            let mut run = drive.run_at(start);
            let mut lo = start;
            while lo < end {
                let hi = drive.run_starts[run + 1].min(end);
                if drive.codes[lo] != *target {
                    runs_skipped += 1;
                } else if rest.is_empty() {
                    // Single-term predicate: the whole run matches, accept
                    // it in bulk without testing a row.
                    emit(lo, hi - lo);
                } else {
                    rows_tested += (hi - lo) as u64;
                    emit_tested_ranges(rest, lo, hi, &mut emit);
                }
                lo = hi;
                run += 1;
            }
        } else {
            rows_tested += len as u64;
            let mut open: Option<usize> = None;
            for row in start..end {
                let ok = drive.codes[row] == *target
                    && rest.iter().all(|(_, c, code)| c.codes[row] == *code);
                match (ok, open) {
                    (true, None) => open = Some(row),
                    (false, Some(s)) => {
                        emit(s, row - s);
                        open = None;
                    }
                    _ => {}
                }
            }
            if let Some(s) = open {
                emit(s, end - s);
            }
        }
        if rows_tested > 0 {
            add_counter(Counter::RowsTested, rows_tested);
        }
        if runs_skipped > 0 {
            add_counter(Counter::RunsSkipped, runs_skipped);
        }
    }

    /// The matching row indices of `[0, rows)`, ascending — identical to
    /// filtering by [`Predicate::matches`].
    pub fn select_rows(&self, rows: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_matching_range(0, rows, |start, len| out.extend(start..start + len));
        out
    }
}

/// Test `[lo, hi)` rows against the non-driving terms, emitting maximal
/// matching subranges (the driving term already accepted the whole run).
fn emit_tested_ranges<F: FnMut(usize, usize)>(
    rest: &[(AttrId, Arc<CodeColumn>, u32)],
    lo: usize,
    hi: usize,
    emit: &mut F,
) {
    let mut open: Option<usize> = None;
    for row in lo..hi {
        let ok = rest.iter().all(|(_, c, code)| c.codes[row] == *code);
        match (ok, open) {
            (true, None) => open = Some(row),
            (false, Some(s)) => {
                emit(s, row - s);
                open = None;
            }
            _ => {}
        }
    }
    if let Some(s) = open {
        emit(s, hi - s);
    }
}

/// A measure column resolved for aggregation: numeric-ness is validated per
/// *distinct value* — once per [`CodeColumn`], not once per scan — and each
/// row's `f64` is a pair of array reads. A non-numeric, non-null value that
/// some row carries errors up front (no silent per-row `unwrap_or`); one that
/// only lingers in a patched dictionary after its rows were deleted is never
/// read and is not an error. `Null` contributes `0.0`, matching the serial
/// scan's historical behaviour.
#[derive(Debug, Clone)]
pub struct MeasureColumn {
    column: Arc<CodeColumn>,
    /// `f64` per dictionary code, shared with the column's cache.
    by_code: Arc<[f64]>,
}

impl MeasureColumn {
    /// Resolve `measure` of `relation`, erroring up front if any row of the
    /// column is non-numeric and non-null (the error names the first
    /// offending row, like the per-row path did).
    pub fn resolve(relation: &Relation, measure: AttrId) -> Result<Self> {
        let column = relation.code_column(measure);
        match column.measure.get_or_init(|| column.measure_table()) {
            Ok(by_code) => Ok(MeasureColumn {
                by_code: by_code.clone(),
                column,
            }),
            Err(row) => Err(RelationalError::NonNumericMeasure {
                attribute: relation.schema().name(measure).to_string(),
                row: *row,
            }),
        }
    }

    /// The measure value of `row`.
    #[inline]
    pub fn value(&self, row: usize) -> f64 {
        self.by_code[self.column.codes[row] as usize]
    }

    /// The measure values of rows `[start, start + len)`, in row order.
    #[inline]
    pub(crate) fn values(&self, start: usize, len: usize) -> impl Iterator<Item = f64> + '_ {
        self.column.codes[start..start + len]
            .iter()
            .map(|&code| self.by_code[code as usize])
    }
}

/// Groups in **first-appearance order**, each with its code tuple: what the
/// kernel and the merges hand to [`View`](crate::View) assembly and to the
/// worker's encoder. Plain vectors — the hash index that built them is gone.
#[derive(Debug, PartialEq)]
pub(crate) struct Grouped<G> {
    key_len: usize,
    /// Every group's code tuple, slot-major.
    codes: Vec<u32>,
    groups: Vec<G>,
}

impl<G> Grouped<G> {
    /// No groups over `key_len` key columns.
    pub(crate) fn empty(key_len: usize) -> Self {
        Grouped {
            key_len,
            codes: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.groups.len()
    }

    /// The code tuple of the group in `slot`.
    pub(crate) fn codes(&self, slot: usize) -> &[u32] {
        &self.codes[slot * self.key_len..(slot + 1) * self.key_len]
    }

    /// The group in `slot`.
    pub(crate) fn group(&self, slot: usize) -> &G {
        &self.groups[slot]
    }

    /// The slot-major code tuples and the groups, by value.
    pub(crate) fn into_parts(self) -> (Vec<u32>, Vec<G>) {
        (self.codes, self.groups)
    }

    /// Visit every group by value with its code tuple, in slot order.
    pub(crate) fn for_each(self, mut visit: impl FnMut(&[u32], G)) {
        let key_len = self.key_len;
        for (slot, group) in self.groups.into_iter().enumerate() {
            visit(&self.codes[slot * key_len..(slot + 1) * key_len], group);
        }
    }
}

/// How a [`GroupTable`] finds a code tuple's slot. Which one is a property of
/// the key columns, never a setting; nothing iterates either map, so hash
/// order reaches no output.
enum SlotIndex {
    /// The tuple packed mixed-radix into a `u64` (Horner, first column most
    /// significant, radices = the key columns' dictionary sizes): an 8-byte
    /// key held in the bucket, where a tuple key is a heap pointer to chase.
    /// Where every other row changes key that is the cost of the scan
    /// (`wide_deep`, CHANGES PR 20).
    Packed {
        radices: Vec<u64>,
        slots: HashMap<u64, usize>,
    },
    /// The product of the radices overflows `u64`: keyed by the tuple itself.
    Tuple(HashMap<Vec<u32>, usize>),
}

/// The mixed-radix base that packs a tuple of digits below `sizes` into one
/// `u64` — Horner, first column most significant, so packed order is tuple
/// order — or `None` when the product of the sizes overflows `u64`. Both
/// users (the slot index over codes, view assembly over value-ranks) fall
/// back to the tuple itself then.
pub(crate) fn packing_radices(sizes: impl IntoIterator<Item = usize>) -> Option<Vec<u64>> {
    let mut domain = 1u64;
    sizes
        .into_iter()
        .map(|size| {
            let radix = size as u64;
            domain = domain.checked_mul(radix.max(1))?;
            Some(radix)
        })
        .collect()
}

/// `digits` (each below its radix) packed by [`packing_radices`]' rule.
#[inline]
pub(crate) fn pack(digits: impl Iterator<Item = u32>, radices: &[u64]) -> u64 {
    digits
        .zip(radices)
        .fold(0, |acc, (digit, &radix)| acc * radix + u64::from(digit))
}

impl SlotIndex {
    /// The index for key columns with these dictionary sizes.
    fn for_domain(sizes: impl IntoIterator<Item = usize>) -> Self {
        match packing_radices(sizes) {
            Some(radices) => SlotIndex::Packed {
                radices,
                slots: HashMap::new(),
            },
            None => SlotIndex::Tuple(HashMap::new()),
        }
    }

    /// The slot recorded for `codes` (each below its column's radix), or
    /// `next` — now recorded — on first appearance.
    fn slot_or(&mut self, codes: &[u32], next: usize) -> usize {
        match self {
            SlotIndex::Packed { radices, slots } => *slots
                .entry(pack(codes.iter().copied(), radices))
                .or_insert(next),
            SlotIndex::Tuple(slots) => match slots.get(codes) {
                Some(&slot) => slot,
                None => {
                    slots.insert(codes.to_vec(), next);
                    next
                }
            },
        }
    }
}

/// The code-tuple → slot table behind a [`Grouped`]: one hash lookup per
/// *key change*, a fresh slot on first appearance.
pub(crate) struct GroupTable<G> {
    index: SlotIndex,
    grouped: Grouped<G>,
}

impl<G: Default> GroupTable<G> {
    /// An empty table over `key_cols`' code space.
    pub(crate) fn new(key_cols: &[Arc<CodeColumn>]) -> Self {
        GroupTable {
            index: SlotIndex::for_domain(key_cols.iter().map(|c| c.dict().len())),
            grouped: Grouped::empty(key_cols.len()),
        }
    }

    /// The slot of the group keyed `codes`, opened on first appearance.
    fn slot(&mut self, codes: &[u32]) -> usize {
        let next = self.grouped.groups.len();
        let slot = self.index.slot_or(codes, next);
        if slot == next {
            self.grouped.codes.extend_from_slice(codes);
            self.grouped.groups.push(G::default());
        }
        slot
    }

    /// The group keyed `codes` (each below its column's dictionary size),
    /// opened empty on first appearance: the merges' addressing step.
    pub(crate) fn group(&mut self, codes: &[u32]) -> &mut G {
        let slot = self.slot(codes);
        &mut self.grouped.groups[slot]
    }

    /// Drop the index, keep the groups.
    pub(crate) fn finish(self) -> Grouped<G> {
        self.grouped
    }

    /// The group-by kernel proper: walk the rows of `[start, start + len)`
    /// that `compiled` accepts as *segments* — maximal stretches of
    /// consecutive matching rows carrying one code in every key column — and
    /// hand each to `fold(group, first_row, n_rows)`. A row that continues
    /// its predecessor's key costs one code comparison per key column and
    /// nothing else; a key change costs one [`GroupTable::slot`] lookup. No
    /// step allocates per row.
    fn scan(
        &mut self,
        compiled: &CompiledPredicate,
        key_cols: &[Arc<CodeColumn>],
        start: usize,
        len: usize,
        mut fold: impl FnMut(&mut G, usize, usize),
    ) {
        let cols: Vec<&[u32]> = key_cols.iter().map(|c| c.codes()).collect();
        let same_key =
            |key: &[u32], row: usize| cols.iter().zip(key).all(|(col, &code)| col[row] == code);
        // The group the previous segment fed, and its code tuple.
        let mut slot: Option<usize> = None;
        let mut key: Vec<u32> = Vec::with_capacity(cols.len());
        compiled.for_each_matching_range(start, len, |lo, n| {
            let hi = lo + n;
            let mut row = lo;
            while row < hi {
                // Inside a range a new segment is a new key by construction;
                // across a gap of rejected rows the key may carry over.
                let current = match slot {
                    Some(current) if row == lo && same_key(&key, row) => current,
                    _ => {
                        key.clear();
                        key.extend(cols.iter().map(|col| col[row]));
                        *slot.insert(self.slot(&key))
                    }
                };
                let mut end = row + 1;
                while end < hi && same_key(&key, end) {
                    end += 1;
                }
                fold(&mut self.grouped.groups[current], row, end - row);
                row = end;
            }
        });
    }
}

/// Group the rows of `[start, start + len)` that `compiled` accepts by their
/// code tuple over `key_cols` — **the** group-by loop behind every view scan
/// (serial, each pool / `Shards(n)` shard, the worker's partial). See
/// [`GroupTable::scan`] for the per-row cost and the [module docs](self) for
/// why no output depends on hash order.
pub(crate) fn group_matching_rows<G: Default>(
    compiled: &CompiledPredicate,
    key_cols: &[Arc<CodeColumn>],
    start: usize,
    len: usize,
    fold: impl FnMut(&mut G, usize, usize),
) -> Grouped<G> {
    let mut table = GroupTable::new(key_cols);
    table.scan(compiled, key_cols, start, len, fold);
    table.finish()
}

/// One shard's (or worker's) partial group table over `[start, start + len)`:
/// per group, the measure values of its matching rows in row order, so the
/// merge can *replay* the serial accumulation exactly.
pub(crate) fn scan_partial(
    compiled: &CompiledPredicate,
    key_cols: &[Arc<CodeColumn>],
    measure: &MeasureColumn,
    (start, len): (usize, usize),
) -> Grouped<Vec<f64>> {
    group_matching_rows(
        compiled,
        key_cols,
        start,
        len,
        |values: &mut Vec<f64>, first, n| values.extend(measure.values(first, n)),
    )
}

/// The lazily built per-attribute [`CodeColumn`] cache of one relation
/// snapshot. Interior-mutable (scans take `&Relation`); the lock is taken
/// once per column resolution, never per row — kernels run on the `Arc`ed
/// columns. A fresh relation (build, clone, shard) starts cold; in-place
/// mutation resets it; [`Relation::apply`](crate::ingest) seeds the
/// successor's cache by patching instead of rebuilding.
#[derive(Debug, Default)]
pub(crate) struct ScanCache {
    columns: Mutex<Vec<Option<Arc<CodeColumn>>>>,
}

impl ScanCache {
    /// Drop every cached column (after an in-place mutation).
    pub(crate) fn invalidate(&mut self) {
        self.columns.get_mut().expect("scan cache lock").clear();
    }

    /// The cached column at `index`, building it with `build` on first use.
    /// The lock is held across the build so concurrent resolvers of the
    /// same column do the work once.
    pub(crate) fn get_or_build(
        &self,
        index: usize,
        arity: usize,
        build: impl FnOnce() -> CodeColumn,
    ) -> Arc<CodeColumn> {
        let mut columns = self.columns.lock().expect("scan cache lock");
        if columns.len() < arity {
            columns.resize(arity, None);
        }
        columns[index]
            .get_or_insert_with(|| Arc::new(build()))
            .clone()
    }

    /// Install a pre-built column (the ingest patch path).
    pub(crate) fn install(&mut self, index: usize, arity: usize, column: CodeColumn) {
        let columns = self.columns.get_mut().expect("scan cache lock");
        if columns.len() < arity {
            columns.resize(arity, None);
        }
        columns[index] = Some(Arc::new(column));
    }

    /// Snapshot of the cached columns (patch source), `None` where cold.
    pub(crate) fn cached(&self, arity: usize) -> Vec<Option<Arc<CodeColumn>>> {
        let mut columns = self.columns.lock().expect("scan cache lock").clone();
        columns.resize(arity, None);
        columns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use reptile_obs::counter_value;

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

    /// Run-structured relation: districts in long runs, villages in shorter
    /// ones, years alternating (no useful runs).
    fn sample(rows: usize) -> Relation {
        let mut b = Relation::builder(schema());
        for r in 0..rows {
            b = b
                .row([
                    Value::str(format!("d{}", r / 16)),
                    Value::str(format!("v{}", r / 4)),
                    Value::int(1980 + (r % 3) as i64),
                    Value::float(r as f64 * 0.25),
                ])
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn code_column_tables_are_consistent() {
        let r = sample(100);
        let col = r.code_column(AttrId(0));
        assert_eq!(col.len(), 100);
        assert!(!col.is_empty());
        // 100 rows / 16-row district runs -> ceil(100/16) = 7 runs.
        assert_eq!(col.run_count(), 7);
        for row in 0..col.len() {
            let run = col.run_at(row);
            assert!(col.run_starts[run] <= row && row < col.run_starts[run + 1]);
            assert_eq!(
                col.dict().value(col.code(row)),
                r.value(row, AttrId(0)),
                "row {row} decodes back"
            );
        }
        // Zone map: every row's code is inside its block's (min, max).
        for (row, &code) in col.codes().iter().enumerate() {
            assert!(col.range_may_contain(code, row, 1));
        }
        assert!(!col.range_may_contain(u32::MAX, 0, col.len()));
        assert!(
            !col.range_may_contain(0, 10, 0),
            "empty range never matches"
        );
    }

    #[test]
    fn compiled_select_equals_value_filter() {
        let r = sample(230);
        let preds = [
            Predicate::all(),
            Predicate::eq(AttrId(0), Value::str("d3")),
            Predicate::eq(AttrId(0), Value::str("d3")).and_eq(AttrId(2), Value::int(1981)),
            Predicate::eq(AttrId(1), Value::str("v7")).and_eq(AttrId(0), Value::str("d1")),
            Predicate::eq(AttrId(2), Value::int(1982)),
            // contradictory but both values present
            Predicate::eq(AttrId(0), Value::str("d0")).and_eq(AttrId(1), Value::str("v40")),
        ];
        for p in preds {
            let compiled = CompiledPredicate::compile(&p, &r);
            assert!(!compiled.is_unsatisfiable());
            let reference: Vec<usize> = (0..r.len()).filter(|&row| p.matches(&r, row)).collect();
            assert_eq!(compiled.select_rows(r.len()), reference, "{p:?}");
            // Ranges are disjoint, ascending, and cover the same rows.
            let mut last_end = 0usize;
            compiled.for_each_matching_range(0, r.len(), |start, len| {
                assert!(start >= last_end);
                assert!(len > 0);
                last_end = start + len;
            });
        }
    }

    #[test]
    fn absent_value_short_circuits_without_touching_rows() {
        let r = sample(64);
        let p = Predicate::eq(AttrId(0), Value::str("nowhere"));
        let compiled = CompiledPredicate::compile(&p, &r);
        assert!(compiled.is_unsatisfiable());
        assert!(!compiled.is_trivial());
        assert!(!compiled.zone_may_match(0, r.len()));
        let tested_before = counter_value(Counter::RowsTested);
        assert!(compiled.select_rows(r.len()).is_empty());
        // The short-circuit tested no rows at all. (Counters are process
        // global and monotone; an exact-delta assertion would race with
        // concurrent tests, but select_rows on an unsatisfiable predicate
        // returns before its local counters can accumulate anything — the
        // stronger structural guarantee is asserted by the early return
        // above producing zero ranges.)
        assert!(counter_value(Counter::RowsTested) >= tested_before);
        // Conjoining a satisfiable term does not resurrect it.
        let p = p.and_eq(AttrId(2), Value::int(1980));
        assert!(CompiledPredicate::compile(&p, &r).is_unsatisfiable());
    }

    #[test]
    fn run_skipping_and_dense_paths_agree_and_count() {
        let r = sample(4096);
        // Driving column d17 has 16-row runs -> run-skip path; year has
        // 1-row runs -> dense path. Both must agree with the reference.
        let runny = Predicate::eq(AttrId(0), Value::str("d17"));
        let dense = Predicate::eq(AttrId(2), Value::int(1981));
        let skipped_before = counter_value(Counter::RunsSkipped);
        let tested_before = counter_value(Counter::RowsTested);
        for p in [runny, dense] {
            let compiled = CompiledPredicate::compile(&p, &r);
            let reference: Vec<usize> = (0..r.len()).filter(|&row| p.matches(&r, row)).collect();
            assert_eq!(compiled.select_rows(r.len()), reference);
        }
        assert!(
            counter_value(Counter::RunsSkipped) > skipped_before,
            "run-driven scan skipped non-matching runs"
        );
        assert!(
            counter_value(Counter::RowsTested) > tested_before,
            "dense scan tested rows"
        );
    }

    #[test]
    fn multi_term_run_scan_tests_only_matching_runs() {
        let r = sample(1024);
        // district runs drive; village/year are tested per row within
        // matching runs only.
        let p = Predicate::eq(AttrId(0), Value::str("d5")).and_eq(AttrId(2), Value::int(1980));
        let compiled = CompiledPredicate::compile(&p, &r);
        let reference: Vec<usize> = (0..r.len()).filter(|&row| p.matches(&r, row)).collect();
        assert!(!reference.is_empty());
        assert_eq!(compiled.select_rows(r.len()), reference);
        // Sub-range scans agree with sub-range filters (the sharded case).
        for (start, len) in [(0usize, 100usize), (77, 333), (1000, 24), (500, 0)] {
            let sub: Vec<usize> = (start..start + len)
                .filter(|&row| p.matches(&r, row))
                .collect();
            let mut got = Vec::new();
            compiled.for_each_matching_range(start, len, |s, l| got.extend(s..s + l));
            assert_eq!(got, sub, "range [{start}, {start}+{len})");
        }
    }

    #[test]
    fn zone_maps_prune_impossible_shards() {
        let r = sample(8192);
        // d0 occupies rows 0..16 only; the trailing blocks cannot contain it.
        let p = Predicate::eq(AttrId(0), Value::str("d0"));
        let compiled = CompiledPredicate::compile(&p, &r);
        assert!(compiled.zone_may_match(0, 2048));
        assert!(!compiled.zone_may_match(4096, 4096), "late shard prunable");
        // Pruning never loses a matching row: any shard containing one of
        // the reference rows must stay live.
        let reference: Vec<usize> = (0..r.len()).filter(|&row| p.matches(&r, row)).collect();
        for (start, len) in [(0usize, 1024usize), (1024, 1024), (2048, 4096)] {
            if reference
                .iter()
                .any(|&row| start <= row && row < start + len)
            {
                assert!(compiled.zone_may_match(start, len));
            }
        }
    }

    #[test]
    fn measure_column_resolves_and_errors_up_front() {
        let r = sample(50);
        let m = MeasureColumn::resolve(&r, AttrId(3)).unwrap();
        for row in 0..r.len() {
            assert_eq!(
                m.value(row),
                r.numeric(row, AttrId(3)).unwrap().unwrap_or(0.0)
            );
        }
        // Null measures contribute 0.0; a stray string errors up front with
        // the offending row, even when no scan would visit it.
        let mut bad = r.clone();
        bad.set_value(7, AttrId(3), Value::Null);
        let m = MeasureColumn::resolve(&bad, AttrId(3)).unwrap();
        assert_eq!(m.value(7), 0.0);
        bad.set_value(13, AttrId(3), Value::str("oops"));
        match MeasureColumn::resolve(&bad, AttrId(3)) {
            Err(RelationalError::NonNumericMeasure { attribute, row }) => {
                assert_eq!(attribute, "severity");
                assert_eq!(row, 13);
            }
            other => panic!("expected NonNumericMeasure, got {other:?}"),
        }
    }

    #[test]
    fn vanished_non_numeric_measure_is_not_an_error() {
        use crate::ingest::IngestBatch;
        let r = sample(40);
        let m = AttrId(3);
        let _ = r.code_column(m); // warm, so `apply` patches the dictionary
        let stray = [
            Value::str("d0"),
            Value::str("v0"),
            Value::int(1980),
            Value::str("oops"),
        ];
        let dirty = r.apply(&IngestBatch::new().insert(stray.clone())).unwrap();
        assert!(matches!(
            MeasureColumn::resolve(&dirty, m),
            Err(RelationalError::NonNumericMeasure { row: 40, .. })
        ));
        // Deleting the row leaves "oops" in the patched dictionary with no
        // row carrying it: resolving must succeed (it used to panic) and
        // read exactly what a cold rebuild of the same snapshot reads.
        let clean = dirty.apply(&IngestBatch::new().delete(stray)).unwrap();
        assert!(clean
            .code_column(m)
            .dict()
            .code_of(&Value::str("oops"))
            .is_some());
        let patched = MeasureColumn::resolve(&clean, m).unwrap();
        let cold = MeasureColumn::resolve(&clean.clone(), m).unwrap();
        assert_eq!(clean.len(), 40);
        for row in 0..clean.len() {
            assert_eq!(patched.value(row).to_bits(), cold.value(row).to_bits());
        }
    }

    /// Row-at-a-time `Value`-keyed oracle of the kernel: per group (in
    /// first-appearance order) the key values and the matching rows in row
    /// order.
    fn oracle(
        r: &Relation,
        p: &Predicate,
        group_by: &[AttrId],
        (start, len): (usize, usize),
    ) -> Vec<(Vec<Value>, Vec<usize>)> {
        let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
        for row in (start..start + len).filter(|&row| p.matches(r, row)) {
            let key: Vec<Value> = group_by.iter().map(|a| r.value(row, *a).clone()).collect();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, rows)) => rows.push(row),
                None => groups.push((key, vec![row])),
            }
        }
        groups
    }

    fn kernel_cases(r: &Relation) -> Vec<(Predicate, Vec<AttrId>, (usize, usize))> {
        let preds = [
            Predicate::all(),
            Predicate::eq(AttrId(0), Value::str("d3")),
            Predicate::eq(AttrId(2), Value::int(1981)),
            Predicate::eq(AttrId(0), Value::str("d2")).and_eq(AttrId(2), Value::int(1980)),
            Predicate::eq(AttrId(0), Value::str("d0")).and_eq(AttrId(1), Value::str("v40")),
        ];
        let group_bys: [&[AttrId]; 5] = [
            &[AttrId(0)],
            &[AttrId(0), AttrId(1)],
            &[AttrId(2)],
            &[AttrId(1), AttrId(2), AttrId(0)],
            &[],
        ];
        let ranges = [(0, r.len()), (5, 100), (77, 0), (r.len() - 9, 9)];
        let mut cases = Vec::new();
        for p in &preds {
            for gb in group_bys {
                for range in ranges {
                    cases.push((p.clone(), gb.to_vec(), range));
                }
            }
        }
        cases
    }

    #[test]
    fn kernel_groups_equal_the_row_at_a_time_oracle() {
        let r = sample(230);
        for (p, group_by, (start, len)) in kernel_cases(&r) {
            let compiled = CompiledPredicate::compile(&p, &r);
            let key_cols: Vec<Arc<CodeColumn>> =
                group_by.iter().map(|a| r.code_column(*a)).collect();
            let mut segments = 0usize;
            let got = group_matching_rows(
                &compiled,
                &key_cols,
                start,
                len,
                |rows: &mut Vec<usize>, first, n| {
                    assert!(n > 0);
                    segments += 1;
                    rows.extend(first..first + n);
                },
            );
            let want = oracle(&r, &p, &group_by, (start, len));
            let label = format!("{p:?} by {group_by:?} over {start}+{len}");
            assert_eq!(got.len(), want.len(), "{label}");
            for (slot, (key, rows)) in want.iter().enumerate() {
                let decoded: Vec<Value> = got
                    .codes(slot)
                    .iter()
                    .zip(&key_cols)
                    .map(|(code, col)| col.dict().value(*code).clone())
                    .collect();
                assert_eq!(&decoded, key, "{label}: first-appearance order");
                assert_eq!(got.group(slot), rows, "{label}: rows of {key:?}");
            }
            // A segment is a maximal stretch of consecutive matching rows
            // with one key: the oracle's rows, cut where a row is skipped or
            // the key changes.
            let mut all: Vec<(usize, usize)> = want
                .iter()
                .enumerate()
                .flat_map(|(slot, (_, rows))| rows.iter().map(move |&row| (row, slot)))
                .collect();
            all.sort_unstable();
            let expect_segments = all
                .iter()
                .enumerate()
                .filter(|&(i, &(row, slot))| i == 0 || all[i - 1] != (row - 1, slot))
                .count();
            assert_eq!(segments, expect_segments, "{label}: segment count");
        }
    }

    #[test]
    fn tuple_indexed_kernel_equals_packed_kernel() {
        // The index a `u64`-overflowing key domain selects, forced on an
        // input that also packs: both must build the same table.
        let r = sample(230);
        for (p, group_by, (start, len)) in kernel_cases(&r) {
            let compiled = CompiledPredicate::compile(&p, &r);
            let key_cols: Vec<Arc<CodeColumn>> =
                group_by.iter().map(|a| r.code_column(*a)).collect();
            let measure = MeasureColumn::resolve(&r, AttrId(3)).unwrap();
            let mut packed = GroupTable::<Vec<f64>>::new(&key_cols);
            assert!(matches!(packed.index, SlotIndex::Packed { .. }));
            let mut tuple = GroupTable::<Vec<f64>>::new(&key_cols);
            tuple.index = SlotIndex::Tuple(HashMap::new());
            for table in [&mut packed, &mut tuple] {
                table.scan(&compiled, &key_cols, start, len, |values, first, n| {
                    values.extend(measure.values(first, n));
                });
            }
            assert_eq!(packed.grouped, tuple.grouped, "{p:?} by {group_by:?}");
            assert_eq!(
                packed.grouped,
                scan_partial(&compiled, &key_cols, &measure, (start, len))
            );
        }
    }

    #[test]
    fn slot_index_is_chosen_by_the_key_domain() {
        let packs = |sizes: &[usize]| {
            matches!(
                SlotIndex::for_domain(sizes.iter().copied()),
                SlotIndex::Packed { .. }
            )
        };
        assert!(packs(&[]));
        assert!(packs(&[6, 12, 3]));
        // An empty dictionary (no rows) neither overflows nor divides.
        assert!(packs(&[0, 7]));
        let big = u32::MAX as usize;
        assert!(packs(&[big, big]));
        assert!(!packs(&[big, big, 2]), "2^65 - 2^34 + 2");
        assert!(!packs(&[big, big, big]));
        // Packing is injective: every tuple of the domain opens its own
        // slot, and finds it again.
        let mut index = SlotIndex::for_domain([3, 5, 2]);
        let tuples: Vec<[u32; 3]> = (0..30).map(|i| [i / 10, i / 2 % 5, i % 2]).collect();
        for (next, tuple) in tuples.iter().enumerate() {
            assert_eq!(index.slot_or(tuple, next), next);
        }
        for (slot, tuple) in tuples.iter().enumerate() {
            assert_eq!(index.slot_or(tuple, usize::MAX), slot);
        }
    }

    #[test]
    fn cache_invalidation_on_mutation() {
        let mut r = sample(32);
        let before = r.code_column(AttrId(0));
        assert_eq!(before.dict().len(), 2);
        r.set_value(0, AttrId(0), Value::str("dX"));
        let after = r.code_column(AttrId(0));
        assert!(after.dict().code_of(&Value::str("dX")).is_some());
        assert!(before.dict().code_of(&Value::str("dX")).is_none());
        // push_row and extend_from invalidate too.
        r.push_row(r.row(0)).unwrap();
        assert_eq!(r.code_column(AttrId(0)).len(), 33);
        let other = sample(8);
        r.extend_from(&other).unwrap();
        assert_eq!(r.code_column(AttrId(0)).len(), 41);
        // Clones start cold and see their own data.
        let clone = r.clone();
        assert_eq!(clone.code_column(AttrId(0)).len(), r.len());
    }

    #[test]
    fn empty_relation_scans() {
        let r = Relation::empty(schema());
        let col = r.code_column(AttrId(0));
        assert!(col.is_empty());
        assert_eq!(col.run_count(), 0);
        let p = Predicate::eq(AttrId(0), Value::str("d0"));
        let compiled = CompiledPredicate::compile(&p, &r);
        assert!(compiled.is_unsatisfiable(), "empty dictionary has no codes");
        assert!(compiled.select_rows(0).is_empty());
        let trivial = CompiledPredicate::compile(&Predicate::all(), &r);
        assert!(trivial.is_trivial());
        assert!(trivial.select_rows(0).is_empty());
    }
}
