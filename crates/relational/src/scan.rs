//! Code-native predicate compilation, run-skipping scans and the segment
//! group-by kernel.
//!
//! The serving-path scans ([`View::compute`](crate::View), provenance
//! selection, drill-downs) evaluate conjunctive equality predicates. Doing
//! that row-by-row on raw [`Value`]s pays a tag dispatch and (for strings) a
//! pointer chase per row per term. This module compiles the predicate once
//! per scan into dense `u32` comparisons against the relation's
//! per-attribute code columns:
//!
//! * **Compilation rule** — each `attr = value` term resolves `value`
//!   through the column's [`ValueDict`] exactly once. A value *absent* from
//!   the dictionary cannot match any row, so the term — and therefore the
//!   whole conjunction — selects nothing: the scan short-circuits to an
//!   empty result without touching a single row. Present values become one
//!   `u32` equality test per row against the code column. Code equality is
//!   [`Value`] equality (a dictionary maps distinct values to distinct
//!   codes), so the compiled kernel is bit-identical — `==`, not tolerance —
//!   to the row-at-a-time `Value` scan.
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
//!   slot lookup (`SlotIndex`). A strict hierarchy is a chain of functional
//!   dependencies (a village has one district), so the deepest grouped
//!   level of each hierarchy, with every key column outside a hierarchy,
//!   names a group: the *dense* arm addresses an array by those columns'
//!   codes, mixed-radix, and verifies the hit against the stored tuple. The
//!   array is paged, so memory follows the groups a scan touches. A
//!   mismatch proves the data is not strict, and the table demotes to the
//!   hashed arm mid-scan ([`Counter::DenseDemotions`]), re-inserting its
//!   open slots so nothing observable changes. The hashed arm packs the
//!   whole tuple mixed-radix into a `u64` key (radices = the key columns'
//!   dictionary sizes), or keys by the tuple itself when that product
//!   overflows `u64`. Which arm runs is a property of the input, never a
//!   setting: dense when the addressed domain is at most twice the scanned
//!   rows. Both were measured: where every row changes key (`wide_deep`'s
//!   parallel view, 85,800 groups, a 2-core host) the dense arm groups in
//!   ≈ 11 ms against ≈ 33 ms hashed, and a tuple key costs 2–3× a packed
//!   one. The index is transient: a scan returns plain vectors and drops it.
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
//! The code columns are the relation itself: a [`Relation`] stores one
//! `Arc<CodeColumn>` per attribute and no other copy of its cells, so the
//! kernels read a snapshot's columns without a lock or a build step.
//! Building a relation encodes each cell on arrival (first-appearance codes),
//! in-place mutation re-derives the run and zone tables on the next scan,
//! and [`Relation::apply`](crate::ingest) carries them across an ingest: kept
//! rows keep their codes (a dictionary only ever appends), and the tables are
//! copied up to the first changed row and rescanned from there.

use crate::dict::{code_or_append, ValueDict};
use crate::error::RelationalError;
use crate::predicate::Predicate;
use crate::relation::Relation;
use crate::schema::{AttrId, Schema};
use crate::value::Value;
use crate::Result;
use reptile_obs::{add_counter, Counter};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

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
/// zone map. A [`Relation`] is one `Arc<CodeColumn>` per attribute: shard
/// workers read the columns without locks, and snapshots share every column
/// (and dictionary) they did not change.
#[derive(Debug, Clone)]
pub struct CodeColumn {
    dict: Arc<ValueDict>,
    codes: Vec<u32>,
    /// The run and zone tables, derived on first use after the codes last
    /// changed in place, or carried across an ingest.
    tables: OnceLock<ScanTables>,
    /// The column read as a measure: the `f64` of every dictionary code, or
    /// the first row carrying a non-numeric, non-null value. Derived on the
    /// first [`MeasureColumn::resolve`] after the codes last changed.
    measure: OnceLock<std::result::Result<Arc<[f64]>, usize>>,
}

/// The derived scan tables of a [`CodeColumn`] (see
/// [`CodeColumn::run_starts`] and [`CodeColumn::zones`]).
#[derive(Debug, Clone)]
struct ScanTables {
    run_starts: Vec<usize>,
    zones: Vec<(u32, u32)>,
}

impl ScanTables {
    /// The tables of `codes` in linear passes. With `reuse = (prior, from)`
    /// the rows before `from` carry the codes `prior` was derived over, so
    /// `prior`'s entries are copied up to the block holding `from` and only
    /// the rows from that block on are scanned.
    fn derive(codes: &[u32], reuse: Option<(&ScanTables, usize)>) -> Self {
        let (mut run_starts, mut zones, from) = match reuse {
            Some((prior, from)) => {
                let block = from / ZONE_BLOCK_ROWS;
                let from = block * ZONE_BLOCK_ROWS;
                let runs = prior.run_starts.partition_point(|&start| start < from);
                (
                    prior.run_starts[..runs].to_vec(),
                    prior.zones[..block].to_vec(),
                    from,
                )
            }
            None => (Vec::new(), Vec::new(), 0),
        };
        let run_start = |&row: &usize| row == 0 || codes[row] != codes[row - 1];
        run_starts.extend((from..codes.len()).filter(run_start));
        run_starts.push(codes.len());
        zones.extend(codes[from..].chunks(ZONE_BLOCK_ROWS).map(|block| {
            let lo = block.iter().fold(u32::MAX, |lo, &code| lo.min(code));
            (lo, block.iter().fold(lo, |hi, &code| hi.max(code)))
        }));
        ScanTables { run_starts, zones }
    }
}

impl CodeColumn {
    /// Assemble a column from a dictionary and codes valid for it; the run
    /// and zone tables are derived on first use.
    pub fn from_parts(dict: impl Into<Arc<ValueDict>>, codes: Vec<u32>) -> Self {
        CodeColumn {
            dict: dict.into(),
            codes,
            tables: OnceLock::new(),
            measure: OnceLock::new(),
        }
    }

    /// The column of the next snapshot across an ingest: `codes` (valid for
    /// `dict`, an extension of this column's dictionary) agree with this
    /// column's on every row before `first_changed`, so derived tables are
    /// copied up to there and rescanned only from there on.
    pub(crate) fn successor(
        &self,
        dict: Arc<ValueDict>,
        codes: Vec<u32>,
        first_changed: usize,
    ) -> Self {
        let next = Self::from_parts(dict, codes);
        if let Some(prior) = self.tables.get() {
            let _ = next.tables.set(ScanTables::derive(
                &next.codes,
                Some((prior, first_changed)),
            ));
        }
        next
    }

    /// Write `value` at `row` (`row == len()` appends), extending the
    /// dictionary if unseen; the derived tables are re-derived on next use.
    pub(crate) fn write(&mut self, row: usize, value: &Value) {
        let code = code_or_append(&mut self.dict, value);
        if row == self.codes.len() {
            self.codes.push(code);
        } else {
            self.codes[row] = code;
        }
        self.tables.take();
        self.measure.take();
    }

    fn tables(&self) -> &ScanTables {
        self.tables
            .get_or_init(|| ScanTables::derive(&self.codes, None))
    }

    /// The column's dictionary, `Arc`-shared with the other snapshots and
    /// shards that carry it.
    pub fn dict(&self) -> &Arc<ValueDict> {
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

    /// Start row of each maximal run, with a final sentinel equal to the
    /// row count: run `i` spans `run_starts()[i] .. run_starts()[i + 1]`.
    pub fn run_starts(&self) -> &[usize] {
        &self.tables().run_starts
    }

    /// The zone map: `(min, max)` code of each [`ZONE_BLOCK_ROWS`]-row block.
    pub fn zones(&self) -> &[(u32, u32)] {
        &self.tables().zones
    }

    /// Number of maximal runs.
    pub fn run_count(&self) -> usize {
        self.run_starts().len() - 1
    }

    /// Index of the run containing `row`.
    fn run_at(&self, row: usize) -> usize {
        debug_assert!(row < self.codes.len());
        self.run_starts().partition_point(|&s| s <= row) - 1
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
        self.zones()[first..=last]
            .iter()
            .any(|&(lo, hi)| lo <= code && code <= hi)
    }

    /// The `f64` of every dictionary code (`Null` and values no row carries
    /// read `0.0`), or the first row whose value is neither numeric nor
    /// null. A dictionary keeps the values of deleted rows, so only codes
    /// still present in the column can be an error.
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
/// code columns (see the [module docs](self) for the compilation
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
    /// Resolve every term of `predicate` through `relation`'s code columns.
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
            let run_starts = drive.run_starts();
            let mut run = drive.run_at(start);
            let mut lo = start;
            while lo < end {
                let hi = run_starts[run + 1].min(end);
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

    /// Whether `row` satisfies every term — [`Predicate::matches`] on codes.
    pub(crate) fn matches_row(&self, row: usize) -> bool {
        !self.unsatisfiable
            && self
                .terms
                .iter()
                .all(|(_, column, code)| column.codes[row] == *code)
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
/// only lingers in a dictionary after its rows were deleted is never read
/// and is not an error. `Null` contributes `0.0`, matching the serial
/// scan's historical behaviour.
#[derive(Debug, Clone)]
pub struct MeasureColumn {
    column: Arc<CodeColumn>,
    /// `f64` per dictionary code, derived once per column.
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

    /// Groups over `key_len` key columns from their slot-major code tuples.
    pub(crate) fn from_parts(key_len: usize, codes: Vec<u32>, groups: Vec<G>) -> Self {
        debug_assert_eq!(codes.len(), key_len * groups.len());
        Grouped {
            key_len,
            codes,
            groups,
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

/// The key columns of one group-by and which of them address the dense slot
/// table: the deepest grouped level of each hierarchy, and every key column
/// outside a hierarchy. On strict data the addressing columns determine the
/// rest of the key (a page names its agent, access and language), so their
/// codes alone name a group. Which columns address is a function of the
/// schema and the group-by list; the coordinator and a worker derive it the
/// same way.
pub(crate) struct GroupKeys {
    cols: Vec<Arc<CodeColumn>>,
    addressing: Vec<bool>,
}

impl GroupKeys {
    /// The code columns of `group_by` in `relation`, with their addressing
    /// mask.
    pub(crate) fn resolve(relation: &Relation, group_by: &[AttrId]) -> Self {
        GroupKeys {
            cols: group_by.iter().map(|a| relation.code_column(*a)).collect(),
            addressing: addressing_mask(relation.schema(), group_by),
        }
    }

    /// The key columns, in group-by order.
    pub(crate) fn cols(&self) -> &[Arc<CodeColumn>] {
        &self.cols
    }

    /// The key columns, by value.
    pub(crate) fn into_cols(self) -> Vec<Arc<CodeColumn>> {
        self.cols
    }
}

/// Per `group_by` position: whether it addresses the dense slot table (see
/// [`GroupKeys`]). A level is shadowed by a deeper grouped level of its own
/// hierarchy; an attribute in no hierarchy always addresses.
pub(crate) fn addressing_mask(schema: &Schema, group_by: &[AttrId]) -> Vec<bool> {
    group_by
        .iter()
        .map(|&attr| match schema.hierarchy_of(attr) {
            None => true,
            Some(h) => {
                let depth = h.position(attr);
                group_by.iter().all(|&other| h.position(other) <= depth)
            }
        })
        .collect()
}

/// Addresses per page of a [`DenseSlots`] directory: a page is allocated the
/// first time a scan touches one of its addresses.
const PAGE_SLOTS: usize = 1024;

/// An unallocated page, or an address no group has opened.
const NO_SLOT: u32 = u32::MAX;

/// The dense arm of a [`SlotIndex`]: slot ids addressed by the mixed-radix
/// code of the addressing columns (Horner, first addressing column most
/// significant, radices = their dictionary sizes), through a directory of
/// [`PAGE_SLOTS`]-address pages.
struct DenseSlots {
    /// `(key position, radix)` of each addressing column.
    digits: Vec<(usize, usize)>,
    /// Per page of addresses: its index among the allocated pages, or
    /// [`NO_SLOT`].
    directory: Vec<u32>,
    /// The allocated pages back to back: a slot id, or [`NO_SLOT`].
    pages: Vec<u32>,
    /// Every key column's dictionary size: the hashed arm's, on demotion.
    sizes: Vec<usize>,
}

impl DenseSlots {
    /// The dense arm over key columns of dictionary sizes `sizes`, addressed
    /// by the `addressing` ones, or `None` when the addressed domain
    /// overflows or its slot ids would not fit a `u32`.
    fn new(sizes: &[usize], addressing: &[bool]) -> Option<Self> {
        let digits: Vec<(usize, usize)> = sizes
            .iter()
            .zip(addressing)
            .enumerate()
            .filter(|(_, (_, &addresses))| addresses)
            .map(|(col, (&size, _))| (col, size))
            .collect();
        let domain = digits
            .iter()
            .try_fold(1usize, |domain, &(_, radix)| domain.checked_mul(radix))
            .filter(|&domain| domain <= NO_SLOT as usize)?;
        Some(DenseSlots {
            digits,
            directory: vec![NO_SLOT; domain.div_ceil(PAGE_SLOTS)],
            pages: Vec::new(),
            sizes: sizes.to_vec(),
        })
    }

    /// Number of addresses.
    fn domain(&self) -> usize {
        self.digits.iter().map(|&(_, radix)| radix).product()
    }

    /// The cell of `codes`' address (each code below its column's radix),
    /// allocating its page on first touch.
    #[inline]
    fn cell(&mut self, codes: &[u32]) -> &mut u32 {
        let address = self
            .digits
            .iter()
            .fold(0, |acc, &(col, radix)| acc * radix + codes[col] as usize);
        let mut page = self.directory[address / PAGE_SLOTS];
        if page == NO_SLOT {
            page = self.allocate(address / PAGE_SLOTS);
        }
        &mut self.pages[page as usize * PAGE_SLOTS + address % PAGE_SLOTS]
    }

    /// Allocate the page of directory entry `entry`, every cell unopened.
    #[cold]
    #[inline(never)]
    fn allocate(&mut self, entry: usize) -> u32 {
        let page = (self.pages.len() / PAGE_SLOTS) as u32;
        self.pages.resize(self.pages.len() + PAGE_SLOTS, NO_SLOT);
        self.directory[entry] = page;
        page
    }
}

/// How a [`GroupTable`] finds a code tuple's slot. Which arm is a property
/// of the input, never a setting; nothing iterates an index, so neither
/// address nor hash order reaches an output.
enum SlotIndex {
    /// Addressed by the addressing columns, verified against the stored
    /// tuple on every hit (see [`DenseSlots`]).
    Dense(DenseSlots),
    /// Keyed by the whole tuple.
    Hashed(HashedSlots),
}

/// The hashed arm of a [`SlotIndex`]: std `HashMap`s keyed by the tuple.
enum HashedSlots {
    /// The tuple packed mixed-radix into a `u64` (Horner, first column most
    /// significant, radices = the key columns' dictionary sizes): an 8-byte
    /// key held in the bucket, where a tuple key is a heap pointer to chase.
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
/// users (the hashed slot index over codes, view assembly over value-ranks)
/// fall back to the tuple itself then.
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
    /// The index for key columns of dictionary sizes `sizes` over `rows`
    /// scanned rows: dense when the domain of the `addressing` columns is at
    /// most twice the rows (and its slot ids fit a `u32`), hashed otherwise.
    fn choose(sizes: &[usize], addressing: &[bool], rows: usize) -> Self {
        match DenseSlots::new(sizes, addressing) {
            Some(dense) if dense.domain() <= rows.saturating_mul(2) => SlotIndex::Dense(dense),
            _ => SlotIndex::Hashed(HashedSlots::new(sizes.iter().copied())),
        }
    }
}

impl HashedSlots {
    /// The hashed index for key columns with these dictionary sizes.
    fn new(sizes: impl IntoIterator<Item = usize>) -> Self {
        match packing_radices(sizes) {
            Some(radices) => HashedSlots::Packed {
                radices,
                slots: HashMap::new(),
            },
            None => HashedSlots::Tuple(HashMap::new()),
        }
    }

    /// The slot recorded for `codes` (each below its column's radix), or
    /// `next` — now recorded — on first appearance.
    fn slot_or(&mut self, codes: &[u32], next: usize) -> usize {
        match self {
            HashedSlots::Packed { radices, slots } => *slots
                .entry(pack(codes.iter().copied(), radices))
                .or_insert(next),
            HashedSlots::Tuple(slots) => match slots.get(codes) {
                Some(&slot) => slot,
                None => {
                    slots.insert(codes.to_vec(), next);
                    next
                }
            },
        }
    }
}

/// The code-tuple → slot table behind a [`Grouped`]: one [`SlotIndex`]
/// lookup per *key change*, a fresh slot on first appearance.
pub(crate) struct GroupTable<G> {
    index: SlotIndex,
    grouped: Grouped<G>,
}

impl<G: Default> GroupTable<G> {
    /// An empty table over `keys`' code space, for a scan (or a merge of
    /// partials) over `rows` rows.
    pub(crate) fn new(keys: &GroupKeys, rows: usize) -> Self {
        let sizes: Vec<usize> = keys.cols.iter().map(|c| c.dict().len()).collect();
        GroupTable {
            index: SlotIndex::choose(&sizes, &keys.addressing, rows),
            grouped: Grouped::empty(keys.cols.len()),
        }
    }

    /// The slot of the group keyed `codes` (each below its column's
    /// dictionary size), opened on first appearance. A dense hit is
    /// verified against the stored tuple; a mismatch proves two groups
    /// share an address, and the table demotes to the hashed arm.
    #[inline]
    fn slot(&mut self, codes: &[u32]) -> usize {
        let next = self.grouped.groups.len();
        let slot = match &mut self.index {
            SlotIndex::Dense(dense) => {
                let cell = dense.cell(codes);
                if *cell == NO_SLOT {
                    // `next` < the domain ≤ `NO_SLOT`: each slot owns an
                    // address.
                    *cell = next as u32;
                    next
                } else if self.grouped.codes(*cell as usize) == codes {
                    return *cell as usize;
                } else {
                    let sizes = std::mem::take(&mut dense.sizes);
                    self.demote(sizes, codes, next)
                }
            }
            SlotIndex::Hashed(hashed) => hashed.slot_or(codes, next),
        };
        if slot == next {
            self.grouped.codes.extend_from_slice(codes);
            self.grouped.groups.push(G::default());
        }
        slot
    }

    /// Replace the dense arm by the hashed one over key columns of
    /// dictionary sizes `sizes`, re-inserting every open slot so that slots
    /// — and first-appearance order — carry over unchanged, and look `codes`
    /// up in it.
    #[cold]
    fn demote(&mut self, sizes: Vec<usize>, codes: &[u32], next: usize) -> usize {
        let mut hashed = HashedSlots::new(sizes);
        for slot in 0..self.grouped.len() {
            hashed.slot_or(self.grouped.codes(slot), slot);
        }
        add_counter(Counter::DenseDemotions, 1);
        let slot = hashed.slot_or(codes, next);
        self.index = SlotIndex::Hashed(hashed);
        slot
    }

    /// The group keyed `codes` (each below its column's dictionary size),
    /// opened empty on first appearance: the merges' addressing step.
    pub(crate) fn group(&mut self, codes: &[u32]) -> &mut G {
        let slot = self.slot(codes);
        &mut self.grouped.groups[slot]
    }

    /// Whether the table is in its dense arm.
    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self.index, SlotIndex::Dense(_))
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
/// code tuple over `keys` — **the** group-by loop behind every view scan
/// (serial, each pool / `Shards(n)` shard, the worker's partial). See
/// [`GroupTable::scan`] for the per-row cost and the [module docs](self) for
/// why no output depends on the index.
pub(crate) fn group_matching_rows<G: Default>(
    compiled: &CompiledPredicate,
    keys: &GroupKeys,
    start: usize,
    len: usize,
    fold: impl FnMut(&mut G, usize, usize),
) -> Grouped<G> {
    let mut table = GroupTable::new(keys, len);
    table.scan(compiled, &keys.cols, start, len, fold);
    table.finish()
}

/// One shard's (or worker's) partial group table over `[start, start + len)`:
/// per group, the measure values of its matching rows in row order, so the
/// merge can *replay* the serial accumulation exactly.
pub(crate) fn scan_partial(
    compiled: &CompiledPredicate,
    keys: &GroupKeys,
    measure: &MeasureColumn,
    (start, len): (usize, usize),
) -> Grouped<Vec<f64>> {
    group_matching_rows(
        compiled,
        keys,
        start,
        len,
        |values: &mut Vec<f64>, first, n| values.extend(measure.values(first, n)),
    )
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
            assert!(col.run_starts()[run] <= row && row < col.run_starts()[run + 1]);
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

    /// Assert `got` (each group's rows) is the oracle's table: the same
    /// groups in the same first-appearance order, with the same rows.
    fn assert_grouped_equals_oracle(
        got: &Grouped<Vec<usize>>,
        key_cols: &[Arc<CodeColumn>],
        want: &[(Vec<Value>, Vec<usize>)],
        label: &str,
    ) {
        assert_eq!(got.len(), want.len(), "{label}");
        for (slot, (key, rows)) in want.iter().enumerate() {
            let decoded: Vec<Value> = got
                .codes(slot)
                .iter()
                .zip(key_cols)
                .map(|(code, col)| col.dict().value(*code).clone())
                .collect();
            assert_eq!(&decoded, key, "{label}: first-appearance order");
            assert_eq!(got.group(slot), rows, "{label}: rows of {key:?}");
        }
    }

    #[test]
    fn kernel_groups_equal_the_row_at_a_time_oracle() {
        let r = sample(230);
        for (p, group_by, (start, len)) in kernel_cases(&r) {
            let compiled = CompiledPredicate::compile(&p, &r);
            let keys = GroupKeys::resolve(&r, &group_by);
            let mut segments = 0usize;
            let got = group_matching_rows(
                &compiled,
                &keys,
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
            assert_grouped_equals_oracle(&got, keys.cols(), &want, &label);
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

    /// The three slot arms, each forced on `keys` whatever the rule would
    /// choose for the scanned rows.
    fn forced_arms(keys: &GroupKeys) -> [GroupTable<Vec<usize>>; 3] {
        let sizes: Vec<usize> = keys.cols().iter().map(|c| c.dict().len()).collect();
        let dense = DenseSlots::new(&sizes, &keys.addressing).expect("a small domain");
        let packed = HashedSlots::new(sizes.iter().copied());
        assert!(matches!(packed, HashedSlots::Packed { .. }));
        let arms = [
            SlotIndex::Dense(dense),
            SlotIndex::Hashed(packed),
            SlotIndex::Hashed(HashedSlots::Tuple(HashMap::new())),
        ];
        arms.map(|index| GroupTable {
            index,
            grouped: Grouped::empty(sizes.len()),
        })
    }

    /// Run `keys`' scan of `[start, start + len)` through every arm, forced,
    /// and assert the three tables are `==` each other and the oracle.
    fn assert_arms_agree(
        r: &Relation,
        p: &Predicate,
        keys: &GroupKeys,
        want: &[(Vec<Value>, Vec<usize>)],
        (start, len): (usize, usize),
        label: &str,
    ) {
        let compiled = CompiledPredicate::compile(p, r);
        let [dense, packed, tuple] = forced_arms(keys).map(|mut table| {
            table.scan(&compiled, keys.cols(), start, len, |rows, first, n| {
                rows.extend(first..first + n);
            });
            table.finish()
        });
        assert_eq!(dense, packed, "{label}: dense vs packed");
        assert_eq!(packed, tuple, "{label}: packed vs tuple");
        assert_grouped_equals_oracle(&dense, keys.cols(), want, label);
    }

    #[test]
    fn every_slot_arm_builds_the_same_table() {
        let r = sample(230);
        for (p, group_by, range) in kernel_cases(&r) {
            let keys = GroupKeys::resolve(&r, &group_by);
            let label = format!("{p:?} by {group_by:?} over {range:?}");
            let want = oracle(&r, &p, &group_by, range);
            assert_arms_agree(&r, &p, &keys, &want, range, &label);
        }
    }

    /// Villages repeat across districts (`v{r / 4 % 5}` under `d{r / 16}`):
    /// a village does not name its district, so (district, village) tuples
    /// collide at the village address.
    fn non_strict(rows: usize) -> Relation {
        let mut b = Relation::builder(schema());
        for r in 0..rows {
            b = b
                .row([
                    Value::str(format!("d{}", r / 16)),
                    Value::str(format!("v{}", r / 4 % 5)),
                    Value::int(1980 + (r % 3) as i64),
                    Value::float(r as f64 * 0.25),
                ])
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn non_strict_data_demotes_mid_scan_and_keeps_every_slot() {
        let r = non_strict(230);
        let p = Predicate::all();
        let compiled = CompiledPredicate::compile(&p, &r);
        for group_by in [
            vec![AttrId(0), AttrId(1)],
            vec![AttrId(2), AttrId(1), AttrId(0)],
        ] {
            let keys = GroupKeys::resolve(&r, &group_by);
            let label = format!("by {group_by:?}");
            let mut table = GroupTable::<Vec<usize>>::new(&keys, r.len());
            assert!(table.is_dense(), "{label}");
            let demotions = counter_value(Counter::DenseDemotions);
            table.scan(&compiled, keys.cols(), 0, r.len(), |rows, first, n| {
                rows.extend(first..first + n);
            });
            assert!(
                !table.is_dense(),
                "{label}: the second district of v1 demotes the table"
            );
            assert!(
                counter_value(Counter::DenseDemotions) > demotions,
                "{label}"
            );
            let want = oracle(&r, &p, &group_by, (0, r.len()));
            assert!(want.len() > 20, "{label}: groups opened before and after");
            assert_grouped_equals_oracle(&table.finish(), keys.cols(), &want, &label);
            assert_arms_agree(&r, &p, &keys, &want, (0, r.len()), &label);
        }
    }

    #[test]
    fn slot_index_is_chosen_by_the_key_domain() {
        // The addressing mask: the deepest grouped level of each hierarchy,
        // and every attribute in no hierarchy.
        let schema = Schema::builder()
            .hierarchy("geo", ["region", "district", "village"])
            .hierarchy("time", ["year", "month"])
            .measure("m")
            .build()
            .unwrap();
        let [region, district, village, year, month, m] =
            ["region", "district", "village", "year", "month", "m"]
                .map(|n| schema.attr(n).unwrap());
        let mask = |group_by: &[AttrId]| addressing_mask(&schema, group_by);
        assert_eq!(mask(&[]), Vec::<bool>::new());
        assert_eq!(mask(&[region, year]), [true, true]);
        assert_eq!(mask(&[region, district, year]), [false, true, true]);
        // Partial hierarchies: a skipped level does not matter, the deepest
        // grouped one addresses wherever it sits in the list.
        assert_eq!(mask(&[village, region]), [true, false]);
        assert_eq!(
            mask(&[month, district, year, region, m]),
            [true, true, false, false, true]
        );
        assert_eq!(
            mask(&[year, region, month, village, district]),
            [false, false, true, true, false]
        );

        let dense = |sizes: &[usize], addressing: &[bool], rows: usize| {
            matches!(
                SlotIndex::choose(sizes, addressing, rows),
                SlotIndex::Dense(_)
            )
        };
        let packs = |sizes: &[usize]| {
            matches!(
                HashedSlots::new(sizes.iter().copied()),
                HashedSlots::Packed { .. }
            )
        };
        // Dense while the addressed domain is at most twice the rows.
        assert!(dense(&[10, 3], &[true, true], 15));
        assert!(!dense(&[10, 3], &[true, true], 14));
        assert!(dense(&[1000, 10, 3], &[false, true, true], 15));
        assert!(!dense(&[1000, 10, 3], &[true, true, false], 15));
        assert!(dense(&[], &[], 1), "one group, one address");
        assert!(!dense(&[], &[], 0));
        // Empty dictionaries (no rows): an empty domain is dense and
        // allocates nothing; an empty unaddressed column does not shrink it.
        assert!(dense(&[0, 7], &[true, true], 0));
        assert!(!dense(&[0, 7], &[false, true], 0));
        match SlotIndex::choose(&[0, 7], &[true, true], 0) {
            SlotIndex::Dense(slots) => assert!(slots.directory.is_empty()),
            _ => unreachable!(),
        }
        // Slot ids must fit a `u32`, whatever the rows.
        let wide = 1usize << 16;
        assert!(!dense(&[wide, wide], &[true, true], usize::MAX));
        assert!(dense(&[wide, wide], &[false, true], 1 << 15));
        // The hashed arm packs while the whole tuple's domain fits a u64.
        assert!(packs(&[]));
        assert!(packs(&[6, 12, 3]));
        assert!(
            packs(&[0, 7]),
            "an empty dictionary neither overflows nor divides"
        );
        let big = u32::MAX as usize;
        assert!(packs(&[big, big]));
        assert!(!packs(&[big, big, 2]), "2^65 - 2^34 + 2");
        assert!(!packs(&[big, big, big]));

        // Every arm opens one slot per tuple of the domain and finds it
        // again; addressed by the first column alone (not strict), the
        // dense arm demotes on the second tuple and keeps every slot.
        let tuples: Vec<[u32; 3]> = (0..30).map(|i| [i / 10, i / 2 % 5, i % 2]).collect();
        let sizes = [3, 5, 2];
        for addressing in [[true, true, true], [true, false, false]] {
            let mut dense = GroupTable::<()> {
                index: SlotIndex::choose(&sizes, &addressing, 30),
                grouped: Grouped::empty(3),
            };
            assert!(dense.is_dense());
            let mut packed = GroupTable::<()> {
                index: SlotIndex::Hashed(HashedSlots::new(sizes)),
                grouped: Grouped::empty(3),
            };
            for table in [&mut dense, &mut packed] {
                for (next, tuple) in tuples.iter().enumerate() {
                    assert_eq!(table.slot(tuple), next);
                }
                for (slot, tuple) in tuples.iter().enumerate() {
                    assert_eq!(table.slot(tuple), slot);
                }
            }
            assert_eq!(dense.is_dense(), addressing == [true, true, true]);
            assert_eq!(dense.finish(), packed.finish());
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
