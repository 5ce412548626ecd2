//! Aggregation views and the drill-down operator.
//!
//! A [`View`] corresponds to the paper's `V = γ_{Agb, f(Aagg)}(σ_pred(R))`: a
//! group-by over the provenance selected by a conjunctive predicate, carrying
//! the full distributive [`AggState`] for every group so that any of COUNT,
//! SUM, MEAN, STD can be read off and repaired.
//!
//! [`View::drill_down`] implements `drilldown(V, t, H)` from Section 3.1:
//! it appends the next (more specific) attribute of hierarchy `H` to the
//! group-by list and restricts the input to the provenance of the complaint
//! tuple `t`.
//!
//! # Compiled scans
//!
//! Every compute path runs on the code-native scan layer of [`crate::scan`]:
//! the predicate compiles to dense `u32` tests against the relation's cached
//! [`CodeColumn`]s (a term on a value absent from the dictionary
//! short-circuits the whole view to empty without touching a row), matching
//! runs are skipped or bulk-accepted, and **one kernel**
//! (`scan::group_matching_rows`) groups the surviving rows wherever the scan
//! runs: it walks them as segments of consecutive rows sharing a key, so a
//! row that repeats its predecessor's key — the common case on
//! hierarchy-ordered data — costs a code comparison per key column, and
//! only a key change looks the packed code tuple up in a transient slot
//! table. The measure column's numeric-ness is resolved up front
//! ([`MeasureColumn`], cached per code column) — a non-numeric, non-null
//! measure on any row errors immediately instead of per-row `Result`
//! plumbing.
//!
//! # O(groups) flat state
//!
//! A view holds nothing per group on the heap: the groups' code tuples
//! (row-major, [`View::group_codes`]) and a parallel array of [`AggState`]s
//! ([`View::aggregates`]), put in key order by one packed value-rank per
//! group. That is all the recommend path reads — the training-design build
//! works on the integers. [`GroupKey`]s are decoded through the dictionaries
//! on the first call of [`View::groups`] / [`View::keys`] and kept; a lookup
//! by key ([`View::group`]) compares through the dictionaries and never
//! decodes. Provenance is not stored at all: [`View::provenance`] runs the
//! restricted scan of [`View::provenance_predicate`] when asked.
//!
//! # One surface, every execution site
//!
//! [`View::compute`] takes an [`Exec`] context that says *where* the scan
//! runs — inline, on the in-process shard pool, over an exact shard count,
//! or across worker processes — and every variant is **bit-exact** `==` the
//! serial scan: every shard (or worker) reads the same code columns
//! (the stable-code contract — a code means the same value in every shard),
//! each accumulates its matching rows in row order, and the partial group
//! tables merge in fixed shard order. Shards whose zone maps prove no row
//! can match the compiled predicate are pruned *before* dispatch (the
//! scatter shrinks to the live shards; for [`Exec::Remote`] a pruned worker
//! gets no RPC at all). Because shards are contiguous and ordered,
//! replaying each shard's per-group measure values at merge time visits
//! every group's rows in exactly the serial row order — the floating-point
//! accumulation sequence of [`AggState::push`] is *identical*, not merely
//! close, so `compute(..., &Exec::Shards(n)) == compute(..., &Exec::Serial)`
//! holds for arbitrary shard counts (the workspace property tests assert
//! `==`, including across process boundaries), and pruning is
//! exactness-safe because a pruned shard's partial would have been empty.
//! Remote partials arrive as bytes (see [`crate::ship`]) and merge by the
//! same replay rule under the [`Stage::RemoteMerge`] span.

use crate::aggregate::{AggState, AggregateKind};
use crate::error::RelationalError;
use crate::exec::{self, Exec, Remote, RemoteError, OP_VIEW_SCAN};
use crate::parallel::Parallelism;
use crate::predicate::Predicate;
use crate::relation::Relation;
use crate::scan::{
    group_matching_rows, pack, packing_radices, scan_partial, CodeColumn, CompiledPredicate,
    GroupTable, Grouped, MeasureColumn,
};
use crate::schema::{AttrId, Hierarchy};
use crate::ship;
use crate::value::Value;
use crate::Result;
use reptile_obs::{add_counter, Counter, Stage, StageTimer};
use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The group-by key of one output tuple, ordered like the view's group-by
/// attribute list.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupKey(pub Vec<Value>);

impl GroupKey {
    /// The key values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// The value of the `i`-th group-by attribute.
    pub fn value(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|v| v.to_string()).collect();
        write!(f, "({})", parts.join(", "))
    }
}

/// Result of a drill-down: the new view plus the attribute that was added.
#[derive(Debug, Clone)]
pub struct DrillDownResult {
    /// The drilled-down view.
    pub view: View,
    /// The attribute appended to the group-by list.
    pub added_attribute: AttrId,
}

/// Fold a shard's (or worker's) share of a group: [`AggState::push`] over its
/// values in row order. Called in fixed shard / worker order, this *is* the
/// serial accumulation.
fn replay(agg: &mut AggState, values: &[f64]) {
    for &value in values {
        agg.push(value);
    }
}

/// An aggregation view over a relation.
#[derive(Debug, Clone)]
pub struct View {
    relation: Arc<Relation>,
    predicate: Predicate,
    group_by: Vec<AttrId>,
    measure: AttrId,
    /// The code column (dictionary) of each group-by attribute.
    key_cols: Vec<Arc<CodeColumn>>,
    /// Every group's code tuple, row-major, groups in key order.
    codes: Vec<u32>,
    /// Every group's aggregate, parallel to `codes`.
    aggs: Vec<AggState>,
    /// Every group's decoded key, parallel to `codes`; filled by the first
    /// [`View::groups`] / [`View::keys`].
    keys: OnceLock<Vec<GroupKey>>,
    /// All groups merged in key order.
    total: AggState,
}

/// Where a view scan runs, decided before anything is resolved: an inline
/// scan is timed from predicate compilation on.
enum Site<'a> {
    Inline,
    Shards(Vec<(usize, usize)>, Parallelism),
    Remote(&'a Remote),
}

/// What one view scan resolved up front, and the three places it can run.
/// Each returns the group table in first-appearance order (a deterministic
/// function of the rows — never of hash order); the scatters also return the
/// merge span, which stays open through assembly.
struct Scan<'a> {
    compiled: &'a CompiledPredicate,
    key_cols: &'a [Arc<CodeColumn>],
    measure: &'a MeasureColumn,
}

impl Scan<'_> {
    /// The single serial scan: the kernel folds every segment straight into
    /// the group's [`AggState`], in row order.
    fn serial(&self, rows: usize) -> Grouped<AggState> {
        group_matching_rows(
            self.compiled,
            self.key_cols,
            0,
            rows,
            |agg: &mut AggState, first, n| {
                for value in self.measure.values(first, n) {
                    agg.push(value);
                }
            },
        )
    }

    /// The sharded scan: zone-pruned scatter, the kernel per shard into
    /// per-group value lists, fixed-shard-order replay merge.
    fn sharded(
        &self,
        ranges: &[(usize, usize)],
        parallelism: &Parallelism,
    ) -> (Grouped<AggState>, Option<StageTimer>) {
        // Zone pruning sizes the scatter: shards the zone maps prove
        // predicate-free are dropped before dispatch. Exactness-safe — a
        // pruned shard's partial table would have been empty, and empty
        // partials merge as identities.
        let mut live: Vec<(usize, usize)> = Vec::with_capacity(ranges.len());
        let mut pruned = 0u64;
        for &(start, len) in ranges {
            if len == 0 {
                continue;
            }
            if self.compiled.zone_may_match(start, len) {
                live.push((start, len));
            } else {
                pruned += 1;
            }
        }
        if pruned > 0 {
            add_counter(Counter::ShardsPruned, pruned);
        }
        let partials = parallelism.run_shards(&live, |start, len| {
            // Per-shard scan span: the histogram's count equals the shard
            // count, so a profile shows both the fan-out width and the
            // per-shard balance.
            let _span = StageTimer::start(Stage::Scan);
            scan_partial(self.compiled, self.key_cols, self.measure, (start, len))
        });
        // Merge in fixed shard order. Shards are contiguous and ordered, so
        // per group this replays AggState::push over the measure values in
        // exactly the serial row order — the FP sequence is identical.
        let span = StageTimer::start(Stage::Merge);
        let mut merged: GroupTable<AggState> = GroupTable::new(self.key_cols);
        for partial in partials {
            partial.for_each(|codes, values| replay(merged.group(codes), &values));
        }
        (merged.finish(), Some(span))
    }

    /// The distributed scan: ship-once partitions (idempotent per snapshot
    /// epoch), one plan RPC per un-pruned worker, partials decoded off the
    /// wire and replay-merged in worker order — bit-identical to the
    /// in-process sharded scan over the same ranges, which is bit-identical
    /// to serial.
    fn remote(
        &self,
        relation: &Arc<Relation>,
        plan: Vec<u8>,
        remote: &Remote,
    ) -> Result<(Grouped<AggState>, Option<StageTimer>)> {
        let remote_err = |e: RemoteError| RelationalError::Remote(e.to_string());
        let ranges = remote
            .transport()
            .ensure_relation(relation)
            .map_err(remote_err)?;
        // Zone-prune workers with the coordinator's zone maps before any
        // RPC: a pruned worker's partial would have been empty.
        let mut pruned = 0u64;
        let requests: Vec<Option<Vec<u8>>> = ranges
            .iter()
            .map(|&(start, len)| {
                if len == 0 {
                    None
                } else if self.compiled.zone_may_match(start, len) {
                    Some(plan.clone())
                } else {
                    pruned += 1;
                    None
                }
            })
            .collect();
        if pruned > 0 {
            add_counter(Counter::ShardsPruned, pruned);
        }
        // Streamed scatter, merged in fixed worker order — worker ranges
        // are contiguous, ordered, and disjoint, so this is the same replay
        // merge as the in-process sharded scan. Each partial decodes and
        // folds the moment it lands while later replies are still in
        // flight; out-of-order arrivals buffer inside
        // `scatter_fold_in_order`, so the fold order (and hence every
        // group's value sequence) never changes. The overlap span covers
        // the whole scatter+fold window.
        let span = StageTimer::start(Stage::RemoteMerge);
        let mut merged: GroupTable<AggState> = GroupTable::new(self.key_cols);
        exec::scatter_fold_in_order(
            remote.transport().as_ref(),
            OP_VIEW_SCAN,
            requests,
            &mut |_, reply| {
                let partial = ship::decode_view_partial(&reply, self.key_cols.len())
                    .map_err(|e| RemoteError::Protocol(e.to_string()))?;
                for (key, values) in partial {
                    // The table addresses slots by codes below each column's
                    // dictionary size; a worker answering outside the shared
                    // code space is lying, not merely late.
                    if let Some((code, _)) = key
                        .iter()
                        .zip(self.key_cols)
                        .find(|(code, col)| **code as usize >= col.dict().len())
                    {
                        return Err(RemoteError::Protocol(format!(
                            "partial group code {code} outside the shipped dictionary"
                        )));
                    }
                    replay(merged.group(&key), &values);
                }
                Ok(())
            },
        )
        .map_err(remote_err)?;
        Ok((merged.finish(), Some(span)))
    }
}

/// The slots of a first-appearance-ordered group table (`groups` code tuples,
/// slot-major in `codes`) in ascending [`GroupKey`] order, or `None` when
/// first-appearance order already is ascending. Each slot is ranked once, by
/// its value-ranks packed mixed-radix into a `u64` (packed order is tuple
/// order); a key domain too wide to pack — the rule, and so the choice, is
/// the slot index's, a property of the key columns — compares rank tuples.
/// Keys are distinct, so the unstable sorts have one possible outcome.
fn rank_order(key_cols: &[Arc<CodeColumn>], codes: &[u32], groups: usize) -> Option<Vec<usize>> {
    let arity = key_cols.len();
    let ranks: Vec<Vec<u32>> = key_cols.iter().map(|c| c.dict().ranks()).collect();
    let rank_tuple = |slot: usize| {
        let tuple = codes[slot * arity..(slot + 1) * arity].iter().zip(&ranks);
        tuple.map(|(code, rank)| rank[*code as usize])
    };
    match packing_radices(key_cols.iter().map(|c| c.dict().len())) {
        Some(radices) => {
            let mut packed: Vec<(u64, usize)> = (0..groups)
                .map(|slot| (pack(rank_tuple(slot), &radices), slot))
                .collect();
            if packed.windows(2).all(|w| w[0].0 < w[1].0) {
                return None;
            }
            packed.sort_unstable();
            Some(packed.into_iter().map(|(_, slot)| slot).collect())
        }
        None => {
            let mut order: Vec<usize> = (0..groups).collect();
            if order
                .windows(2)
                .all(|w| rank_tuple(w[0]).lt(rank_tuple(w[1])))
            {
                return None;
            }
            order.sort_unstable_by(|&a, &b| rank_tuple(a).cmp(rank_tuple(b)));
            Some(order)
        }
    }
}

impl PartialEq for View {
    /// Two views are equal when they aggregate the same relation snapshot
    /// (lineage ident and version) under the same definition into the same
    /// groups with bit-identical aggregates. This is the exactness relation
    /// the sharded compute path is held to. Whether either side has decoded
    /// its keys yet is not part of it.
    fn eq(&self, other: &Self) -> bool {
        self.relation.ident() == other.relation.ident()
            && self.relation.version() == other.relation.version()
            && self.predicate == other.predicate
            && self.group_by == other.group_by
            && self.measure == other.measure
            && self.aggs == other.aggs
            && if self.shares_dictionaries_with(other) {
                self.codes == other.codes
            } else {
                self.decoded_keys() == other.decoded_keys()
            }
    }
}

impl View {
    /// Compute the view `γ_{group_by, aggs(measure)}(σ_predicate(relation))`
    /// on the execution context `exec` — inline ([`Exec::Serial`]), fanned
    /// out over the in-process shard pool at the adaptive width
    /// ([`Exec::Pool`]), over exactly `n` contiguous shards
    /// ([`Exec::Shards`]), or scattered across worker processes
    /// ([`Exec::Remote`]). Every context produces **bit-identical** output
    /// (see the module docs); remote failures surface as
    /// [`RelationalError::Remote`].
    pub fn compute(
        relation: Arc<Relation>,
        predicate: Predicate,
        group_by: Vec<AttrId>,
        measure: AttrId,
        exec: &Exec,
    ) -> Result<View> {
        let site = match exec {
            Exec::Serial => Site::Inline,
            Exec::Pool(parallelism) => {
                // The shard/merge structure only pays off when the scatter
                // genuinely overlaps threads; a single adaptive range means
                // this context would inline anyway (serial budget,
                // single-core host, nested on a pool worker, or a scan too
                // small to pay for the scatter) and the direct scan is
                // strictly faster and bit-identical.
                let ranges = parallelism.adaptive_ranges(relation.len());
                if ranges.len() == 1 {
                    Site::Inline
                } else {
                    Site::Shards(ranges, *parallelism)
                }
            }
            // Exactly `shards` contiguous row shards, no size threshold —
            // shard counts past the row or group count are valid, their
            // partials are empty and merge as identities. The exactness
            // property tests drive this arm.
            Exec::Shards(shards) => Site::Shards(
                Parallelism::shard_ranges(relation.len(), (*shards).max(1)),
                Parallelism::new(*shards),
            ),
            Exec::Remote(remote) => Site::Remote(remote),
        };
        // An inline scan is ONE Scan span, from predicate compilation through
        // assembly; a scatter opens one per shard and ends in its Merge /
        // RemoteMerge span, open through assembly likewise.
        let _scan_span = matches!(site, Site::Inline).then(|| StageTimer::start(Stage::Scan));
        // Compiled predicate, group-by code columns and measure table resolve
        // ONCE, up front, wherever the scan runs: shard closures are
        // infallible array reads, and the cached columns are the stable-code
        // contract — a code means the same value in every shard and on every
        // worker, so partial tables keyed by code tuples merge code-wise.
        let compiled = CompiledPredicate::compile(&predicate, &relation);
        let key_cols: Vec<Arc<CodeColumn>> =
            group_by.iter().map(|a| relation.code_column(*a)).collect();
        if compiled.is_unsatisfiable() {
            // A term's value is absent from its column: nothing can match.
            // Short-circuit before resolving the measure, testing a row or
            // sending an RPC.
            let none = Grouped::empty(key_cols.len());
            return Ok(View::assemble(
                relation, predicate, group_by, measure, key_cols, none,
            ));
        }
        // A non-numeric measure fails with the same typed error in every
        // context (for `Exec::Remote`, before any byte is shipped).
        let scan = Scan {
            compiled: &compiled,
            key_cols: &key_cols,
            measure: &MeasureColumn::resolve(&relation, measure)?,
        };
        let (groups, _merge_span) = match site {
            Site::Inline => (scan.serial(relation.len()), None),
            Site::Shards(ranges, parallelism) => scan.sharded(&ranges, &parallelism),
            Site::Remote(remote) => {
                let plan = ship::encode_view_plan(
                    relation.ident(),
                    relation.version(),
                    &predicate,
                    &group_by,
                    measure,
                );
                scan.remote(&relation, plan, remote)?
            }
        };
        Ok(View::assemble(
            relation, predicate, group_by, measure, key_cols, groups,
        ))
    }

    /// Put a group table into the view: groups arrive in first-appearance
    /// order and are put in [`GroupKey`] order by the *value-ranks* of their
    /// codes (code order diverges from value order once a post-ingest
    /// dictionary has appended values), and the total is folded once in key
    /// order. No key is decoded.
    fn assemble(
        relation: Arc<Relation>,
        predicate: Predicate,
        group_by: Vec<AttrId>,
        measure: AttrId,
        key_cols: Vec<Arc<CodeColumn>>,
        grouped: Grouped<AggState>,
    ) -> View {
        let arity = key_cols.len();
        let (mut codes, mut aggs) = grouped.into_parts();
        if let Some(order) = rank_order(&key_cols, &codes, aggs.len()) {
            codes = order
                .iter()
                .flat_map(|&slot| &codes[slot * arity..(slot + 1) * arity])
                .copied()
                .collect();
            aggs = order.iter().map(|&slot| aggs[slot]).collect();
        }
        let total = aggs
            .iter()
            .fold(AggState::empty(), |total, agg| total.merge(agg));
        View {
            relation,
            predicate,
            group_by,
            measure,
            key_cols,
            codes,
            aggs,
            keys: OnceLock::new(),
            total,
        }
    }

    /// The underlying relation.
    pub fn relation(&self) -> &Arc<Relation> {
        &self.relation
    }

    /// The provenance predicate of the view.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }

    /// The group-by attributes, in order.
    pub fn group_by(&self) -> &[AttrId] {
        &self.group_by
    }

    /// The measure attribute.
    pub fn measure(&self) -> AttrId {
        self.measure
    }

    /// Number of output groups.
    pub fn len(&self) -> usize {
        self.aggs.len()
    }

    /// Whether the view has no groups.
    pub fn is_empty(&self) -> bool {
        self.aggs.is_empty()
    }

    /// Iterate over `(key, aggregate)` pairs in key order. The first call
    /// (of this or [`View::keys`]) decodes every key; callers that ignore
    /// the keys read [`View::aggregates`] instead.
    pub fn groups(&self) -> impl Iterator<Item = (&GroupKey, &AggState)> {
        self.decoded_keys().iter().zip(&self.aggs)
    }

    /// Every group's aggregate, in key order ([`View::group_codes`] order).
    pub fn aggregates(&self) -> &[AggState] {
        &self.aggs
    }

    /// The code column of each group-by attribute: the dictionaries
    /// [`View::group_codes`] decode through.
    pub fn key_columns(&self) -> &[Arc<CodeColumn>] {
        &self.key_cols
    }

    /// Every group's code tuple, row-major (`group_by().len()` codes per
    /// group) in [`View::groups`] order. Codes are those of this view's
    /// relation snapshot; they order like their values only through
    /// [`ValueDict::ranks`](crate::dict::ValueDict::ranks).
    pub fn group_codes(&self) -> &[u32] {
        &self.codes
    }

    /// All group keys in order.
    pub fn keys(&self) -> Vec<GroupKey> {
        self.decoded_keys().to_vec()
    }

    /// The code tuple of group `i`.
    fn codes_of(&self, i: usize) -> &[u32] {
        let arity = self.key_cols.len();
        &self.codes[i * arity..(i + 1) * arity]
    }

    /// Every group's key, decoded through the dictionaries on first use.
    fn decoded_keys(&self) -> &[GroupKey] {
        self.keys.get_or_init(|| {
            (0..self.len())
                .map(|i| {
                    let tuple = self.codes_of(i).iter().zip(&self.key_cols);
                    GroupKey(
                        tuple
                            .map(|(code, col)| col.dict().value(*code).clone())
                            .collect(),
                    )
                })
                .collect()
        })
    }

    /// Whether both views read their codes through the very same cached
    /// columns, so equal code tuples are equal keys.
    fn shares_dictionaries_with(&self, other: &View) -> bool {
        self.key_cols.len() == other.key_cols.len()
            && self
                .key_cols
                .iter()
                .zip(&other.key_cols)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// The aggregate state of one group. Groups are in key order, so the
    /// key is found by a binary search that compares each probed group's
    /// values *through the dictionaries* — nothing is decoded or allocated,
    /// whether or not [`View::groups`] was ever called.
    pub fn group(&self, key: &GroupKey) -> Result<&AggState> {
        let unknown = || RelationalError::UnknownGroup(key.to_string());
        if key.values().len() != self.key_cols.len() {
            return Err(unknown());
        }
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let group = self.codes_of(mid).iter().zip(&self.key_cols);
            let probe = group.map(|(code, col)| col.dict().value(*code));
            match probe.cmp(key.values()) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(&self.aggs[mid]),
            }
        }
        Err(unknown())
    }

    /// The value of aggregate `kind` for one group.
    pub fn aggregate_of(&self, key: &GroupKey, kind: AggregateKind) -> Result<f64> {
        Ok(self.group(key)?.value(kind))
    }

    /// Merge every group's aggregate into a single parent aggregate
    /// (the `G` combination of Appendix A over the whole view).
    pub fn total(&self) -> AggState {
        self.total
    }

    /// The parent aggregate after replacing group `key`'s state with
    /// `replacement` (used to score repairs without recomputing the view).
    pub fn total_with_replacement(
        &self,
        key: &GroupKey,
        replacement: &AggState,
    ) -> Result<AggState> {
        let current = self.group(key)?;
        Ok(self.total.unmerge(current).merge(replacement))
    }

    /// The parent aggregate after deleting group `key` entirely
    /// (Scorpion-style interventions).
    pub fn total_without(&self, key: &GroupKey) -> Result<AggState> {
        let current = self.group(key)?;
        Ok(self.total.unmerge(current))
    }

    /// Input row indices that contributed to group `key`, ascending:
    /// computed on demand by the restricted scan of
    /// [`View::provenance_predicate`] — the rows the view's own scan fed the
    /// group, by construction.
    pub fn provenance(&self, key: &GroupKey) -> Result<Vec<usize>> {
        self.group(key)?;
        let compiled = CompiledPredicate::compile(&self.provenance_predicate(key), &self.relation);
        Ok(compiled.select_rows(self.relation.len()))
    }

    /// Raw measure values of one group, in row order (used by record-level
    /// baselines).
    pub fn measure_values(&self, key: &GroupKey) -> Result<Vec<f64>> {
        let rows = self.provenance(key)?;
        let measure = MeasureColumn::resolve(&self.relation, self.measure)?;
        Ok(rows.into_iter().map(|row| measure.value(row)).collect())
    }

    /// Build the predicate that selects exactly the provenance of tuple
    /// `key` in this view (the view predicate plus one equality per group-by
    /// attribute).
    pub fn provenance_predicate(&self, key: &GroupKey) -> Predicate {
        let mut p = self.predicate.clone();
        for (attr, value) in self.group_by.iter().zip(key.values()) {
            p = p.and_eq(*attr, value.clone());
        }
        p
    }

    /// `drilldown(V, t, H)`: group also by the next level of `hierarchy`,
    /// restricted to the provenance of tuple `key`. The drilled view's
    /// group-by scan runs on `exec` (bit-identical for every context).
    pub fn drill_down(
        &self,
        key: &GroupKey,
        hierarchy: &Hierarchy,
        exec: &Exec,
    ) -> Result<DrillDownResult> {
        // Validate the tuple exists.
        self.group(key)?;
        let next = hierarchy
            .next_level(&self.group_by)
            .ok_or_else(|| RelationalError::NoMoreLevels(hierarchy.name.clone()))?;
        let mut group_by = self.group_by.clone();
        group_by.push(next);
        let predicate = self.provenance_predicate(key);
        let view = View::compute(
            self.relation.clone(),
            predicate,
            group_by,
            self.measure,
            exec,
        )?;
        Ok(DrillDownResult {
            view,
            added_attribute: next,
        })
    }

    /// Like [`View::drill_down`] but *without* restricting to the complaint
    /// tuple's provenance. This yields the "parallel groups" training view of
    /// Section 3.2 (all villages across all districts/years), used to fit the
    /// multi-level model.
    pub fn drill_down_parallel(
        &self,
        hierarchy: &Hierarchy,
        exec: &Exec,
    ) -> Result<DrillDownResult> {
        let next = hierarchy
            .next_level(&self.group_by)
            .ok_or_else(|| RelationalError::NoMoreLevels(hierarchy.name.clone()))?;
        let mut group_by = self.group_by.clone();
        group_by.push(next);
        let view = View::compute(
            self.relation.clone(),
            self.predicate.clone(),
            group_by,
            self.measure,
            exec,
        )?;
        Ok(DrillDownResult {
            view,
            added_attribute: next,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn fist_relation() -> Arc<Relation> {
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
            ("Ofla", "Adishim", 1986, 8.2),
            ("Ofla", "Darube", 1986, 2.0),
            ("Ofla", "Darube", 1986, 2.4),
            ("Ofla", "Dinka", 1986, 7.7),
            ("Ofla", "Adishim", 1987, 6.0),
            ("Raya", "Zata", 1986, 9.0),
            ("Raya", "Zata", 1987, 4.0),
        ];
        let mut b = Relation::builder(schema);
        for (d, v, y, s) in rows {
            b = b
                .row([Value::str(d), Value::str(v), Value::int(y), Value::float(s)])
                .unwrap();
        }
        Arc::new(b.build())
    }

    fn schema_of(r: &Arc<Relation>) -> Arc<Schema> {
        r.schema().clone()
    }

    #[test]
    fn group_by_district_year() {
        let r = fist_relation();
        let s = schema_of(&r);
        let gb = vec![s.attr("district").unwrap(), s.attr("year").unwrap()];
        let v = View::compute(
            r.clone(),
            Predicate::all(),
            gb,
            s.attr("severity").unwrap(),
            &Exec::Serial,
        )
        .unwrap();
        assert_eq!(v.len(), 4);
        let key = GroupKey(vec![Value::str("Ofla"), Value::int(1986)]);
        let g = v.group(&key).unwrap();
        assert_eq!(g.count(), 5.0);
        assert!((g.mean() - (8.0 + 8.2 + 2.0 + 2.4 + 7.7) / 5.0).abs() < 1e-9);
        assert_eq!(v.provenance(&key).unwrap().len(), 5);
        assert_eq!(v.measure_values(&key).unwrap().len(), 5);
        // totals merge all groups
        assert_eq!(v.total().count(), 8.0);
    }

    #[test]
    fn only_reading_keys_decodes_them() {
        let r = fist_relation();
        let s = schema_of(&r);
        let geo = s.hierarchy("geo").unwrap().clone();
        let gb = vec![s.attr("district").unwrap(), s.attr("year").unwrap()];
        let measure = s.attr("severity").unwrap();
        let v = View::compute(r.clone(), Predicate::all(), gb, measure, &Exec::Serial).unwrap();
        let key = GroupKey(vec![Value::str("Raya"), Value::int(1986)]);
        let agg = *v.group(&key).unwrap();
        assert_eq!(v.aggregate_of(&key, AggregateKind::Count).unwrap(), 1.0);
        assert_eq!(v.total_without(&key).unwrap().count(), 7.0);
        assert_eq!(v.total_with_replacement(&key, &agg).unwrap().count(), 8.0);
        assert_eq!(v.provenance(&key).unwrap(), vec![6]);
        assert_eq!(v.measure_values(&key).unwrap(), vec![9.0]);
        assert_eq!(
            v.drill_down(&key, &geo, &Exec::Serial).unwrap().view.len(),
            1
        );
        assert_eq!(v, v.clone());
        assert!(v.keys.get().is_none(), "nothing above reads a key");
        assert_eq!(v.groups().count(), 4);
        assert!(v.keys.get().is_some());
    }

    #[test]
    fn unknown_group_errors() {
        let r = fist_relation();
        let s = schema_of(&r);
        let v = View::compute(
            r.clone(),
            Predicate::all(),
            vec![s.attr("district").unwrap()],
            s.attr("severity").unwrap(),
            &Exec::Serial,
        )
        .unwrap();
        let bogus = GroupKey(vec![Value::str("Nowhere")]);
        assert!(v.group(&bogus).is_err());
        assert!(v.aggregate_of(&bogus, AggregateKind::Mean).is_err());
        assert!(v.provenance(&bogus).is_err());
    }

    #[test]
    fn drill_down_restricts_to_provenance() {
        let r = fist_relation();
        let s = schema_of(&r);
        let geo = s.hierarchy("geo").unwrap().clone();
        // Start from per-(district, year) view; complain about Ofla 1986, then
        // drill down along geography -> villages of Ofla in 1986 only.
        let v = View::compute(
            r.clone(),
            Predicate::all(),
            vec![s.attr("district").unwrap(), s.attr("year").unwrap()],
            s.attr("severity").unwrap(),
            &Exec::Serial,
        )
        .unwrap();
        let key = GroupKey(vec![Value::str("Ofla"), Value::int(1986)]);
        let dd = v.drill_down(&key, &geo, &Exec::Serial).unwrap();
        assert_eq!(dd.added_attribute, s.attr("village").unwrap());
        assert_eq!(dd.view.len(), 3); // Adishim, Darube, Dinka in Ofla 1986
        let zata = GroupKey(vec![
            Value::str("Ofla"),
            Value::int(1986),
            Value::str("Zata"),
        ]);
        assert!(dd.view.group(&zata).is_err());
    }

    #[test]
    fn drill_down_parallel_keeps_all_groups() {
        let r = fist_relation();
        let s = schema_of(&r);
        let geo = s.hierarchy("geo").unwrap().clone();
        let v = View::compute(
            r.clone(),
            Predicate::all(),
            vec![s.attr("district").unwrap(), s.attr("year").unwrap()],
            s.attr("severity").unwrap(),
            &Exec::Serial,
        )
        .unwrap();
        let dd = v.drill_down_parallel(&geo, &Exec::Serial).unwrap();
        // every (district, year, village) combination present in the data
        assert_eq!(dd.view.len(), 6);
    }

    #[test]
    fn drill_down_exhausted_hierarchy_errors() {
        let r = fist_relation();
        let s = schema_of(&r);
        let time = s.hierarchy("time").unwrap().clone();
        let v = View::compute(
            r.clone(),
            Predicate::all(),
            vec![s.attr("year").unwrap()],
            s.attr("severity").unwrap(),
            &Exec::Serial,
        )
        .unwrap();
        let key = GroupKey(vec![Value::int(1986)]);
        assert!(matches!(
            v.drill_down(&key, &time, &Exec::Serial),
            Err(RelationalError::NoMoreLevels(_))
        ));
    }

    #[test]
    fn replacement_and_deletion_totals() {
        let r = fist_relation();
        let s = schema_of(&r);
        let v = View::compute(
            r.clone(),
            Predicate::all(),
            vec![s.attr("district").unwrap()],
            s.attr("severity").unwrap(),
            &Exec::Serial,
        )
        .unwrap();
        let ofla = GroupKey(vec![Value::str("Ofla")]);
        let raya = GroupKey(vec![Value::str("Raya")]);
        let total = v.total();
        assert_eq!(total.count(), 8.0);
        // Replace Ofla with a repaired count of 10 -> parent count becomes 12.
        let repaired = v.group(&ofla).unwrap().with_count(10.0);
        let after = v.total_with_replacement(&ofla, &repaired).unwrap();
        assert!((after.count() - 12.0).abs() < 1e-9);
        // Deleting Raya leaves only Ofla rows.
        let after = v.total_without(&raya).unwrap();
        assert!((after.count() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn provenance_predicate_pins_group_by_values() {
        let r = fist_relation();
        let s = schema_of(&r);
        let v = View::compute(
            r.clone(),
            Predicate::all(),
            vec![s.attr("district").unwrap(), s.attr("year").unwrap()],
            s.attr("severity").unwrap(),
            &Exec::Serial,
        )
        .unwrap();
        let key = GroupKey(vec![Value::str("Raya"), Value::int(1987)]);
        let p = v.provenance_predicate(&key);
        assert_eq!(p.len(), 2);
        assert_eq!(p.select(&r), vec![7]);
    }

    #[test]
    fn compute_sharded_is_bit_identical_to_serial() {
        let r = fist_relation();
        let s = schema_of(&r);
        let gb = vec![s.attr("district").unwrap(), s.attr("year").unwrap()];
        let measure = s.attr("severity").unwrap();
        let serial = View::compute(
            r.clone(),
            Predicate::all(),
            gb.clone(),
            measure,
            &Exec::Serial,
        )
        .unwrap();
        // Shard counts below, at, and far past the row count; and a
        // restricted predicate (fewer matching rows than shards).
        for shards in [1usize, 2, 3, r.len(), r.len() + 9] {
            let sharded = View::compute(
                r.clone(),
                Predicate::all(),
                gb.clone(),
                measure,
                &Exec::Shards(shards),
            )
            .unwrap();
            assert_eq!(serial, sharded, "{shards} shards");
            for key in serial.keys() {
                assert_eq!(serial.group(&key).unwrap(), sharded.group(&key).unwrap());
            }
        }
        let restricted = Predicate::eq(s.attr("district").unwrap(), Value::str("Raya"));
        let serial = View::compute(
            r.clone(),
            restricted.clone(),
            gb.clone(),
            measure,
            &Exec::Serial,
        )
        .unwrap();
        let sharded = View::compute(r.clone(), restricted, gb, measure, &Exec::Shards(5)).unwrap();
        assert_eq!(serial, sharded);
    }

    #[test]
    fn unsatisfiable_predicate_short_circuits_to_empty_view() {
        let r = fist_relation();
        let s = schema_of(&r);
        let gb = vec![s.attr("district").unwrap()];
        let measure = s.attr("severity").unwrap();
        // "Kalu" never occurs: the compiled predicate is unsatisfiable and
        // the view must come back empty without scanning — on every path.
        let absent = Predicate::eq(s.attr("district").unwrap(), Value::str("Kalu"));
        let before = reptile_obs::counter_value(Counter::RowsTested);
        let serial = View::compute(
            r.clone(),
            absent.clone(),
            gb.clone(),
            measure,
            &Exec::Serial,
        )
        .unwrap();
        let sharded =
            View::compute(r.clone(), absent.clone(), gb, measure, &Exec::Shards(3)).unwrap();
        assert!(serial.is_empty());
        assert_eq!(serial, sharded);
        assert_eq!(
            reptile_obs::counter_value(Counter::RowsTested),
            before,
            "unsatisfiable predicate must not test a single row"
        );
    }

    #[test]
    fn sharded_compute_prunes_zone_dead_shards() {
        // Zone maps are block-quantized (`scan::ZONE_BLOCK_ROWS` rows per
        // block), so pruning needs shards at least a block wide: 4096 rows,
        // "Raya" confined to the last quarter, 4 block-aligned shards.
        let schema = Arc::new(
            Schema::builder()
                .hierarchy("geo", ["district", "village"])
                .measure("severity")
                .build()
                .unwrap(),
        );
        let mut b = Relation::builder(schema);
        for row in 0..4096usize {
            let district = if row < 3072 { "Ofla" } else { "Raya" };
            b = b
                .row([
                    Value::str(district),
                    Value::str(format!("v{}", row % 7)),
                    Value::float(row as f64 * 0.5),
                ])
                .unwrap();
        }
        let r = Arc::new(b.build());
        let s = r.schema().clone();
        let gb = vec![s.attr("village").unwrap()];
        let measure = s.attr("severity").unwrap();
        let raya = Predicate::eq(s.attr("district").unwrap(), Value::str("Raya"));
        let before = reptile_obs::counter_value(Counter::ShardsPruned);
        let serial =
            View::compute(r.clone(), raya.clone(), gb.clone(), measure, &Exec::Serial).unwrap();
        let sharded = View::compute(r.clone(), raya, gb, measure, &Exec::Shards(4)).unwrap();
        assert_eq!(serial, sharded);
        assert!(
            reptile_obs::counter_value(Counter::ShardsPruned) >= before + 3,
            "zone maps should prune the three Ofla-only shards"
        );
    }

    #[test]
    fn pool_exec_matches_serial_for_any_budget() {
        let r = fist_relation();
        let s = schema_of(&r);
        let gb = vec![s.attr("village").unwrap()];
        let measure = s.attr("severity").unwrap();
        let serial = View::compute(
            r.clone(),
            Predicate::all(),
            gb.clone(),
            measure,
            &Exec::Serial,
        )
        .unwrap();
        for threads in [1usize, 2, 8] {
            let v = View::compute(
                r.clone(),
                Predicate::all(),
                gb.clone(),
                measure,
                &Exec::pool(threads),
            )
            .unwrap();
            assert_eq!(serial, v, "{threads} threads");
        }
    }

    #[test]
    fn drill_down_exec_contexts_agree() {
        let r = fist_relation();
        let s = schema_of(&r);
        let geo = s.hierarchy("geo").unwrap().clone();
        let v = View::compute(
            r.clone(),
            Predicate::all(),
            vec![s.attr("district").unwrap(), s.attr("year").unwrap()],
            s.attr("severity").unwrap(),
            &Exec::Serial,
        )
        .unwrap();
        let key = GroupKey(vec![Value::str("Ofla"), Value::int(1986)]);
        let pool = Exec::pool(4);
        let serial = v.drill_down(&key, &geo, &Exec::Serial).unwrap();
        let sharded = v.drill_down(&key, &geo, &pool).unwrap();
        assert_eq!(serial.added_attribute, sharded.added_attribute);
        assert_eq!(serial.view, sharded.view);
        let serial = v.drill_down_parallel(&geo, &Exec::Serial).unwrap();
        let sharded = v.drill_down_parallel(&geo, &pool).unwrap();
        assert_eq!(serial.view, sharded.view);
    }

    /// In-process loopback transport: partitions the relation through the
    /// real wire codecs ([`ship::encode_partition`] → bytes →
    /// [`ship::decode_partition`]) and answers scatter RPCs with the real
    /// worker-side scan. What `reptile-wire` does over TCP, minus the
    /// sockets — so `Exec::Remote` exactness is pinned at this layer too.
    struct Loopback {
        partitions: std::sync::Mutex<Vec<ship::ShippedPartition>>,
        workers: usize,
    }

    impl Loopback {
        fn new(workers: usize) -> Self {
            Loopback {
                partitions: std::sync::Mutex::new(Vec::new()),
                workers,
            }
        }
    }

    impl crate::exec::RemoteTransport for Loopback {
        fn workers(&self) -> usize {
            self.workers
        }

        fn ensure_relation(
            &self,
            relation: &Arc<Relation>,
        ) -> std::result::Result<Vec<(usize, usize)>, RemoteError> {
            let ranges = Parallelism::shard_ranges(relation.len(), self.workers);
            let mut partitions = self.partitions.lock().unwrap();
            partitions.clear();
            for &(start, len) in &ranges {
                let bytes = ship::encode_partition(relation, start, len);
                partitions.push(
                    ship::decode_partition(&bytes)
                        .map_err(|e| RemoteError::Protocol(e.to_string()))?,
                );
            }
            Ok(ranges)
        }

        fn scatter(
            &self,
            op: u8,
            requests: Vec<Option<Vec<u8>>>,
        ) -> std::result::Result<Vec<Option<Vec<u8>>>, RemoteError> {
            assert_eq!(op, OP_VIEW_SCAN);
            let partitions = self.partitions.lock().unwrap();
            requests
                .into_iter()
                .enumerate()
                .map(|(worker, request)| match request {
                    None => Ok(None),
                    Some(plan) => ship::answer_view_scan(&partitions[worker], &plan)
                        .map(Some)
                        .map_err(|e| RemoteError::Worker(e.to_string())),
                })
                .collect()
        }
    }

    #[test]
    fn remote_exec_is_bit_identical_to_serial_and_sharded() {
        let r = fist_relation();
        let s = schema_of(&r);
        let gb = vec![s.attr("district").unwrap(), s.attr("year").unwrap()];
        let measure = s.attr("severity").unwrap();
        for workers in [1usize, 2, 3] {
            let remote = Exec::Remote(Remote::new(Arc::new(Loopback::new(workers))));
            for predicate in [
                Predicate::all(),
                Predicate::eq(s.attr("district").unwrap(), Value::str("Ofla")),
                Predicate::eq(s.attr("district").unwrap(), Value::str("Kalu")), // unsat
            ] {
                let serial = View::compute(
                    r.clone(),
                    predicate.clone(),
                    gb.clone(),
                    measure,
                    &Exec::Serial,
                )
                .unwrap();
                let sharded = View::compute(
                    r.clone(),
                    predicate.clone(),
                    gb.clone(),
                    measure,
                    &Exec::Shards(workers),
                )
                .unwrap();
                let distributed =
                    View::compute(r.clone(), predicate, gb.clone(), measure, &remote).unwrap();
                assert_eq!(serial, sharded, "{workers} workers");
                assert_eq!(serial, distributed, "{workers} workers");
            }
        }
    }

    #[test]
    fn remote_transport_failure_surfaces_as_typed_error() {
        struct Failing;
        impl crate::exec::RemoteTransport for Failing {
            fn workers(&self) -> usize {
                1
            }
            fn ensure_relation(
                &self,
                _relation: &Arc<Relation>,
            ) -> std::result::Result<Vec<(usize, usize)>, RemoteError> {
                Err(RemoteError::Transport("connection refused".into()))
            }
            fn scatter(
                &self,
                _op: u8,
                _requests: Vec<Option<Vec<u8>>>,
            ) -> std::result::Result<Vec<Option<Vec<u8>>>, RemoteError> {
                unreachable!("ensure_relation fails first")
            }
        }
        let r = fist_relation();
        let s = schema_of(&r);
        let remote = Exec::Remote(Remote::new(Arc::new(Failing)));
        let err = View::compute(
            r.clone(),
            Predicate::all(),
            vec![s.attr("district").unwrap()],
            s.attr("severity").unwrap(),
            &remote,
        )
        .unwrap_err();
        assert!(matches!(err, RelationalError::Remote(_)));
        assert!(err.to_string().contains("connection refused"));
    }

    #[test]
    fn group_key_display() {
        let key = GroupKey(vec![Value::str("Ofla"), Value::int(1986)]);
        assert_eq!(key.to_string(), "(Ofla, 1986)");
        assert_eq!(key.value(1), &Value::int(1986));
    }
}
