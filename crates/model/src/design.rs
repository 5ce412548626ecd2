//! Training-design construction: from a parallel-groups drill-down view to a
//! factorised feature matrix, response vector and cluster partition.
//!
//! The build runs on the view's *codes*: every group's code tuple is
//! translated once per attribute to the value-rank of its code, the
//! per-hierarchy path tables are stable sorts of packed rank keys, main
//! effects are counting-sorted by code, and features, response and clusters
//! are integer-indexed. `Value`s are produced for the distinct
//! values of each path-table level only; the `Value`-keyed factorisation and
//! feature map the dense baselines materialise are decoded on first use.

use crate::features::{main_effects, normalize, FeaturePlan};
use crate::{ModelError, Result};
use reptile_factor::encoded::EncodedLevel;
use reptile_factor::{
    ClusterPartition, EncodedAggregates, EncodedDesign, EncodedFactor, EncodedFactorization,
    EncodedFeatureMap, Exec, Factorization, FeatureMap,
};
use reptile_relational::{AggregateKind, AttrId, GroupKey, Schema, ValueDict, View};
use std::sync::{Arc, OnceLock};

/// What response value to assign to drill-down groups that have no data
/// (the "empty groups" of the worst-case analysis in Section 5.1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EmptyGroupPolicy {
    /// Use the mean of the observed groups (default; keeps the model
    /// unbiased by absent combinations).
    GlobalMean,
    /// Use zero.
    Zero,
}

/// How one column of the design is populated.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ColumnKind {
    /// Main-effect encoding of a group-by attribute.
    Base,
    /// Auxiliary / custom feature keyed by a group-by attribute.
    Extra(usize),
}

/// Metadata of one design column.
#[derive(Debug, Clone)]
struct ColumnSpec {
    name: String,
    /// Index into the training view's group-by list providing the value.
    gb_index: usize,
    kind: ColumnKind,
}

/// Resolves group keys of a drill-down view shaped like the training view
/// to design rows: the design's path tables plus, per path-table level, the
/// group-by position that feeds it. Small and `Arc`-shared — the path tables
/// are the design's own, behind `Arc`s — so a trained model can keep it
/// without keeping the design.
#[derive(Debug)]
pub struct DesignRows {
    factors: Vec<Arc<EncodedFactor>>,
    /// Per hierarchy, the group-by index of each level.
    level_gb: Vec<Vec<usize>>,
}

impl DesignRows {
    /// Design-row index of `key`, if each hierarchy has its path.
    pub fn row_of_key(&self, key: &GroupKey) -> Option<usize> {
        self.rows_of_keys(std::iter::once(key)).pop().flatten()
    }

    /// [`DesignRows::row_of_key`] for every key of a sequence. Keys of a
    /// view arrive sorted like the path tables, so per hierarchy a key
    /// mostly has the previous key's path or the one after it; only the
    /// others pay a binary search.
    pub fn rows_of_keys<'a>(&self, keys: impl Iterator<Item = &'a GroupKey>) -> Vec<Option<usize>> {
        let mut previous = vec![0usize; self.factors.len()];
        keys.map(|key| {
            let mut row = 0usize;
            for ((factor, gbs), previous) in
                self.factors.iter().zip(&self.level_gb).zip(&mut previous)
            {
                let path = || gbs.iter().map(|&g| key.value(g));
                let near = [*previous, *previous + 1]
                    .into_iter()
                    .find(|&p| p < factor.leaf_count() && factor.cmp_path(p, path()).is_eq());
                *previous = near.or_else(|| factor.path_index_of(path()))?;
                row = row * factor.leaf_count() + *previous;
            }
            Some(row)
        })
        .collect()
    }
}

/// A complete training design: factorised feature matrix, response, clusters.
///
/// The encoded factorisation, features and aggregates the factorised
/// operators run on are built eagerly, the aggregates from the design's own
/// path tables; the `Value`-keyed factorisation and feature map the dense
/// baselines materialise are decoded lazily on first access.
#[derive(Debug, Clone)]
pub struct TrainingDesign {
    rows: Arc<DesignRows>,
    factorization: OnceLock<Factorization>,
    features: OnceLock<FeatureMap>,
    encoded: EncodedDesign,
    clusters: ClusterPartition,
    y: Vec<f64>,
    observed: Vec<bool>,
    column_names: Vec<String>,
    z_columns: Vec<usize>,
    statistic: AggregateKind,
}

impl TrainingDesign {
    /// Number of training rows (all parallel groups, including empty ones).
    pub fn n_rows(&self) -> usize {
        self.y.len()
    }

    /// Number of feature columns.
    pub fn n_cols(&self) -> usize {
        self.column_names.len()
    }

    /// The `Value`-keyed factorised feature matrix structure (decoded from
    /// the path tables on first use).
    pub fn factorization(&self) -> &Factorization {
        self.factorization.get_or_init(|| {
            Factorization::new(self.rows.factors.iter().map(|f| f.decode()).collect())
        })
    }

    /// The `Value`-keyed per-column feature mappings (decoded on first use).
    pub fn features(&self) -> &FeatureMap {
        self.features
            .get_or_init(|| self.encoded.features.decode(&self.encoded.factorization))
    }

    /// The dictionary-encoded factorisation, features and aggregates.
    pub fn encoded(&self) -> &EncodedDesign {
        &self.encoded
    }

    /// The cluster partition used for the random effects.
    pub fn clusters(&self) -> &ClusterPartition {
        &self.clusters
    }

    /// The response vector, aligned with the factorisation's row order.
    pub fn y(&self) -> &[f64] {
        &self.y
    }

    /// Whether each row was actually observed in the training view.
    pub fn observed(&self) -> &[bool] {
        &self.observed
    }

    /// Human-readable column names.
    pub fn column_names(&self) -> &[String] {
        &self.column_names
    }

    /// Columns included in the random-effect matrix `Z`.
    pub fn z_columns(&self) -> &[usize] {
        &self.z_columns
    }

    /// The statistic being modelled.
    pub fn statistic(&self) -> AggregateKind {
        self.statistic
    }

    /// The key → design-row resolver, shareable beyond the design's life.
    pub fn rows(&self) -> &Arc<DesignRows> {
        &self.rows
    }

    /// Design-row index of a group key of the (same-shaped) drill-down view.
    pub fn row_of_key(&self, key: &GroupKey) -> Option<usize> {
        self.rows.row_of_key(key)
    }

    /// Cluster index of a design row.
    pub fn cluster_of_row(&self, row: usize) -> Option<usize> {
        let clusters = self.clusters.clusters();
        // Clusters are contiguous and sorted by start row.
        let next = clusters.partition_point(|c| c.start_row <= row);
        next.checked_sub(1)
            .filter(|&i| row < clusters[i].start_row + clusters[i].len)
    }

    /// Materialise the dense feature matrix (used by the Matlab-style
    /// baseline and by tests). Exponential in the number of hierarchies.
    pub fn materialize_x(&self) -> reptile_linalg::Matrix {
        self.factorization().materialize(self.features())
    }
}

/// The distinct rows of the `n`-row table whose columns are `cols`, sorted,
/// as one flat row-major vector — and, per input row, its index among them.
/// Every entry of `cols[l]` is below `radices[l]`.
///
/// Each row is packed into one `u64` key (Horner, the longest prefix of
/// levels whose radices multiply within `u64`; the remaining levels break
/// ties). Runs of equal consecutive rows collapse first, and one stable
/// sort orders the runs' `(key, run)` pairs: the view's key order leaves a
/// hierarchy's projection as long runs of one path, or as a few long
/// ascending runs of distinct paths, which the stable sort merges.
fn distinct_rows(cols: &[&[u32]], radices: &[u64], n: usize) -> (Vec<u32>, Vec<u32>) {
    let depth = cols.len();
    let mut domain = 1u64;
    let packed = radices
        .iter()
        .take_while(|&&radix| match domain.checked_mul(radix.max(1)) {
            Some(product) => {
                domain = product;
                true
            }
            None => false,
        })
        .count();
    let (head, tail) = cols.split_at(packed);
    let tail_of = |i: u32| tail.iter().map(move |col| col[i as usize]);
    // `starts[r]` is run `r`'s first row; `keyed` holds `(key, r)`.
    let mut starts: Vec<u32> = Vec::new();
    let mut keyed: Vec<(u64, u32)> = Vec::new();
    for i in 0..n as u32 {
        let key = head.iter().zip(radices).fold(0u64, |key, (col, &radix)| {
            key * radix + u64::from(col[i as usize])
        });
        let same_run = keyed
            .last()
            .is_some_and(|&(last, r)| last == key && tail_of(starts[r as usize]).eq(tail_of(i)));
        if !same_run {
            keyed.push((key, starts.len() as u32));
            starts.push(i);
        }
    }
    let first_row = |r: u32| starts[r as usize];
    keyed.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| tail_of(first_row(a.1)).cmp(tail_of(first_row(b.1))))
    });
    let mut table: Vec<u32> = Vec::new();
    let mut index_of_row = vec![0u32; n];
    for (k, &(key, r)) in keyed.iter().enumerate() {
        let row = first_row(r);
        let new_path = k == 0 || {
            let (previous_key, previous) = keyed[k - 1];
            previous_key != key || tail_of(first_row(previous)).ne(tail_of(row))
        };
        if new_path {
            table.extend(cols.iter().map(|col| col[row as usize]));
        }
        let end = starts.get(r as usize + 1).map_or(n, |&next| next as usize);
        index_of_row[row as usize..end].fill((table.len() / depth - 1) as u32);
    }
    (table, index_of_row)
}

/// One level of a path table from the value-ranks of its paths: the level's
/// dictionary holds the values present, in value order (so a level code is
/// the value's rank among them), decoded once each through `dict`.
fn encoded_level(path_ranks: impl Iterator<Item = u32> + Clone, dict: &ValueDict) -> EncodedLevel {
    let mut present = vec![false; dict.len()];
    for rank in path_ranks.clone() {
        present[rank as usize] = true;
    }
    let mut code_of_rank = vec![0u32; dict.len()];
    let mut values = Vec::new();
    for (rank, _) in present.iter().enumerate().filter(|(_, present)| **present) {
        code_of_rank[rank] = values.len() as u32;
        values.push(dict.value(dict.codes_by_value()[rank]).clone());
    }
    EncodedLevel {
        dict: ValueDict::from_sorted_values(values),
        codes: Arc::new(path_ranks.map(|r| code_of_rank[r as usize]).collect()),
    }
}

/// Builder that assembles a [`TrainingDesign`] from a parallel-groups view.
pub struct DesignBuilder<'a> {
    view: &'a View,
    schema: &'a Schema,
    statistic: AggregateKind,
    plan: FeaturePlan,
    empty_policy: EmptyGroupPolicy,
    exec: Exec,
}

impl<'a> DesignBuilder<'a> {
    /// Create a builder for `view` (the result of a *parallel* drill-down,
    /// i.e. grouped by the original attributes plus the drilled attribute,
    /// over the complaint view's provenance).
    pub fn new(view: &'a View, schema: &'a Schema, statistic: AggregateKind) -> Self {
        DesignBuilder {
            view,
            schema,
            statistic,
            plan: FeaturePlan::none(),
            empty_policy: EmptyGroupPolicy::GlobalMean,
            exec: Exec::Serial,
        }
    }

    /// Run the heavy build phases (the path tables, the aggregate batch,
    /// feature baking and the cluster partition) on an execution context.
    /// Every context is bit-identical to serial, so this only changes
    /// *where* the work runs, never the design. Every phase's operands live
    /// on the coordinator, so an [`Exec::Remote`] runs them at its local
    /// thread budget.
    pub fn with_exec(mut self, exec: Exec) -> Self {
        self.exec = exec;
        self
    }

    /// Attach a featurisation plan (auxiliary datasets, custom features, Z
    /// exclusions).
    pub fn with_plan(mut self, plan: FeaturePlan) -> Self {
        self.plan = plan;
        self
    }

    /// Choose how empty parallel groups are filled.
    pub fn empty_groups(mut self, policy: EmptyGroupPolicy) -> Self {
        self.empty_policy = policy;
        self
    }

    /// Build the design.
    pub fn build(self) -> Result<TrainingDesign> {
        let view = self.view;
        if view.is_empty() {
            return Err(ModelError::EmptyTrainingData);
        }
        let group_by = view.group_by();
        let drilled_attr = *group_by.last().expect("non-empty group-by");
        let drilled_hierarchy = self.schema.hierarchy_of(drilled_attr).ok_or_else(|| {
            ModelError::UnknownAttribute(self.schema.name(drilled_attr).to_string())
        })?;

        // Hierarchy order: every hierarchy that contributes a group-by
        // attribute, with the drill-down hierarchy last.
        let mut ordered: Vec<&reptile_relational::Hierarchy> = self
            .schema
            .hierarchies()
            .iter()
            .filter(|h| {
                h.name != drilled_hierarchy.name && h.levels.iter().any(|a| group_by.contains(a))
            })
            .collect();
        ordered.push(drilled_hierarchy);

        // Validate extras reference grouped attributes.
        for extra in &self.plan.extras {
            if !group_by.contains(&extra.attr) {
                return Err(ModelError::UnknownAttribute(extra.name.clone()));
            }
        }

        // Per hierarchy: the level specs (base levels in hierarchy order,
        // then extras keyed by one of those levels).
        let gb_index_of = |attr: AttrId| group_by.iter().position(|a| *a == attr);
        let mut per_hierarchy_specs: Vec<Vec<ColumnSpec>> = Vec::new();
        let mut per_hierarchy_attrs: Vec<Vec<AttrId>> = Vec::new();
        let mut drilled_level_in_last = 0usize;
        for (h_idx, hierarchy) in ordered.iter().enumerate() {
            let base_levels: Vec<AttrId> = hierarchy.grouped_prefix(group_by);
            let mut specs: Vec<ColumnSpec> = Vec::new();
            let mut attrs: Vec<AttrId> = Vec::new();
            for attr in &base_levels {
                let gb_index = gb_index_of(*attr).expect("grouped attribute");
                specs.push(ColumnSpec {
                    name: self.schema.name(*attr).to_string(),
                    gb_index,
                    kind: ColumnKind::Base,
                });
                attrs.push(*attr);
                if h_idx + 1 == ordered.len() && *attr == drilled_attr {
                    drilled_level_in_last = specs.len() - 1;
                }
            }
            for (e_idx, extra) in self.plan.extras.iter().enumerate() {
                if base_levels.contains(&extra.attr) {
                    let gb_index = gb_index_of(extra.attr).expect("grouped attribute");
                    specs.push(ColumnSpec {
                        name: extra.name.clone(),
                        gb_index,
                        kind: ColumnKind::Extra(e_idx),
                    });
                    attrs.push(extra.attr);
                }
            }
            per_hierarchy_specs.push(specs);
            per_hierarchy_attrs.push(attrs);
        }

        // The view's code table as one value-rank column per group-by
        // attribute: integer order == `Value` order, also where a
        // post-ingest dictionary appended values out of order.
        let arity = group_by.len();
        let n_groups = view.len();
        let key_cols = view.key_columns();
        let rank_cols: Vec<Vec<u32>> = (0..arity)
            .map(|g| {
                let ranks = key_cols[g].dict().ranks();
                let codes = view.group_codes().iter().skip(g).step_by(arity);
                codes.map(|code| ranks[*code as usize]).collect()
            })
            .collect();

        // Per hierarchy: the sorted distinct path table of the groups'
        // projections onto its levels (independent per hierarchy, so it
        // fans out over the builder's thread budget and is gathered in
        // order), each group's path in it, and the table as an encoded
        // factor — only the distinct values of each level are decoded.
        let local = self.exec.parallelism();
        let tables: Vec<(Arc<EncodedFactor>, Vec<u32>)> = local.map_items(ordered.len(), |h_idx| {
            let specs = &per_hierarchy_specs[h_idx];
            let cols: Vec<&[u32]> = specs
                .iter()
                .map(|s| rank_cols[s.gb_index].as_slice())
                .collect();
            let radices: Vec<u64> = specs
                .iter()
                .map(|s| key_cols[s.gb_index].dict().len() as u64)
                .collect();
            let (table, path_of_group) = distinct_rows(&cols, &radices, n_groups);
            let levels = specs
                .iter()
                .enumerate()
                .map(|(level, spec)| {
                    let path_ranks = table.iter().skip(level).step_by(specs.len()).copied();
                    encoded_level(path_ranks, key_cols[spec.gb_index].dict())
                })
                .collect();
            let factor = EncodedFactor::from_levels(
                ordered[h_idx].name.clone(),
                per_hierarchy_attrs[h_idx].clone(),
                levels,
            );
            (Arc::new(factor), path_of_group)
        });
        let (built, path_of_group): (Vec<Arc<EncodedFactor>>, Vec<Vec<u32>>) =
            tables.into_iter().unzip();
        let level_gb: Vec<Vec<usize>> = per_hierarchy_specs
            .iter()
            .map(|specs| specs.iter().map(|s| s.gb_index).collect())
            .collect();
        let columns: Vec<ColumnSpec> = per_hierarchy_specs.into_iter().flatten().collect();
        let m = columns.len();
        let n: usize = built.iter().map(|f| f.leaf_count()).product();

        // Response vector aligned with the factorisation's row order (last
        // hierarchy fastest). The fill-mean sum folds the observed values in
        // group order.
        let values: Vec<f64> = view
            .aggregates()
            .iter()
            .map(|agg| agg.value(self.statistic))
            .collect();
        let mut y = vec![f64::NAN; n];
        let mut observed = vec![false; n];
        let mut sum = 0.0;
        let mut seen = 0.0;
        for (i, &value) in values.iter().enumerate() {
            let row = built
                .iter()
                .zip(&path_of_group)
                .fold(0usize, |row, (f, paths)| {
                    row * f.leaf_count() + paths[i] as usize
                });
            y[row] = value;
            observed[row] = true;
            sum += value;
            seen += 1.0;
        }
        let fill = match self.empty_policy {
            EmptyGroupPolicy::Zero => 0.0,
            EmptyGroupPolicy::GlobalMean => {
                if seen > 0.0 {
                    sum / seen
                } else {
                    0.0
                }
            }
        };
        for (v, obs) in y.iter_mut().zip(&observed) {
            if !obs {
                *v = fill;
            }
        }

        // Random-effect columns: everything not explicitly excluded.
        let z_columns: Vec<usize> = columns
            .iter()
            .enumerate()
            .filter(|(_, c)| !self.plan.exclude_from_random_effects.contains(&c.name))
            .map(|(i, _)| i)
            .collect();

        let enc_fact = EncodedFactorization::new(built);
        let enc_aggs = EncodedAggregates::compute(&enc_fact, &self.exec);

        // Feature columns by code: main effects for base columns,
        // normalised auxiliary values for extra columns. The drilled
        // attribute itself is given a constant (intercept-like) feature: its
        // main effect would be the group's own statistic, which would leak
        // the anomaly into the model and make every group look "expected".
        // A level's dictionary holds exactly the values its paths carry, in
        // value order, so code order is the order the normalisation sums run
        // in. Columns are independent, so they fan out over the thread
        // budget and are gathered in order.
        let drilled_gb_index = arity - 1;
        let plan = &self.plan;
        let baked = EncodedFeatureMap::from_columns(local.map_items(m, |c| {
            let spec = &columns[c];
            let pos = enc_fact.position(c);
            let level = &enc_fact.factors()[pos.hierarchy].levels[pos.level];
            match &spec.kind {
                ColumnKind::Base if spec.gb_index == drilled_gb_index => {
                    vec![1.0; level.dict.len()]
                }
                ColumnKind::Base => {
                    let paths = &path_of_group[pos.hierarchy];
                    let codes = paths.iter().map(|&p| level.codes[p as usize]);
                    main_effects(codes, level.dict.len(), &values)
                }
                ColumnKind::Extra(e_idx) => {
                    let extra = &plan.extras[*e_idx];
                    let fallback = extra.fallback();
                    let mut column: Vec<f64> = level
                        .dict
                        .values()
                        .iter()
                        .map(|value| extra.values.get(value).copied().unwrap_or(fallback))
                        .collect();
                    normalize(&mut column);
                    column
                }
            }
        }));

        // Cluster partition: the drilled attribute and everything after it in
        // the last hierarchy vary within a cluster.
        let last_depth = level_gb.last().map_or(1, Vec::len);
        let intra_levels = last_depth - drilled_level_in_last;
        let clusters = ClusterPartition::from_encoded(&enc_fact, &baked, intra_levels, &local);
        let rows = Arc::new(DesignRows {
            factors: enc_fact.factors().to_vec(),
            level_gb,
        });

        Ok(TrainingDesign {
            rows,
            factorization: OnceLock::new(),
            features: OnceLock::new(),
            encoded: EncodedDesign {
                factorization: enc_fact,
                features: baked,
                aggregates: enc_aggs,
            },
            clusters,
            y,
            observed,
            column_names: columns.into_iter().map(|c| c.name).collect(),
            z_columns,
            statistic: self.statistic,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::ExtraFeature;
    use reptile_relational::{Predicate, Relation, Value};
    use std::collections::BTreeMap;

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
            ("Ofla", "Adishim", 1986, 7.0),
            ("Ofla", "Darube", 1986, 2.0),
            ("Ofla", "Dinka", 1986, 7.5),
            ("Ofla", "Adishim", 1987, 6.0),
            ("Ofla", "Darube", 1987, 3.0),
            ("Ofla", "Dinka", 1987, 6.5),
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

    fn training_view(rel: &Arc<Relation>) -> View {
        let s = rel.schema().clone();
        View::compute(
            rel.clone(),
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
    fn builds_design_with_expected_shape() {
        let rel = fist_relation();
        let schema = rel.schema().clone();
        let view = training_view(&rel);
        let design = DesignBuilder::new(&view, &schema, AggregateKind::Mean)
            .build()
            .unwrap();
        // hierarchies: time (year), geo (district, village) -> 3 columns
        assert_eq!(design.n_cols(), 3);
        // rows = 2 years x 4 villages (parallel groups incl. empty combos)
        assert_eq!(design.n_rows(), 8);
        assert_eq!(design.column_names(), &["year", "district", "village"]);
        assert_eq!(design.z_columns(), &[0, 1, 2]);
        // observed groups = 8 (Zata missing nothing: 3 Ofla villages x 2 years + Zata x 2) = 8
        assert_eq!(design.observed().iter().filter(|o| **o).count(), 8);
        assert_eq!(design.statistic(), AggregateKind::Mean);
        // clusters = years x districts = 4
        assert_eq!(design.clusters().len(), 4);
    }

    #[test]
    fn y_is_aligned_with_groups() {
        let rel = fist_relation();
        let schema = rel.schema().clone();
        let view = training_view(&rel);
        let design = DesignBuilder::new(&view, &schema, AggregateKind::Mean)
            .build()
            .unwrap();
        for (key, agg) in view.groups() {
            let row = design.row_of_key(key).unwrap();
            assert!((design.y()[row] - agg.mean()).abs() < 1e-9);
            assert!(design.observed()[row]);
            assert!(design.cluster_of_row(row).is_some());
        }
    }

    #[test]
    fn empty_groups_filled_by_policy() {
        let rel = fist_relation();
        let schema = rel.schema().clone();
        let s = rel.schema().clone();
        // Group by year and village only (cross product has empty combos,
        // e.g. Zata does not exist under Ofla but the cartesian product of
        // hierarchies is over villages x years so all are observed; instead
        // drop a row to create an unobserved combination).
        let filtered = Arc::new(rel.take(&(0..rel.len() - 1).collect::<Vec<_>>()));
        let view = View::compute(
            filtered.clone(),
            Predicate::all(),
            vec![
                s.attr("year").unwrap(),
                s.attr("district").unwrap(),
                s.attr("village").unwrap(),
            ],
            s.attr("severity").unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap();
        let design = DesignBuilder::new(&view, &schema, AggregateKind::Mean)
            .empty_groups(EmptyGroupPolicy::Zero)
            .build()
            .unwrap();
        let unobserved: Vec<usize> = design
            .observed()
            .iter()
            .enumerate()
            .filter(|(_, o)| !**o)
            .map(|(i, _)| i)
            .collect();
        assert!(!unobserved.is_empty());
        for row in unobserved {
            assert_eq!(design.y()[row], 0.0);
        }
        let design = DesignBuilder::new(&view, &schema, AggregateKind::Mean)
            .empty_groups(EmptyGroupPolicy::GlobalMean)
            .build()
            .unwrap();
        let mean: f64 = view.aggregates().iter().map(|a| a.mean()).sum::<f64>() / view.len() as f64;
        for (i, o) in design.observed().iter().enumerate() {
            if !o {
                assert!((design.y()[i] - mean).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn extra_features_become_trailing_columns() {
        let rel = fist_relation();
        let schema = rel.schema().clone();
        let view = training_view(&rel);
        let mut rainfall = BTreeMap::new();
        for (v, r) in [
            ("Adishim", 150.0),
            ("Darube", 600.0),
            ("Dinka", 200.0),
            ("Zata", 220.0),
        ] {
            rainfall.insert(Value::str(v), r);
        }
        let plan = FeaturePlan::none()
            .with_extra(ExtraFeature::new(
                "rainfall",
                schema.attr("village").unwrap(),
                rainfall,
            ))
            .exclude_from_z("rainfall");
        let design = DesignBuilder::new(&view, &schema, AggregateKind::Mean)
            .with_plan(plan)
            .build()
            .unwrap();
        assert_eq!(design.n_cols(), 4);
        assert_eq!(
            design.column_names(),
            &["year", "district", "village", "rainfall"]
        );
        // rainfall excluded from random effects
        assert_eq!(design.z_columns(), &[0, 1, 2]);
        // the rainfall column varies within clusters (it is keyed by village)
        assert_eq!(design.clusters().intra_columns(), &[2, 3]);
        // rainfall features are normalised: they sum to ~0 over the domain
        let col = design.features().column(3);
        let sum: f64 = col.values().sum();
        assert!(sum.abs() < 1e-9);
    }

    /// `distinct_rows` equals the sorted set of rows, also where the
    /// radices overflow `u64` and the trailing levels break ties.
    #[test]
    fn distinct_rows_equal_the_sorted_row_set() {
        use std::collections::BTreeSet;
        let mut state = 7u64;
        let mut next = |below: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % below
        };
        let shapes: [&[u64]; 4] = [
            &[3, 5, 2],
            &[1 << 20, 1 << 20, 1 << 20, 7, 3],
            &[u64::MAX, 2, 4],
            &[1 << 40, 1 << 30, 1],
        ];
        for radices in shapes {
            for n in [0usize, 1, 40, 300] {
                // Few distinct digits per level (0, the top and one in
                // between), so heads repeat and the tails decide.
                let cols: Vec<Vec<u32>> = radices
                    .iter()
                    .map(|&radix| {
                        let top = radix.min(u64::from(u32::MAX)) - 1;
                        let digits = [0, top, top / 2];
                        (0..n).map(|_| digits[next(3) as usize] as u32).collect()
                    })
                    .collect();
                let col_refs: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
                let (table, index_of_row) = distinct_rows(&col_refs, radices, n);
                let row = |i: usize| cols.iter().map(|col| col[i]).collect::<Vec<u32>>();
                let expected: Vec<Vec<u32>> = (0..n)
                    .map(row)
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                assert_eq!(table, expected.concat(), "{radices:?}, {n} rows");
                for (i, &index) in index_of_row.iter().enumerate() {
                    assert_eq!(expected[index as usize], row(i), "{radices:?}: row {i}");
                }
                assert_eq!(index_of_row.len(), n);
            }
        }
    }

    #[test]
    fn unknown_extra_attribute_is_rejected() {
        let rel = fist_relation();
        let schema = rel.schema().clone();
        let s = rel.schema().clone();
        let view = View::compute(
            rel.clone(),
            Predicate::all(),
            vec![s.attr("year").unwrap(), s.attr("district").unwrap()],
            s.attr("severity").unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap();
        let plan = FeaturePlan::none().with_extra(ExtraFeature::new(
            "rainfall",
            schema.attr("village").unwrap(),
            BTreeMap::new(),
        ));
        let err = DesignBuilder::new(&view, &schema, AggregateKind::Mean)
            .with_plan(plan)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownAttribute(_)));
    }
}
