//! The benchmark's pinned call surface: every call into a crate under
//! `crates/` that does work lives here (the panel generator additionally
//! uses the relational data constructors). One small adapter per per-layer
//! metric, named after the metric it times, plus the plumbing the workload
//! drivers share (requests, answers, engines, servers, the worker fleet and
//! the counter snapshot). When a later change renames `fit_exec` or drops
//! `HierarchyFactor`, the benchmark fix is a one-line edit in this file.
//!
//! Nothing here times anything: callers wrap these in spans.

use reptile::{
    Complaint, Direction, IngestReport, NoCache, Recommendation, Reptile, ReptileConfig,
};
use reptile_factor::encoded::EncodedHierarchyAggregates;
use reptile_factor::EncodedFactor;
use reptile_linalg::{invert_spd_with_ridge, Matrix};
use reptile_model::{DesignBuilder, MultilevelModel, TrainingDesign};
use reptile_obs::{counter_value, stage_count, stage_total_ns, Counter, ObsConfig, Stage};
use reptile_relational::{
    AggregateKind, AttrId, Exec, GroupKey, Hierarchy, IngestBatch, Predicate, Relation, Remote,
    Schema, Value, View,
};
use reptile_serve::{
    Client, RecommendRequest, ServeConfig, ServeLedger, Server, WireRecommendation,
};
use reptile_session::{BatchRequest, BatchServer, CachesSnapshot, Session};
use reptile_wire::WorkerSet;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;

pub use reptile_factor::SessionStats;

// ---------------------------------------------------------------------
// Requests and answers
// ---------------------------------------------------------------------

/// One complaint against one view definition, by attribute name — the
/// shape every workload's op is made of, convertible to an engine call, a
/// batch request or a wire frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub group_by: Vec<&'static str>,
    /// Equality terms of the view's predicate.
    pub predicate: Vec<(&'static str, Value)>,
    /// The complained tuple, aligned with `group_by`.
    pub key: Vec<Value>,
    pub statistic: AggregateKind,
    pub direction: Direction,
}

impl Request {
    pub fn complaint(&self) -> Complaint {
        Complaint::new(GroupKey(self.key.clone()), self.statistic, self.direction)
    }

    fn resolve(&self, schema: &Schema) -> (Predicate, Vec<AttrId>) {
        let attr = |name: &str| schema.attr(name).expect("request names a panel attribute");
        let mut predicate = Predicate::all();
        for (name, value) in &self.predicate {
            predicate = predicate.and_eq(attr(name), value.clone());
        }
        (predicate, self.group_by.iter().map(|n| attr(n)).collect())
    }

    /// Whether two requests pose their complaints against the same view.
    pub fn same_view(&self, other: &Request) -> bool {
        self.group_by == other.group_by && self.predicate == other.predicate
    }

    pub fn to_wire(&self) -> RecommendRequest {
        RecommendRequest {
            predicate: self
                .predicate
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
            group_by: self.group_by.iter().map(|n| n.to_string()).collect(),
            measure: MEASURE.to_string(),
            complaint_key: self.key.clone(),
            statistic: self.statistic,
            direction: self.direction,
            deadline_ms: 0,
            fault: String::new(),
        }
    }
}

/// The panel's measure attribute.
pub const MEASURE: &str = "views";

/// What is compared `==` between a timed op and its serial reference: the
/// ranked groups' hierarchies and keys and the raw bits of every score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    original_bits: u64,
    ranked: Vec<(String, Vec<Value>, u64, u64)>,
}

impl Answer {
    pub fn of(rec: &Recommendation) -> Answer {
        Answer {
            original_bits: rec.original_value.to_bits(),
            ranked: rec
                .ranked
                .iter()
                .map(|g| {
                    (
                        g.hierarchy.clone(),
                        g.key.values().to_vec(),
                        g.penalty.to_bits(),
                        g.improvement.to_bits(),
                    )
                })
                .collect(),
        }
    }

    pub fn of_wire(rec: &WireRecommendation) -> Answer {
        Answer {
            original_bits: rec.original_value.to_bits(),
            ranked: rec
                .ranked
                .iter()
                .map(|g| {
                    (
                        g.hierarchy.clone(),
                        g.key.clone(),
                        g.penalty.to_bits(),
                        g.improvement.to_bits(),
                    )
                })
                .collect(),
        }
    }

    /// The best group's key, for the planted-subtree checks.
    pub fn best_key(&self) -> Option<&[Value]> {
        self.ranked.first().map(|g| g.1.as_slice())
    }
}

// ---------------------------------------------------------------------
// relational
// ---------------------------------------------------------------------

/// `relational.view_scan_ms`: the complaint view of `request`.
pub fn view_scan(relation: &Arc<Relation>, request: &Request, exec: &Exec) -> View {
    let schema = relation.schema();
    let (predicate, group_by) = request.resolve(schema);
    let measure = schema.attr(MEASURE).expect("panel measure");
    View::compute(relation.clone(), predicate, group_by, measure, exec).expect("view scan")
}

/// The hierarchies the engine would evaluate for a complaint on `view`.
pub fn candidates(schema: &Schema, view: &View) -> Vec<Hierarchy> {
    schema
        .hierarchies()
        .iter()
        .filter(|h| h.next_level(view.group_by()).is_some())
        .cloned()
        .collect()
}

/// `relational.drill_scan_ms`: the restricted, zone-mapped scan of the
/// complaint tuple's provenance.
pub fn drill_scan(view: &View, key: &GroupKey, hierarchy: &Hierarchy, exec: &Exec) -> View {
    view.drill_down(key, hierarchy, exec)
        .expect("drill scan")
        .view
}

/// `relational.parallel_scan_ms`: the training view over all parallel groups.
pub fn parallel_scan(view: &View, hierarchy: &Hierarchy, exec: &Exec) -> View {
    view.drill_down_parallel(hierarchy, exec)
        .expect("parallel scan")
        .view
}

/// `relational.ingest_apply_ms`: the next snapshot of `relation`.
pub fn relation_apply(relation: &Relation, batch: &IngestBatch) -> Relation {
    relation.apply(batch).expect("batch applies")
}

/// Build every attribute's cached code column (the scan-cache warm-up a
/// long-lived process has paid before its first request).
pub fn warm_scan_cache(relation: &Relation) {
    for index in 0..relation.schema().arity() {
        let _ = relation.code_column(AttrId(index));
    }
}

// ---------------------------------------------------------------------
// factor
// ---------------------------------------------------------------------

/// `factor.encode_ms`: dictionary-encode each hierarchy factor of the
/// design's path tables (what the engine's drill-down session encodes on a
/// cold call).
pub fn encode(design: &TrainingDesign, exec: &Exec) -> Vec<EncodedFactor> {
    design
        .factorization()
        .hierarchies()
        .iter()
        .map(|h| EncodedFactor::encode(h, exec))
        .collect()
}

/// `factor.aggregates_ms`: the decomposed aggregates of each encoded factor.
pub fn aggregates(encoded: &[EncodedFactor], exec: &Exec) -> Vec<EncodedHierarchyAggregates> {
    encoded
        .iter()
        .map(|f| EncodedHierarchyAggregates::compute(f, exec))
        .collect()
}

// ---------------------------------------------------------------------
// model and linalg
// ---------------------------------------------------------------------

/// `model.design_build_ms`: the training design over a parallel-groups
/// view, with no aggregate source threaded in (so it includes its factor
/// work, as the engine's cold build does).
pub fn design_build(
    parallel: &View,
    schema: &Schema,
    statistic: AggregateKind,
    exec: &Exec,
) -> TrainingDesign {
    DesignBuilder::new(parallel, schema, statistic)
        .with_exec(exec.clone())
        .build()
        .expect("design build")
}

/// `model.fit_ms`: EM fit with the engine's default configuration.
pub fn fit(design: &TrainingDesign, exec: &Exec) -> MultilevelModel {
    let config = ReptileConfig::default();
    MultilevelModel::fit_exec(design, config.em, config.backend, exec).expect("model fit")
}

/// `model.predict_ms`: fitted values for every design row.
pub fn predict(model: &MultilevelModel, design: &TrainingDesign, exec: &Exec) -> Vec<f64> {
    model.predict_all_with(design, &exec.parallelism())
}

/// `(model.design_rows, model.design_clusters, design width)`.
pub fn design_shape(design: &TrainingDesign) -> (usize, usize, usize) {
    (design.n_rows(), design.clusters().len(), design.n_cols())
}

/// `model.em_iterations`.
pub fn em_iterations(model: &MultilevelModel) -> usize {
    model.iterations_run
}

/// A `q×q` SPD system of the op's design width (`B·Bᵀ + q·I`).
pub fn gram_system(q: usize) -> Matrix {
    let b = Matrix::from_fn(q, q, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0);
    Matrix::from_fn(q, q, |i, j| {
        let dot: f64 = (0..q).map(|k| b.get(i, k) * b.get(j, k)).sum();
        dot + if i == j { q as f64 } else { 0.0 }
    })
}

/// `linalg.gram_solve_us`: the ridge-regularised SPD inverse EM performs
/// once per iteration.
pub fn gram_solve(system: &Matrix) -> Matrix {
    invert_spd_with_ridge(system, ReptileConfig::default().em.ridge).expect("SPD system inverts")
}

// ---------------------------------------------------------------------
// core
// ---------------------------------------------------------------------

/// A fresh engine over `relation` on `exec`; `profiled` arms the engine's
/// own stage timers (traced runs only).
pub fn engine(relation: &Arc<Relation>, exec: &Exec, profiled: bool) -> Arc<Reptile> {
    let config = ReptileConfig {
        exec: exec.clone(),
        obs: if profiled {
            ObsConfig::profiled()
        } else {
            ObsConfig::default()
        },
        ..Default::default()
    };
    Arc::new(Reptile::new(relation.clone(), relation.schema().clone()).with_config(config))
}

/// `core.recommend_ms`: the stateless recommendation.
pub fn recommend(engine: &Reptile, view: &View, complaint: &Complaint) -> Result<Answer, String> {
    engine
        .recommend_with_cache(view, complaint, &NoCache)
        .map(|rec| Answer::of(&rec))
        .map_err(|e| e.to_string())
}

/// The engine's fan-out over candidate hierarchies: sequential when the
/// context runs inline, else one may-block job per hierarchy on the shard
/// pool. The replay of a recommendation evaluates its hierarchies through
/// this, so its spans overlap exactly as the engine's work does.
pub fn hierarchy_fanout<T: Send>(
    exec: &Exec,
    hierarchies: usize,
    evaluate: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let local = exec.parallelism();
    if local.effective_threads() == 1 {
        (0..hierarchies).map(evaluate).collect()
    } else {
        local.map_items_may_block(hierarchies, evaluate)
    }
}

/// `core.ingest_ms`: delta-maintained ingest at the engine.
pub fn engine_ingest(engine: &Reptile, batch: &IngestBatch) -> IngestReport {
    engine.ingest(batch).expect("engine ingest")
}

/// `factor.{recomputed,reused,delta_patched}_per_op` come from deltas of this.
pub fn session_stats(engine: &Reptile) -> SessionStats {
    engine.session_stats()
}

// ---------------------------------------------------------------------
// session
// ---------------------------------------------------------------------

/// An interactive session at `view` over `engine`.
pub fn session(engine: &Arc<Reptile>, view: View) -> Session {
    Session::new(engine.clone(), view)
}

/// `session.hit_us` when repeated on a warm key; also the serial reference
/// path and the recommend half of an `ingest_refresh` op.
pub fn session_recommend(session: &mut Session, complaint: &Complaint) -> Result<Answer, String> {
    session
        .recommend(complaint)
        .map(|rec| Answer::of(&rec))
        .map_err(|e| e.to_string())
}

/// `session.ingest_ms`: engine ingest plus exact cache invalidation and
/// view refresh.
pub fn session_ingest(session: &mut Session, batch: &IngestBatch) -> Result<(), String> {
    session.ingest(batch).map(|_| ()).map_err(|e| e.to_string())
}

pub fn session_caches(session: &Session) -> CachesSnapshot {
    session.stats_snapshot()
}

/// The in-process batch server the front door wraps.
pub fn batch_server(engine: &Arc<Reptile>) -> BatchServer {
    BatchServer::new(engine.clone())
}

/// `session.serve_one_ms`: what the front door does per admitted request,
/// without the door.
pub fn serve_one(batch: &BatchServer, request: &Request) -> Result<Answer, String> {
    let (predicate, group_by) = request.resolve(batch.engine().schema());
    let measure = batch
        .engine()
        .schema()
        .attr(MEASURE)
        .expect("panel measure");
    let view = batch
        .resolve_view(predicate, group_by, measure)
        .map_err(|e| e.to_string())?;
    batch
        .serve_one(&BatchRequest::new(view, request.complaint()))
        .map(|rec| Answer::of(&rec))
        .map_err(|e| e.to_string())
}

pub fn batch_caches(batch: &BatchServer) -> CachesSnapshot {
    batch.stats_snapshot()
}

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

/// The front door over `engine` on an ephemeral loopback port, default
/// configuration.
pub fn server_bind(engine: &Arc<Reptile>) -> Server {
    Server::bind(engine.clone(), "127.0.0.1:0", ServeConfig::default()).expect("bind front door")
}

pub fn client_connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("connect to front door")
}

/// `serve.ping_rtt_us`.
pub fn client_ping(client: &mut Client) {
    client.ping().expect("ping");
}

/// One request through the front door. Refusals (`Overloaded`,
/// `DeadlineExceeded`, drained) and transport failures are `Err`.
pub fn client_recommend(client: &mut Client, request: &Request) -> Result<Answer, String> {
    client
        .recommend(request.to_wire())
        .map(|rec| Answer::of_wire(&rec))
        .map_err(|e| e.to_string())
}

/// Graceful shutdown; the ledger must satisfy its conservation law.
pub fn server_shutdown(server: Server) -> ServeLedger {
    server.shutdown()
}

// ---------------------------------------------------------------------
// wire
// ---------------------------------------------------------------------

/// Worker listeners on loopback, served by in-process threads, and the
/// coordinator-side transport connected to them.
pub struct Fleet {
    set: Arc<WorkerSet>,
    exec: Exec,
    workers: Vec<JoinHandle<()>>,
}

impl Fleet {
    pub fn start(workers: usize) -> Fleet {
        let mut addrs = Vec::with_capacity(workers);
        let mut threads = Vec::with_capacity(workers);
        for _ in 0..workers {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
            addrs.push(listener.local_addr().expect("worker address"));
            threads.push(std::thread::spawn(move || {
                reptile_wire::worker::serve(listener).expect("worker accept loop");
            }));
        }
        let set = WorkerSet::connect(&addrs).expect("connect to workers");
        let exec = Exec::Remote(Remote::new(set.clone()));
        Fleet {
            set,
            exec,
            workers: threads,
        }
    }

    pub fn exec(&self) -> &Exec {
        &self.exec
    }

    /// Ask every worker to exit and wait until each has.
    pub fn stop(self) {
        self.set.shutdown().expect("workers acknowledge shutdown");
        for worker in self.workers {
            worker.join().expect("worker thread exits cleanly");
        }
    }
}

// ---------------------------------------------------------------------
// obs
// ---------------------------------------------------------------------

/// Arm or disarm the program's own stage histograms (traced runs only).
pub fn set_stage_timers(on: bool) {
    reptile_obs::set_enabled(on);
}

/// Declares [`Counters`] from one `field = reading` list, so a counter is
/// named once for the struct, the capture and the delta.
macro_rules! counters {
    ($($field:ident = $read:expr,)*) => {
        /// A reading of the always-on counters and the stage-histogram
        /// totals the per-layer metrics are deltas of.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            pub fn capture() -> Counters {
                Counters { $($field: $read,)* }
            }

            /// What happened between `earlier` and this reading.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field,)* }
            }

            /// The sum of two deltas.
            pub fn plus(&self, other: &Counters) -> Counters {
                Counters { $($field: self.$field + other.$field,)* }
            }
        }
    };
}

counters! {
    rows_tested = counter_value(Counter::RowsTested),
    runs_skipped = counter_value(Counter::RunsSkipped),
    shards_pruned = counter_value(Counter::ShardsPruned),
    pool_scatters = counter_value(Counter::PoolScatters),
    pool_inline_scatters = counter_value(Counter::PoolInlineScatters),
    rpcs = counter_value(Counter::RemoteRpcs),
    bytes_shipped = counter_value(Counter::RemoteBytesShipped),
    gram_partials = counter_value(Counter::RemoteGramPartials),
    e_step_partials = counter_value(Counter::RemoteEStepPartials),
    overlapped_merges = counter_value(Counter::RemoteOverlappedMerges),
    fallbacks = counter_value(Counter::RemoteFallbacks),
    scan_ns = stage_total_ns(Stage::Scan),
    merge_ns = stage_total_ns(Stage::Merge),
    encode_ns = stage_total_ns(Stage::Encode),
    design_build_ns = stage_total_ns(Stage::DesignBuild),
    solve_ns = stage_total_ns(Stage::Solve),
    e_step_ns = stage_total_ns(Stage::EStep),
    queue_wait_ns = stage_total_ns(Stage::QueueWait),
    queue_wait_count = stage_count(Stage::QueueWait),
    remote_merge_ns = stage_total_ns(Stage::RemoteMerge),
}

/// Cores the OS reports; recorded with every result set.
pub fn threads_available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The workload-independent execution context "every core, in process".
pub fn exec_available() -> Exec {
    Exec::available()
}
