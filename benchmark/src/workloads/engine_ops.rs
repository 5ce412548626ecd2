//! The three stateless engine workloads. One op is a list of one or two
//! requests, each answered from nothing: fresh `Reptile::new` → complaint
//! view → `recommend` with no cache. They differ in panel, execution
//! context and complaint depth:
//!
//! * [`LongShallow`] — long panel, every core in process, `γ(language,
//!   week)`: scanning 453k rows is ≥70 % of the op.
//! * [`WideDeep`] — wide panel, serial, `γ(language, access, agent, week)`
//!   drilling to page/day: design build, EM fit and engine glue over 86,400
//!   groups dominate.
//! * [`FleetDrill`] — long panel, `Exec::Remote` over two loopback workers,
//!   `γ(language, week)` then `γ(language, access, week)`: the wire carries
//!   the op. Partitions and EM state are shipped once, in set-up.

use super::{
    assert_plants_rank_first, check, closed_loop, distinct_indices, language_week_request,
    reference_answers, ProbeContext, Timed, Workload,
};
use crate::layers::{self, Answer, Fleet, Request};
use crate::panel::{Panel, Rng, Shape, Subtree, LONG, WIDE};
use crate::trace::Trace;
use reptile::Direction;
use reptile_relational::{AggregateKind, Exec};
use std::sync::Arc;
use std::time::Duration;

/// Distinct ops per workload; the op list cycles through a seeded order of
/// them.
const DISTINCT_OPS: usize = 12;
const ORDER_LEN: usize = 64;

/// The shared driver: a panel, an execution context and a cyclic op list
/// with one serial reference per request.
struct EngineOps {
    panel: Arc<Panel>,
    exec: Exec,
    /// `ops[i]` is the request list of distinct op `i`.
    ops: Vec<Vec<Request>>,
    references: Vec<Vec<Answer>>,
    order: Vec<usize>,
    next: usize,
}

impl EngineOps {
    fn new(panel: Arc<Panel>, exec: Exec, ops: Vec<Vec<Request>>, order_seed: u64) -> Self {
        let flat: Vec<Request> = ops.iter().flatten().cloned().collect();
        let mut answers = reference_answers(&panel.relation, &flat).into_iter();
        let references = ops
            .iter()
            .map(|op| answers.by_ref().take(op.len()).collect())
            .collect();
        let mut rng = Rng::fork(order_seed, 11);
        let order = (0..ORDER_LEN).map(|_| rng.below(ops.len())).collect();
        EngineOps {
            panel,
            exec,
            ops,
            references,
            order,
            next: 0,
        }
    }

    /// One op: every request of the op answered by a fresh engine.
    fn op(&mut self, timed: &mut Timed, trace: &mut Trace) -> Result<(), String> {
        let op_id = self.next as u64;
        let which = self.order[self.next % self.order.len()];
        self.next += 1;
        let root = trace.begin(op_id, "op", None);
        let mut outcome = Ok(());
        for (request, reference) in self.ops[which].iter().zip(&self.references[which]) {
            let engine = layers::engine(&self.panel.relation, &self.exec, trace.enabled());
            let (view, _) = trace.span(op_id, "relational.view_scan", Some(root), || {
                layers::view_scan(&self.panel.relation, request, &self.exec)
            });
            let (answer, _) = trace.span(op_id, "core.recommend", Some(root), || {
                layers::recommend(&engine, &view, &request.complaint())
            });
            timed.add_factor_stats(&Default::default(), &layers::session_stats(&engine));
            outcome = outcome.and(check(answer, reference));
        }
        trace.end(root);
        outcome
    }

    fn run(&mut self, budget: Duration, trace: &mut Trace) -> Timed {
        closed_loop(budget, |timed| self.op(timed, trace))
    }

    /// Run the first op of the list once, failing loudly: the output check
    /// before timing, and under `Exec::Remote` the warm-up that ships the
    /// partitions and the EM state (training designs do not depend on the
    /// complained tuple, so one op ships what every op needs).
    fn warm_up(&mut self) {
        if let Err(what) = self.op(&mut Timed::default(), &mut Trace::disabled()) {
            panic!("warm-up op failed its output check: {what}");
        }
        self.next = 0;
    }

    fn probe_context(&self) -> ProbeContext {
        ProbeContext {
            panel: self.panel.clone(),
            relation: self.panel.relation.clone(),
            exec: self.exec.clone(),
            requests: self.ops.iter().flatten().take(8).cloned().collect(),
        }
    }
}

/// The generated, warmed and checked panel of a workload.
fn checked_panel(shape: Shape, seed: u64) -> Arc<Panel> {
    let panel = Arc::new(Panel::generate(shape, seed));
    layers::warm_scan_cache(&panel.relation);
    assert_plants_rank_first(&panel);
    panel
}

/// Seeded `(language, week)` tuples, the value-error tuple first.
fn language_week_tuples(panel: &Panel, rng: &mut Rng) -> Vec<(usize, usize)> {
    let weeks = panel.shape.weeks;
    let planted = panel.value_error.language * weeks + panel.value_error.week;
    let count = DISTINCT_OPS.min(panel.shape.languages * weeks);
    distinct_indices(rng, panel.shape.languages * weeks, count, planted)
        .into_iter()
        .map(|i| (i / weeks, i % weeks))
        .collect()
}

pub struct LongShallow(EngineOps);

impl Workload for LongShallow {
    const NAME: &'static str = "long_shallow";

    fn setup(seed: u64) -> Self {
        let panel = checked_panel(LONG, seed);
        let ops = language_week_tuples(&panel, &mut Rng::fork(seed, 10))
            .into_iter()
            .map(|(l, w)| {
                vec![language_week_request(
                    &panel,
                    l,
                    w,
                    AggregateKind::Mean,
                    Direction::TooLow,
                )]
            })
            .collect();
        let mut ops = EngineOps::new(panel, layers::exec_available(), ops, seed);
        ops.warm_up();
        LongShallow(ops)
    }

    fn run(&mut self, budget: Duration, trace: &mut Trace) -> Timed {
        self.0.run(budget, trace)
    }

    fn probe_context(&self) -> ProbeContext {
        self.0.probe_context()
    }

    fn finish(self) -> Vec<String> {
        Vec::new()
    }
}

pub struct WideDeep(EngineOps);

impl Workload for WideDeep {
    const NAME: &'static str = "wide_deep";

    fn setup(seed: u64) -> Self {
        let panel = checked_panel(WIDE, seed);
        let shape = panel.shape;
        let planted = {
            let p = panel.value_error;
            ((p.language * shape.accesses + p.access) * shape.agents + p.agent) * shape.weeks
                + p.week
        };
        let mut rng = Rng::fork(seed, 10);
        let ops = distinct_indices(&mut rng, shape.paths(), DISTINCT_OPS, planted)
            .into_iter()
            .map(|i| {
                let path = Subtree {
                    week: i % shape.weeks,
                    agent: i / shape.weeks % shape.agents,
                    access: i / shape.weeks / shape.agents % shape.accesses,
                    language: i / shape.weeks / shape.agents / shape.accesses,
                };
                let names = &panel.names;
                vec![Request {
                    group_by: vec!["language", "access", "agent", "week"],
                    predicate: Vec::new(),
                    key: vec![
                        names.languages[path.language].clone(),
                        names.accesses[path.language][path.access].clone(),
                        names.agents[path.language][path.access][path.agent].clone(),
                        names.weeks[path.week].clone(),
                    ],
                    statistic: AggregateKind::Mean,
                    direction: Direction::TooLow,
                }]
            })
            .collect();
        let mut ops = EngineOps::new(panel, Exec::Serial, ops, seed);
        ops.warm_up();
        WideDeep(ops)
    }

    fn run(&mut self, budget: Duration, trace: &mut Trace) -> Timed {
        self.0.run(budget, trace)
    }

    fn probe_context(&self) -> ProbeContext {
        self.0.probe_context()
    }

    fn finish(self) -> Vec<String> {
        Vec::new()
    }
}

pub struct FleetDrill {
    ops: EngineOps,
    fleet: Fleet,
    fallbacks_at_start: u64,
}

/// Worker processes' stand-ins: listeners on loopback served by threads of
/// this process.
pub const FLEET_WORKERS: usize = 2;

impl Workload for FleetDrill {
    const NAME: &'static str = "fleet_drill";

    fn setup(seed: u64) -> Self {
        let panel = checked_panel(LONG, seed);
        let mut rng = Rng::fork(seed, 10);
        let ops = language_week_tuples(&panel, &mut rng)
            .into_iter()
            .map(|(l, w)| {
                let access = rng.below(panel.shape.accesses);
                vec![
                    language_week_request(&panel, l, w, AggregateKind::Mean, Direction::TooLow),
                    Request {
                        group_by: vec!["language", "access", "week"],
                        predicate: Vec::new(),
                        key: vec![
                            panel.names.languages[l].clone(),
                            panel.names.accesses[l][access].clone(),
                            panel.names.weeks[w].clone(),
                        ],
                        statistic: AggregateKind::Mean,
                        direction: Direction::TooLow,
                    },
                ]
            })
            .collect();
        let fallbacks_at_start = layers::Counters::capture().fallbacks;
        let fleet = Fleet::start(FLEET_WORKERS);
        let mut ops = EngineOps::new(panel, fleet.exec().clone(), ops, seed);
        ops.warm_up();
        FleetDrill {
            ops,
            fleet,
            fallbacks_at_start,
        }
    }

    fn run(&mut self, budget: Duration, trace: &mut Trace) -> Timed {
        self.ops.run(budget, trace)
    }

    fn probe_context(&self) -> ProbeContext {
        self.ops.probe_context()
    }

    fn finish(self) -> Vec<String> {
        self.fleet.stop();
        let fallbacks = layers::Counters::capture().fallbacks - self.fallbacks_at_start;
        if fallbacks == 0 {
            Vec::new()
        } else {
            vec![format!(
                "{fallbacks} remote operations fell back to local execution"
            )]
        }
    }
}
