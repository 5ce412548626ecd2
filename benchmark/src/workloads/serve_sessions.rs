//! `serve_sessions`: the front door under drill sessions.
//!
//! Long panel; an in-process `Server` with the default configuration; two
//! `Client` connections, each on its own thread, each replaying a seeded
//! list of 4-step drill sessions (`γ(language, week)` → +access → +agent →
//! +page, every step restricted to the previous step's tuple as
//! `Session::accept` would). One op is one request.
//!
//! Session popularity is Zipf(1.0) over the panel's 432 (language, access,
//! agent, week) paths in a seeded order; the paths at every eighth
//! popularity rank complain `Std/TooHigh` (two models per hierarchy), the
//! rest `Mean/TooLow`. The hot paths hit the server's shared caches; the
//! tail overflows them (256 views, 128 models — see the README for the
//! arithmetic), so evictions are part of the workload.

use super::{
    assert_plants_rank_first, check, drill_requests, reference_answers, ProbeContext, Timed,
    Workload,
};
use crate::layers::{self, Answer, Request};
use crate::panel::{Panel, Rng, Subtree, Zipf, LONG};
use crate::stats;
use crate::trace::Trace;
use reptile::Direction;
use reptile_relational::AggregateKind;
use reptile_serve::{Client, Server};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Caller threads, one connection each (at most `nproc` on a 2-core host).
pub const CLIENTS: usize = 2;
/// Sessions in each client's list; the list is replayed cyclically.
const SESSIONS_PER_CLIENT: usize = 96;
const STEPS: usize = 4;
const ZIPF_EXPONENT: f64 = 1.0;
/// Every eighth popularity rank complains about the spread.
const STD_EVERY: usize = 8;

/// One connection and its request list (indices into the distinct
/// requests).
struct Lane {
    client: Client,
    stream: Vec<usize>,
    next: usize,
}

pub struct ServeSessions {
    panel: Arc<Panel>,
    server: Server,
    lanes: Vec<Lane>,
    requests: Vec<Request>,
    references: Vec<Answer>,
}

/// The seeded session lists: distinct requests and, per client, the
/// sequence of request indices.
pub(crate) fn session_streams(panel: &Panel, seed: u64) -> (Vec<Request>, Vec<Vec<usize>>) {
    let shape = panel.shape;
    let mut rng = Rng::fork(seed, 20);
    // popularity rank -> path, and the page each path's last step drills to
    let mut paths: Vec<(Subtree, usize)> = Vec::with_capacity(shape.paths());
    for language in 0..shape.languages {
        for access in 0..shape.accesses {
            for agent in 0..shape.agents {
                for week in 0..shape.weeks {
                    let path = Subtree {
                        language,
                        access,
                        agent,
                        week,
                    };
                    // a page the panel has rows for in this week
                    let page = rng.below(shape.pages);
                    let present = if panel.page_is_missing(path, page) {
                        page ^ 1
                    } else {
                        page
                    };
                    paths.push((path, present));
                }
            }
        }
    }
    rng.shuffle(&mut paths);
    let zipf = Zipf::new(paths.len(), ZIPF_EXPONENT);

    let mut requests: Vec<Request> = Vec::new();
    let mut index_of: BTreeMap<String, usize> = BTreeMap::new();
    let streams = (0..CLIENTS)
        .map(|_| {
            let mut stream = Vec::with_capacity(SESSIONS_PER_CLIENT * STEPS);
            for _ in 0..SESSIONS_PER_CLIENT {
                let rank = zipf.sample(&mut rng);
                let (path, page) = paths[rank];
                let (statistic, direction) = if rank % STD_EVERY == STD_EVERY - 1 {
                    (AggregateKind::Std, Direction::TooHigh)
                } else {
                    (AggregateKind::Mean, Direction::TooLow)
                };
                for request in drill_requests(panel, path, page, STEPS, statistic, direction) {
                    let index = *index_of.entry(format!("{request:?}")).or_insert_with(|| {
                        requests.push(request);
                        requests.len() - 1
                    });
                    stream.push(index);
                }
            }
            stream
        })
        .collect();
    (requests, streams)
}

impl Workload for ServeSessions {
    const NAME: &'static str = "serve_sessions";

    fn setup(seed: u64) -> Self {
        let panel = Arc::new(Panel::generate(LONG, seed));
        layers::warm_scan_cache(&panel.relation);
        assert_plants_rank_first(&panel);
        let (requests, streams) = session_streams(&panel, seed);
        let references = reference_answers(&panel.relation, &requests);

        let engine = layers::engine(&panel.relation, &reptile_relational::Exec::Serial, false);
        let server = layers::server_bind(&engine);
        let mut lanes: Vec<Lane> = streams
            .into_iter()
            .map(|stream| Lane {
                client: layers::client_connect(server.local_addr()),
                stream,
                next: 0,
            })
            .collect();
        // One-session warm-up through the door, checked.
        for &index in &lanes[0].stream.clone()[..STEPS] {
            let answer = layers::client_recommend(&mut lanes[0].client, &requests[index]);
            if let Err(what) = check(answer, &references[index]) {
                panic!("warm-up request failed its output check: {what}");
            }
        }
        ServeSessions {
            panel,
            server,
            lanes,
            requests,
            references,
        }
    }

    fn run(&mut self, budget: Duration, trace: &mut Trace) -> Timed {
        let (requests, references) = (&self.requests, &self.references);
        let lane_traces = trace.fork();
        let factor_before = layers::session_stats(self.server.engine());
        let cpu0 = stats::process_cpu_s();
        let start = Instant::now();
        let results: Vec<(Timed, Trace)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .enumerate()
                .map(|(lane_id, lane)| {
                    let mut trace = lane_traces.fork();
                    scope.spawn(move || {
                        let mut timed = Timed::default();
                        loop {
                            let index = lane.stream[lane.next % lane.stream.len()];
                            // op ids interleave the lanes: lane 0 even, lane 1 odd
                            let op_id = (lane.next * CLIENTS + lane_id) as u64;
                            lane.next += 1;
                            let t0 = Instant::now();
                            let (answer, _) = trace.span(op_id, "op", None, || {
                                layers::client_recommend(&mut lane.client, &requests[index])
                            });
                            timed.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            timed.attempted += 1;
                            if let Err(what) = check(answer, &references[index]) {
                                timed.fail(what);
                            }
                            if start.elapsed() >= budget {
                                break;
                            }
                        }
                        (timed, trace)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut total = Timed {
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: stats::process_cpu_s() - cpu0,
            ..Timed::default()
        };
        for (timed, lane_trace) in results {
            total.latencies_ms.extend(timed.latencies_ms);
            total.attempted += timed.attempted;
            total.failed += timed.failed;
            total.failures.extend(timed.failures);
            trace.absorb(lane_trace, None);
        }
        total.add_factor_stats(&factor_before, &layers::session_stats(self.server.engine()));
        total
    }

    fn probe_context(&self) -> ProbeContext {
        ProbeContext {
            panel: self.panel.clone(),
            relation: self.panel.relation.clone(),
            exec: reptile_relational::Exec::Serial,
            // the whole request stream, the lanes interleaved as they run
            requests: (0..SESSIONS_PER_CLIENT * STEPS)
                .flat_map(|at| self.lanes.iter().map(move |lane| lane.stream[at]))
                .map(|index| self.requests[index].clone())
                .collect(),
        }
    }

    fn finish(self) -> Vec<String> {
        drop(self.lanes);
        let ledger = layers::server_shutdown(self.server);
        let mut problems = Vec::new();
        if !ledger.conserved() {
            problems.push(format!("serve ledger is not conserved: {ledger:?}"));
        }
        let refused = ledger.overloaded + ledger.rejected + ledger.drained;
        if refused + ledger.protocol_errors + ledger.bad_requests > 0 {
            problems.push(format!("the front door refused requests: {ledger:?}"));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panel::Shape;

    #[test]
    fn session_streams_are_seeded_and_shaped() {
        let shape = Shape {
            name: "tiny",
            languages: 3,
            accesses: 2,
            agents: 2,
            pages: 4,
            weeks: 3,
            days: 2,
        };
        let panel = Panel::generate(shape, 5);
        let (requests, streams) = session_streams(&panel, 5);
        let (again, streams_again) = session_streams(&panel, 5);
        assert_eq!(requests, again);
        assert_eq!(streams, streams_again);
        let (_, other) = session_streams(&panel, 6);
        assert_ne!(streams, other);

        assert_eq!(streams.len(), CLIENTS);
        for stream in &streams {
            assert_eq!(stream.len(), SESSIONS_PER_CLIENT * STEPS);
            assert!(stream.iter().all(|&i| i < requests.len()));
            // every session starts at the top-level view and ends at page level
            for session in stream.chunks(STEPS) {
                assert_eq!(requests[session[0]].group_by.len(), 2);
                assert_eq!(requests[session[STEPS - 1]].group_by.len(), 5);
            }
        }
        // Zipf head: far fewer distinct requests than requests
        assert!(requests.len() < CLIENTS * SESSIONS_PER_CLIENT * STEPS / 2);
        let spread_complaints = requests
            .iter()
            .filter(|r| r.statistic == AggregateKind::Std)
            .count();
        assert!(spread_complaints > 0 && spread_complaints < requests.len() / 2);
    }
}
