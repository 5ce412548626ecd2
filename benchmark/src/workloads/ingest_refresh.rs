//! `ingest_refresh`: the write path.
//!
//! Long panel; one `Session` (serial engine) holding a standing
//! `Mean/TooLow` complaint on the value-error tuple of `γ(language, week)`.
//! Batches come from the panel's [`Feed`]: appends (900 rows, a new day for
//! one language — the `time` path set grows) alternate with corrections
//! (delete + re-insert 50 rows of the planted subtree — the path set is
//! unchanged). One op is one cycle of the feed: `Session::ingest(append)`,
//! `Session::recommend`, `Session::ingest(correction)`,
//! `Session::recommend` — an append and a correction cost differently, so
//! an op of one batch would make the median latency jump between the two.
//! The same relational, factor and cache code as the read workloads, used
//! for writes.
//!
//! Per-op references would need a cold serial engine per snapshot, so the
//! output check is: every op must succeed, and after the run the session's
//! recommendation must be `==` to a fresh serial engine's over the final
//! snapshot.

use super::{
    assert_plants_rank_first, closed_loop, language_week_request, ProbeContext, Timed, Workload,
};
use crate::layers::{self, Request};
use crate::panel::{Feed, Panel, LONG};
use crate::trace::Trace;
use reptile::{Direction, Reptile};
use reptile_relational::{AggregateKind, Exec};
use reptile_session::Session;
use std::sync::Arc;
use std::time::Duration;

/// An append and a correction.
const BATCHES_PER_OP: usize = 2;

pub struct IngestRefresh {
    panel: Arc<Panel>,
    engine: Arc<Reptile>,
    session: Session,
    standing: Request,
    feed: Feed,
    next: u64,
}

impl Workload for IngestRefresh {
    const NAME: &'static str = "ingest_refresh";

    fn setup(seed: u64) -> Self {
        let panel = Arc::new(Panel::generate(LONG, seed));
        layers::warm_scan_cache(&panel.relation);
        assert_plants_rank_first(&panel);
        let plant = panel.value_error;
        let standing = language_week_request(
            &panel,
            plant.language,
            plant.week,
            AggregateKind::Mean,
            Direction::TooLow,
        );
        let engine = layers::engine(&panel.relation, &Exec::Serial, false);
        let view = layers::view_scan(&panel.relation, &standing, &Exec::Serial);
        let mut session = layers::session(&engine, view);
        // Warm the session (models trained, caches filled) before timing.
        layers::session_recommend(&mut session, &standing.complaint())
            .unwrap_or_else(|e| panic!("warm-up recommendation failed: {e}"));
        IngestRefresh {
            feed: Feed::new(&panel),
            panel,
            engine,
            session,
            standing,
            next: 0,
        }
    }

    fn run(&mut self, budget: Duration, trace: &mut Trace) -> Timed {
        let complaint = self.standing.complaint();
        closed_loop(budget, |timed| {
            let op_id = self.next;
            self.next += 1;
            let before = layers::session_stats(&self.engine);
            let root = trace.begin(op_id, "op", None);
            let mut outcome = Ok(());
            for _ in 0..BATCHES_PER_OP {
                let batch = self.feed.next_batch();
                let (ingested, _) = trace.span(op_id, "session.ingest", Some(root), || {
                    layers::session_ingest(&mut self.session, &batch)
                });
                let (answer, _) = trace.span(op_id, "session.recommend", Some(root), || {
                    layers::session_recommend(&mut self.session, &complaint)
                });
                outcome = outcome.and(ingested).and(answer.map(|_| ()));
            }
            trace.end(root);
            timed.add_factor_stats(&before, &layers::session_stats(&self.engine));
            outcome
        })
    }

    fn probe_context(&self) -> ProbeContext {
        ProbeContext {
            panel: self.panel.clone(),
            relation: self.engine.relation(),
            exec: Exec::Serial,
            // the workload's request stream: the standing complaint, again
            // and again
            requests: vec![self.standing.clone(); 8],
        }
    }

    fn finish(mut self) -> Vec<String> {
        let complaint = self.standing.complaint();
        let relation = self.engine.relation();
        let served = layers::session_recommend(&mut self.session, &complaint);
        let fresh = layers::engine(&relation, &Exec::Serial, false);
        let view = layers::view_scan(&relation, &self.standing, &Exec::Serial);
        let expected = layers::recommend(&fresh, &view, &complaint);
        if served == expected && served.is_ok() {
            Vec::new()
        } else {
            vec![format!(
                "after {} feed cycles the session recommends {served:?}, a fresh serial engine over \
                 the final snapshot {expected:?}",
                self.next
            )]
        }
    }
}
