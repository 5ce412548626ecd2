//! The interactive drill-down session (complain → recommend → accept →
//! complain one level deeper).
//!
//! A [`Session`] owns the analyst's current view and a [`SharedCaches`].
//! Every [`Session::recommend`] goes through
//! [`reptile::Reptile::recommend_with_cache`] with a handle pinned to the
//! current view, so re-posing a complaint over an unchanged view reuses the
//! trained models (zero retraining), and [`Session::accept`] drills the
//! current view down through the view cache.

use crate::cache::{CachesSnapshot, SharedCaches};
use reptile::{Complaint, IngestReport, Recommendation, Reptile, ReptileError, Result, ViewKey};
use reptile_relational::{GroupKey, IngestBatch, View};
use std::sync::Arc;

/// One accepted drill-down step.
#[derive(Debug, Clone)]
pub struct DrillStep {
    /// The hierarchy that was drilled.
    pub hierarchy: String,
    /// The attribute the drill-down appended to the group-by list.
    pub added_attribute: String,
    /// The complained tuple whose provenance the session descended into.
    pub complaint_key: GroupKey,
}

/// A stateful interactive explanation session over one engine.
pub struct Session {
    engine: Arc<Reptile>,
    caches: SharedCaches,
    root: Arc<View>,
    current: Arc<View>,
    path: Vec<DrillStep>,
}

impl Session {
    /// Start a session at `initial_view` (typically the coarse view the
    /// analyst first complained about).
    pub fn new(engine: Arc<Reptile>, initial_view: View) -> Self {
        let root = Arc::new(initial_view);
        // Sync the fresh caches to the engine's current snapshot: an engine
        // that already ingested would otherwise refuse them cache access
        // (their ingest horizon would lag the relation version forever).
        let caches = SharedCaches::new();
        caches.sync_with(&engine.relation());
        Session {
            engine,
            caches,
            current: root.clone(),
            root,
            path: Vec::new(),
        }
    }

    /// The engine serving this session.
    pub fn engine(&self) -> &Arc<Reptile> {
        &self.engine
    }

    /// The analyst's current view.
    pub fn view(&self) -> &View {
        &self.current
    }

    /// The accepted drill-down steps, root first.
    pub fn path(&self) -> &[DrillStep] {
        &self.path
    }

    /// Number of accepted drill-downs.
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// Aggregated snapshot of the session cache's statistics (see
    /// [`SharedCaches::stats_snapshot`]).
    pub fn stats_snapshot(&self) -> CachesSnapshot {
        self.caches.stats_snapshot()
    }

    /// The views the session's cache holds (see
    /// [`SharedCaches::cached_views`]).
    pub fn cached_views(&self) -> Vec<Arc<View>> {
        self.caches.cached_views()
    }

    /// Recommend a drill-down for `complaint` posed against the current
    /// view, reusing cached views and trained models.
    pub fn recommend(&mut self, complaint: &Complaint) -> Result<Recommendation> {
        self.engine.recommend_with_cache(
            &self.current,
            complaint,
            &self.caches.handle_for(&self.current),
        )
    }

    /// Accept a recommendation: descend into the provenance of
    /// `complaint_key` along `hierarchy`, making the drilled-down view the
    /// session's current view. The next complaint is posed one level deeper.
    pub fn accept(&mut self, complaint_key: &GroupKey, hierarchy: &str) -> Result<&View> {
        let h = self
            .engine
            .schema()
            .hierarchy(hierarchy)
            .cloned()
            .map_err(ReptileError::from)?;
        let cache = self.caches.handle_for(&self.current);
        let (view, added) =
            self.engine
                .drill_down_cached(&self.current, complaint_key, &h, &cache)?;
        self.path.push(DrillStep {
            hierarchy: h.name.clone(),
            added_attribute: self.engine.schema().name(added).to_string(),
            complaint_key: complaint_key.clone(),
        });
        self.current = view;
        Ok(&self.current)
    }

    /// Return to the initial view, keeping the caches warm.
    pub fn reset(&mut self) {
        self.current = self.root.clone();
        self.path.clear();
    }

    /// Stream an [`IngestBatch`] into the session's engine and bring the
    /// session up to date with versioned invalidation:
    ///
    /// 1. the engine advances its relation to the next snapshot
    ///    ([`Reptile::ingest`]);
    /// 2. the cache moves its views over the previous snapshot to the new
    ///    one by the batch, and drops the other views and the models whose
    ///    predicate selects a changed row ([`SharedCaches::invalidate_ingest`]);
    ///    warm entries over untouched subtrees survive;
    /// 3. the session's root and current views advance by the batch
    ///    ([`View::advance`]); one the batch changed that cannot advance is
    ///    recomputed ([`Reptile::refresh_view`]). At depth 0 they are one
    ///    view, moved once and kept one `Arc`.
    ///
    /// The next [`Session::recommend`] therefore reflects the post-ingest
    /// data while reusing every model whose training view the batch did not
    /// touch.
    pub fn ingest(&mut self, batch: &IngestBatch) -> Result<IngestReport> {
        let report = self.engine.ingest(batch)?;
        self.caches.invalidate_ingest(&report);
        let at_root = Arc::ptr_eq(&self.root, &self.current);
        self.root = self.moved(&self.root, &report)?;
        self.current = if at_root {
            self.root.clone()
        } else {
            self.moved(&self.current, &report)?
        };
        Ok(report)
    }

    /// `view` after the ingest `report` describes: advanced by its batch
    /// when that reaches, recomputed when the batch changed its contents,
    /// kept otherwise.
    fn moved(&self, view: &Arc<View>, report: &IngestReport) -> Result<Arc<View>> {
        if let Some(advanced) = view.advance(&report.relation) {
            Ok(Arc::new(advanced))
        } else if report.invalidates_view(&ViewKey::of_view(view)) {
            self.engine.refresh_view(view)
        } else {
            Ok(view.clone())
        }
    }
}

impl reptile::IngestSink for Session {
    fn apply_batch(&mut self, batch: &IngestBatch) -> Result<IngestReport> {
        self.ingest(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reptile_relational::{Exec, Predicate, Relation, Schema, Value};

    #[test]
    fn an_ingest_at_depth_0_keeps_root_and_current_one_view() {
        let schema = Arc::new(
            Schema::builder()
                .hierarchy("geo", ["district", "village"])
                .measure("severity")
                .build()
                .unwrap(),
        );
        let mut builder = Relation::builder(schema.clone());
        for (d, v, s) in [
            ("D1", "D1-a", 8.0),
            ("D1", "D1-b", 1.5),
            ("D2", "D2-a", 7.5),
        ] {
            builder = builder
                .row([Value::str(d), Value::str(v), Value::float(s)])
                .unwrap();
        }
        let relation = Arc::new(builder.build());
        let [district, severity] = ["district", "severity"].map(|n| schema.attr(n).unwrap());
        let view = View::compute(
            relation.clone(),
            Predicate::all(),
            vec![district],
            severity,
            &Exec::Serial,
        )
        .unwrap();
        let engine = Arc::new(Reptile::new(relation, schema));
        let mut session = Session::new(engine.clone(), view);
        let batch =
            IngestBatch::new().insert([Value::str("D2"), Value::str("D2-b"), Value::float(9.0)]);
        session.ingest(&batch).unwrap();
        assert!(Arc::ptr_eq(&session.root, &session.current));
        assert_eq!(session.view().relation().version(), 1);
        let cold = View::compute(
            engine.relation(),
            Predicate::all(),
            vec![district],
            severity,
            &Exec::Serial,
        )
        .unwrap();
        assert_eq!(session.view(), &cold);
    }
}
