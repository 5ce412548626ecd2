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
    /// 2. exactly the cached views/models whose predicate selects a changed
    ///    row are evicted ([`SharedCaches::invalidate_ingest`]) — warm
    ///    entries over untouched subtrees survive;
    /// 3. the session's root and current views are recomputed over the new
    ///    snapshot *only if* the ingest actually changed their contents.
    ///
    /// The next [`Session::recommend`] therefore reflects the post-ingest
    /// data while reusing every model whose training view the batch did not
    /// touch.
    pub fn ingest(&mut self, batch: &IngestBatch) -> Result<IngestReport> {
        let report = self.engine.ingest(batch)?;
        self.caches.invalidate_ingest(&report);
        if report.invalidates_view(&ViewKey::of_view(&self.root)) {
            self.root = self.engine.refresh_view(&self.root)?;
        }
        if report.invalidates_view(&ViewKey::of_view(&self.current)) {
            self.current = self.engine.refresh_view(&self.current)?;
        }
        Ok(report)
    }
}

impl reptile::IngestSink for Session {
    fn apply_batch(&mut self, batch: &IngestBatch) -> Result<IngestReport> {
        self.ingest(batch)
    }
}
