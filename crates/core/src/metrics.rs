//! Runtime metrics: the counters behind the paper's overhead analysis
//! (Fig. 10(c) scheduling frequency, Fig. 10(f) tree size) plus speculation
//! accounting.
//!
//! The instance-hot counters (events processed/suppressed, idle and stalled
//! steps, lane windows, parks and unparks) are split into per-worker
//! [`CachePadded`] blocks when the metrics are built with
//! [`Metrics::with_workers`]: each operator instance then
//! increments its own cache line instead of ping-ponging one shared line
//! between cores, and [`Metrics::snapshot`] folds the blocks back into the
//! aggregate. Metrics built without worker blocks (`new`/`default`, e.g.
//! per-query views) fall back to the shared base atomics transparently.

use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// The instance-hot counters, one cache-padded block per worker (see the
/// module docs). Fields mirror the same-named [`Metrics`] counters.
#[derive(Debug, Default)]
pub struct WorkerCounters {
    /// Events processed by this worker (excluding suppressed skips).
    pub events_processed: AtomicU64,
    /// Events this worker skipped because a suppressed group contained them.
    pub events_suppressed: AtomicU64,
    /// Idle steps taken by this worker (no version scheduled).
    pub idle_steps: AtomicU64,
    /// Stalled steps taken by this worker (version waiting for ingestion).
    pub stalled_steps: AtomicU64,
    /// Windows this worker finished through a query's lane.
    pub lane_windows: AtomicU64,
    /// Times this worker entered the park tier of its idle back-off.
    pub worker_parks: AtomicU64,
    /// Parks of this worker that a waker claimed and ended with an unpark
    /// (at most one per park, so never above `worker_parks`).
    pub worker_unparks: AtomicU64,
}

impl WorkerCounters {
    /// Takes a plain-value snapshot of this worker's block.
    pub fn snapshot(&self) -> WorkerSnapshot {
        WorkerSnapshot {
            events_processed: self.events_processed.load(Ordering::Relaxed),
            events_suppressed: self.events_suppressed.load(Ordering::Relaxed),
            idle_steps: self.idle_steps.load(Ordering::Relaxed),
            stalled_steps: self.stalled_steps.load(Ordering::Relaxed),
            lane_windows: self.lane_windows.load(Ordering::Relaxed),
            worker_parks: self.worker_parks.load(Ordering::Relaxed),
            worker_unparks: self.worker_unparks.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of one worker's [`WorkerCounters`] block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct WorkerSnapshot {
    pub events_processed: u64,
    pub events_suppressed: u64,
    pub idle_steps: u64,
    pub stalled_steps: u64,
    pub lane_windows: u64,
    pub worker_parks: u64,
    pub worker_unparks: u64,
}

/// Shared atomic counters, updated by splitter and instances.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Events processed by instances (excluding suppressed skips).
    pub events_processed: AtomicU64,
    /// Events skipped because a suppressed group contained them.
    pub events_suppressed: AtomicU64,
    /// Consumption groups created.
    pub cgs_created: AtomicU64,
    /// Consumption groups completed.
    pub cgs_completed: AtomicU64,
    /// Consumption groups abandoned.
    pub cgs_abandoned: AtomicU64,
    /// Consumption groups left open by a version that was reset, rolled
    /// back or dropped: they can no longer complete or abandon, so they are
    /// counted here, once. Every created group ends in exactly one of
    /// `cgs_completed`, `cgs_abandoned` and `cgs_discarded`.
    pub cgs_discarded: AtomicU64,
    /// Window versions created.
    pub versions_created: AtomicU64,
    /// Window versions dropped (wasted speculation).
    pub versions_dropped: AtomicU64,
    /// Window versions created by materializing lazy completion branches
    /// (the demand-driven subset of `versions_created`).
    pub versions_materialized: AtomicU64,
    /// Lazy completion branches discarded before ever being materialized —
    /// speculation the lazy tree made free (each one stands for a whole
    /// subtree copy the eager tree would have made and thrown away).
    pub lazy_versions_dropped: AtomicU64,
    /// Predictor refreshes performed by the splitter (each rebuilt the
    /// Markov completion-probability vectors).
    pub predictor_refreshes: AtomicU64,
    /// Cumulative wall-clock time spent in predictor refreshes, in
    /// nanoseconds (the `apply_stats` share of the splitter cycle).
    pub predictor_refresh_nanos: AtomicU64,
    /// Rollbacks (instance consistency check or final check).
    pub rollbacks: AtomicU64,
    /// Splitter maintenance + scheduling cycles.
    pub sched_cycles: AtomicU64,
    /// Maximum observed live-version count (paper Fig. 10(f)).
    pub max_tree_versions: AtomicU64,
    /// Windows retired (fully processed and emitted).
    pub windows_retired: AtomicU64,
    /// Idle instance steps (no version scheduled).
    pub idle_steps: AtomicU64,
    /// Stalled instance steps (version waiting for ingestion).
    pub stalled_steps: AtomicU64,
    /// Windows finished through the speculation-free lane of a query
    /// without a consumption policy (see [`Lane`](crate::shared::Lane)):
    /// no tree, no versions.
    pub lane_windows: AtomicU64,
    /// Park-tier entries of the threaded workers' idle back-off (see
    /// `SharedState::park_worker`), including parks the worker's own
    /// re-check called off.
    pub worker_parks: AtomicU64,
    /// Parks a waker ended: each wake by `SharedState::wake_workers` or
    /// `wake_all` claims one park (parked → running) before it unparks the
    /// thread, so a park is ended at most once and this never exceeds
    /// `worker_parks`.
    pub worker_unparks: AtomicU64,
    /// Complex events committed (appended to the output stream at window
    /// retirement).
    pub outputs_emitted: AtomicU64,
    /// Window buffers opened, one per spec-group window. Engine-global:
    /// same-spec windows of different queries share one buffer, so in a
    /// multi-query session this stays below the per-query window counts.
    pub store_windows_opened: AtomicU64,
    /// Windows a query never attached because its ingestion prefilter
    /// proved no contained event could match (see the per-query filters in
    /// the splitter): the window spec opened it, but the query paid no
    /// window-attach or tree cost for it.
    pub windows_skipped: AtomicU64,
    /// Out-of-order arrivals the reorder stage repaired (events whose
    /// timestamp was below the maximum already seen). Counted per query
    /// view, like `windows_retired`: every deployed query records the
    /// shared stage's delta, and the aggregate is the sum of the shares.
    pub events_reordered: AtomicU64,
    /// Late events (below the watermark) the reorder stage discarded. Per
    /// query view, like `events_reordered`.
    pub late_events_dropped: AtomicU64,
    /// Watermark advances emitted by the reorder stage. Per query view,
    /// like `events_reordered`.
    pub watermarks_advanced: AtomicU64,
    /// Per-worker blocks for the instance-hot counters (empty unless built
    /// with [`Metrics::with_workers`]). [`Metrics::snapshot`] adds these to
    /// the base fields of the same names.
    workers: Vec<CachePadded<WorkerCounters>>,
}

impl Metrics {
    /// Creates zeroed metrics with no per-worker blocks: every counter,
    /// including the instance-hot ones, lands on the shared base atomics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates zeroed metrics with `workers` cache-padded per-worker blocks
    /// for the instance-hot counters.
    pub fn with_workers(workers: usize) -> Self {
        Metrics {
            workers: (0..workers).map(|_| CachePadded::default()).collect(),
            ..Self::default()
        }
    }

    /// This worker's counter block, or `None` when the metrics were built
    /// without one (then the base atomics are the destination).
    pub fn worker(&self, index: usize) -> Option<&WorkerCounters> {
        self.workers.get(index).map(|w| &**w)
    }

    /// Per-worker snapshots, in worker-index order (empty for metrics built
    /// without worker blocks).
    pub fn worker_snapshots(&self) -> Vec<WorkerSnapshot> {
        self.workers.iter().map(|w| w.snapshot()).collect()
    }

    /// Adds `n` to an instance-hot counter: `block`'s field in worker
    /// `index`'s block, or `base`, its same-named base field, when the
    /// metrics have no such block.
    fn add_hot(
        &self,
        index: usize,
        n: u64,
        block: fn(&WorkerCounters) -> &AtomicU64,
        base: fn(&Metrics) -> &AtomicU64,
    ) {
        let counter = self.worker(index).map_or_else(|| base(self), block);
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` processed events to worker `index`'s block.
    pub fn add_events_processed(&self, index: usize, n: u64) {
        self.add_hot(index, n, |w| &w.events_processed, |m| &m.events_processed);
    }

    /// Adds `n` suppressed events to worker `index`'s block.
    pub fn add_events_suppressed(&self, index: usize, n: u64) {
        self.add_hot(index, n, |w| &w.events_suppressed, |m| &m.events_suppressed);
    }

    /// Counts one idle step for worker `index`.
    pub fn add_idle_step(&self, index: usize) {
        self.add_hot(index, 1, |w| &w.idle_steps, |m| &m.idle_steps);
    }

    /// Counts one stalled step for worker `index`.
    pub fn add_stalled_step(&self, index: usize) {
        self.add_hot(index, 1, |w| &w.stalled_steps, |m| &m.stalled_steps);
    }

    /// Counts one window worker `index` finished through a lane.
    pub fn add_lane_window(&self, index: usize) {
        self.add_hot(index, 1, |w| &w.lane_windows, |m| &m.lane_windows);
    }

    /// Counts one park-tier entry of worker `index`.
    pub fn add_worker_park(&self, index: usize) {
        self.add_hot(index, 1, |w| &w.worker_parks, |m| &m.worker_parks);
    }

    /// Counts one unpark of worker `index`'s thread.
    pub fn add_worker_unpark(&self, index: usize) {
        self.add_hot(index, 1, |w| &w.worker_unparks, |m| &m.worker_unparks);
    }

    /// Adds `n` to the `counter` field of both this session aggregate and
    /// `query`'s share of it, so the two are always written together.
    /// Writes nothing when `n` is zero.
    pub(crate) fn add_shared(&self, query: &Metrics, counter: fn(&Metrics) -> &AtomicU64, n: u64) {
        if n > 0 {
            counter(self).fetch_add(n, Ordering::Relaxed);
            counter(query).fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records a tree-size observation, keeping the maximum.
    pub fn observe_tree_size(&self, size: u64) {
        self.max_tree_versions.fetch_max(size, Ordering::Relaxed);
    }

    /// Takes a plain-value snapshot. The instance-hot counters fold every
    /// per-worker block into the base value, so the snapshot is the same
    /// aggregate whether or not the metrics were built `with_workers`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut events_processed = self.events_processed.load(Ordering::Relaxed);
        let mut events_suppressed = self.events_suppressed.load(Ordering::Relaxed);
        let mut idle_steps = self.idle_steps.load(Ordering::Relaxed);
        let mut stalled_steps = self.stalled_steps.load(Ordering::Relaxed);
        let mut lane_windows = self.lane_windows.load(Ordering::Relaxed);
        let mut worker_parks = self.worker_parks.load(Ordering::Relaxed);
        let mut worker_unparks = self.worker_unparks.load(Ordering::Relaxed);
        for w in &self.workers {
            events_processed += w.events_processed.load(Ordering::Relaxed);
            events_suppressed += w.events_suppressed.load(Ordering::Relaxed);
            idle_steps += w.idle_steps.load(Ordering::Relaxed);
            stalled_steps += w.stalled_steps.load(Ordering::Relaxed);
            lane_windows += w.lane_windows.load(Ordering::Relaxed);
            worker_parks += w.worker_parks.load(Ordering::Relaxed);
            worker_unparks += w.worker_unparks.load(Ordering::Relaxed);
        }
        MetricsSnapshot {
            events_processed,
            events_suppressed,
            cgs_created: self.cgs_created.load(Ordering::Relaxed),
            cgs_completed: self.cgs_completed.load(Ordering::Relaxed),
            cgs_abandoned: self.cgs_abandoned.load(Ordering::Relaxed),
            cgs_discarded: self.cgs_discarded.load(Ordering::Relaxed),
            versions_created: self.versions_created.load(Ordering::Relaxed),
            versions_dropped: self.versions_dropped.load(Ordering::Relaxed),
            versions_materialized: self.versions_materialized.load(Ordering::Relaxed),
            lazy_versions_dropped: self.lazy_versions_dropped.load(Ordering::Relaxed),
            predictor_refreshes: self.predictor_refreshes.load(Ordering::Relaxed),
            predictor_refresh_nanos: self.predictor_refresh_nanos.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            sched_cycles: self.sched_cycles.load(Ordering::Relaxed),
            max_tree_versions: self.max_tree_versions.load(Ordering::Relaxed),
            windows_retired: self.windows_retired.load(Ordering::Relaxed),
            idle_steps,
            stalled_steps,
            lane_windows,
            worker_parks,
            worker_unparks,
            outputs_emitted: self.outputs_emitted.load(Ordering::Relaxed),
            store_windows_opened: self.store_windows_opened.load(Ordering::Relaxed),
            windows_skipped: self.windows_skipped.load(Ordering::Relaxed),
            events_reordered: self.events_reordered.load(Ordering::Relaxed),
            late_events_dropped: self.late_events_dropped.load(Ordering::Relaxed),
            watermarks_advanced: self.watermarks_advanced.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`Metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct MetricsSnapshot {
    pub events_processed: u64,
    pub events_suppressed: u64,
    pub cgs_created: u64,
    pub cgs_completed: u64,
    pub cgs_abandoned: u64,
    pub cgs_discarded: u64,
    pub versions_created: u64,
    pub versions_dropped: u64,
    pub versions_materialized: u64,
    pub lazy_versions_dropped: u64,
    pub predictor_refreshes: u64,
    pub predictor_refresh_nanos: u64,
    pub rollbacks: u64,
    pub sched_cycles: u64,
    pub max_tree_versions: u64,
    pub windows_retired: u64,
    pub idle_steps: u64,
    pub stalled_steps: u64,
    pub lane_windows: u64,
    pub worker_parks: u64,
    pub worker_unparks: u64,
    pub outputs_emitted: u64,
    pub store_windows_opened: u64,
    pub windows_skipped: u64,
    pub events_reordered: u64,
    pub late_events_dropped: u64,
    pub watermarks_advanced: u64,
}

impl MetricsSnapshot {
    /// Folds `other` into `self`: every summable counter adds, the
    /// high-water mark `max_tree_versions` takes the maximum. The
    /// per-tenant rollups ([`crate::SpectreEngine::tenant_metrics`]) are
    /// built with this, so a new counter added here keeps the
    /// tenant-decomposition invariant by construction.
    pub fn accumulate(&mut self, other: &MetricsSnapshot) {
        let MetricsSnapshot {
            events_processed,
            events_suppressed,
            cgs_created,
            cgs_completed,
            cgs_abandoned,
            cgs_discarded,
            versions_created,
            versions_dropped,
            versions_materialized,
            lazy_versions_dropped,
            predictor_refreshes,
            predictor_refresh_nanos,
            rollbacks,
            sched_cycles,
            max_tree_versions,
            windows_retired,
            idle_steps,
            stalled_steps,
            lane_windows,
            worker_parks,
            worker_unparks,
            outputs_emitted,
            store_windows_opened,
            windows_skipped,
            events_reordered,
            late_events_dropped,
            watermarks_advanced,
        } = *other;
        self.events_processed += events_processed;
        self.events_suppressed += events_suppressed;
        self.cgs_created += cgs_created;
        self.cgs_completed += cgs_completed;
        self.cgs_abandoned += cgs_abandoned;
        self.cgs_discarded += cgs_discarded;
        self.versions_created += versions_created;
        self.versions_dropped += versions_dropped;
        self.versions_materialized += versions_materialized;
        self.lazy_versions_dropped += lazy_versions_dropped;
        self.predictor_refreshes += predictor_refreshes;
        self.predictor_refresh_nanos += predictor_refresh_nanos;
        self.rollbacks += rollbacks;
        self.sched_cycles += sched_cycles;
        self.max_tree_versions = self.max_tree_versions.max(max_tree_versions);
        self.windows_retired += windows_retired;
        self.idle_steps += idle_steps;
        self.stalled_steps += stalled_steps;
        self.lane_windows += lane_windows;
        self.worker_parks += worker_parks;
        self.worker_unparks += worker_unparks;
        self.outputs_emitted += outputs_emitted;
        self.store_windows_opened += store_windows_opened;
        self.windows_skipped += windows_skipped;
        self.events_reordered += events_reordered;
        self.late_events_dropped += late_events_dropped;
        self.watermarks_advanced += watermarks_advanced;
    }

    /// Fraction of processing that survived (was not spent on later-dropped
    /// versions); a rough utility measure of the speculation.
    pub fn cg_completion_ratio(&self) -> f64 {
        let resolved = self.cgs_completed + self.cgs_abandoned;
        if resolved == 0 {
            1.0
        } else {
            self.cgs_completed as f64 / resolved as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::new();
        m.events_processed.fetch_add(5, Ordering::Relaxed);
        m.rollbacks.fetch_add(2, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.events_processed, 5);
        assert_eq!(s.rollbacks, 2);
        assert_eq!(s.cgs_created, 0);
    }

    #[test]
    fn worker_blocks_fold_into_the_snapshot() {
        let m = Metrics::with_workers(3);
        assert_eq!(m.worker_snapshots().len(), 3);
        m.add_events_processed(0, 5);
        m.add_events_processed(2, 7);
        m.add_events_suppressed(1, 2);
        m.add_idle_step(1);
        m.add_stalled_step(2);
        m.add_lane_window(0);
        m.add_lane_window(2);
        m.add_worker_park(1);
        m.add_worker_park(1);
        m.add_worker_unpark(0);
        // Out-of-range worker indices land on the base atomics.
        m.add_events_processed(9, 11);
        let s = m.snapshot();
        assert_eq!(s.events_processed, 23);
        assert_eq!(s.events_suppressed, 2);
        assert_eq!(s.idle_steps, 1);
        assert_eq!(s.stalled_steps, 1);
        assert_eq!(s.lane_windows, 2);
        assert_eq!((s.worker_parks, s.worker_unparks), (2, 1));
        assert_eq!(m.worker_snapshots()[1].worker_parks, 2);
        // The aggregate is exactly the base residual plus the block sums.
        let per: Vec<WorkerSnapshot> = m.worker_snapshots();
        let block_sum: u64 = per.iter().map(|w| w.events_processed).sum();
        let base = m.events_processed.load(Ordering::Relaxed);
        assert_eq!(base + block_sum, s.events_processed);
        assert_eq!(per[0].events_processed, 5);
        assert_eq!(per[2].events_processed, 7);
    }

    #[test]
    fn workerless_metrics_fall_back_to_base_atomics() {
        let m = Metrics::new();
        assert_eq!(m.worker_snapshots().len(), 0);
        assert!(m.worker(0).is_none());
        m.add_events_processed(0, 4);
        m.add_idle_step(3);
        assert_eq!(m.events_processed.load(Ordering::Relaxed), 4);
        assert_eq!(m.idle_steps.load(Ordering::Relaxed), 1);
        assert_eq!(m.snapshot().events_processed, 4);
        assert!(m.worker_snapshots().is_empty());
    }

    #[test]
    fn tree_size_keeps_maximum() {
        let m = Metrics::new();
        m.observe_tree_size(10);
        m.observe_tree_size(4);
        m.observe_tree_size(17);
        assert_eq!(m.snapshot().max_tree_versions, 17);
    }

    #[test]
    fn accumulate_sums_counters_and_maxes_the_high_water_mark() {
        let mut acc = MetricsSnapshot {
            events_processed: 3,
            max_tree_versions: 10,
            windows_skipped: 1,
            ..Default::default()
        };
        acc.accumulate(&MetricsSnapshot {
            events_processed: 4,
            max_tree_versions: 7,
            windows_skipped: 2,
            outputs_emitted: 5,
            ..Default::default()
        });
        assert_eq!(acc.events_processed, 7);
        assert_eq!(acc.max_tree_versions, 10);
        assert_eq!(acc.windows_skipped, 3);
        assert_eq!(acc.outputs_emitted, 5);
    }

    #[test]
    fn completion_ratio() {
        let s = MetricsSnapshot {
            cgs_completed: 3,
            cgs_abandoned: 1,
            ..Default::default()
        };
        assert!((s.cg_completion_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(MetricsSnapshot::default().cg_completion_ratio(), 1.0);
    }
}
