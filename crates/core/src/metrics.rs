//! Runtime metrics: the counters behind the paper's overhead analysis
//! (Fig. 10(c) scheduling frequency, Fig. 10(f) tree size) plus speculation
//! accounting.
//!
//! Every counter is declared once, as a row of the table at the
//! `counters!` invocation below. A row gives the counter's name and doc,
//! its [`Fold`] (how shares combine), its [`Scope`] (per-query share or
//! engine-wide), and, for the instance-hot counters, the bump method that
//! operator instances call. The table generates [`Metrics`],
//! [`WorkerCounters`], [`WorkerSnapshot`] and [`MetricsSnapshot`], the
//! per-worker fold of [`Metrics::snapshot`], the hot bumps,
//! [`MetricsSnapshot::accumulate`] and the [`MetricsSnapshot::counters`]
//! iterator that the `/metrics` scrape and the decomposition tests read.
//!
//! The instance-hot counters are split into per-worker [`CachePadded`]
//! blocks when the metrics are built with [`Metrics::with_workers`]: each
//! operator instance then increments its own cache line instead of
//! ping-ponging one shared line between cores, and [`Metrics::snapshot`]
//! folds the blocks back into the aggregate. Metrics built without worker
//! blocks (`new`/`default`, e.g. per-query views) fall back to the shared
//! base atomics transparently.

use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a counter's shares combine into an aggregate or a rollup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Shares add up; exported as a Prometheus `counter`.
    Sum,
    /// A high-water mark: shares combine by maximum; exported as a
    /// Prometheus `gauge`.
    Max,
}

impl Fold {
    /// Folds `share` into `acc`.
    fn apply(self, acc: u64, share: u64) -> u64 {
        match self {
            Fold::Sum => acc + share,
            Fold::Max => acc.max(share),
        }
    }
}

/// Where a counter is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every query's view records its share, and the session aggregate is
    /// the [`Fold`] of the shares (a `Max` counter's aggregate is the
    /// high-water mark of all trees together, so it is at least the largest
    /// share).
    Query,
    /// Recorded for the engine as a whole: zero in per-query views and
    /// tenant rollups.
    Engine,
}

/// Sorts the rows of the counter table into all counters and the
/// instance-hot ones, then generates the metric types from both lists.
macro_rules! counters {
    (@sort [$($all:tt)*] [$($hot:tt)*]) => {
        counters!(@emit [$($all)*] [$($hot)*]);
    };
    (@sort [$($all:tt)*] [$($hot:tt)*]
        $(#[doc = $doc:literal])* $name:ident: $fold:ident, $scope:ident,
            hot $bump:ident($($n:ident)?);
        $($rest:tt)*
    ) => {
        counters!(@sort
            [$($all)* [$($doc)*] $name $fold $scope;]
            [$($hot)* [$($doc)*] $name $bump ($($n)?);]
            $($rest)*);
    };
    (@sort [$($all:tt)*] [$($hot:tt)*]
        $(#[doc = $doc:literal])* $name:ident: $fold:ident, $scope:ident;
        $($rest:tt)*
    ) => {
        counters!(@sort [$($all)* [$($doc)*] $name $fold $scope;] [$($hot)*] $($rest)*);
    };
    (@amount) => { "one" };
    (@amount $n:ident) => { concat!("`", stringify!($n), "`") };
    (@count) => { 1 };
    (@count $n:ident) => { $n };
    (@emit
        [$([$($doc:literal)*] $name:ident $fold:ident $scope:ident;)*]
        [$([$($hdoc:literal)*] $hot:ident $bump:ident ($($n:ident)?);)*]
    ) => {
        /// The instance-hot counters, one cache-padded block per worker (see
        /// the module docs). Fields mirror the same-named [`Metrics`]
        /// counters.
        #[derive(Debug, Default)]
        pub struct WorkerCounters {
            $($(#[doc = $hdoc])* pub $hot: AtomicU64,)*
        }

        impl WorkerCounters {
            /// Takes a plain-value snapshot of this worker's block.
            pub fn snapshot(&self) -> WorkerSnapshot {
                WorkerSnapshot {
                    $($hot: self.$hot.load(Ordering::Relaxed),)*
                }
            }
        }

        /// Plain-value snapshot of one worker's [`WorkerCounters`] block.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct WorkerSnapshot {
            $($(#[doc = $hdoc])* pub $hot: u64,)*
        }

        impl WorkerSnapshot {
            /// Every counter of the block as `(name, value)`, in table
            /// order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($hot), self.$hot),)*].into_iter()
            }
        }

        /// Shared atomic counters, updated by splitter and instances.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[doc = $doc])* pub $name: AtomicU64,)*
            /// Per-worker blocks for the instance-hot counters (empty unless
            /// built with [`Metrics::with_workers`]). [`Metrics::snapshot`]
            /// adds these to the base fields of the same names.
            workers: Vec<CachePadded<WorkerCounters>>,
        }

        impl Metrics {
            $(
                #[doc = concat!(
                    "Adds ", counters!(@amount $($n)?), " to `", stringify!($hot),
                    "` in worker `index`'s block, or in the base counter when \
                     the metrics have no such block."
                )]
                pub fn $bump(&self, index: usize $(, $n: u64)?) {
                    self.add_hot(index, counters!(@count $($n)?), |w| &w.$hot, |m| &m.$hot);
                }
            )*

            /// Takes a plain-value snapshot. The instance-hot counters fold
            /// every per-worker block into the base value, so the snapshot is
            /// the same aggregate whether or not the metrics were built
            /// `with_workers`.
            pub fn snapshot(&self) -> MetricsSnapshot {
                let mut snapshot = MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                };
                for w in &self.workers {
                    $(snapshot.$hot += w.$hot.load(Ordering::Relaxed);)*
                }
                snapshot
            }
        }

        /// Plain-value snapshot of [`Metrics`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[doc = $doc])* pub $name: u64,)*
        }

        impl MetricsSnapshot {
            /// Folds `other` into `self`, each counter by its [`Fold`]. The
            /// per-tenant rollups ([`crate::SpectreEngine::tenant_metrics`])
            /// are built with this.
            pub fn accumulate(&mut self, other: &MetricsSnapshot) {
                $(self.$name = Fold::$fold.apply(self.$name, other.$name);)*
            }

            /// Every counter as `(name, value, fold, scope)`, in table order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64, Fold, Scope)> {
                [$((stringify!($name), self.$name, Fold::$fold, Scope::$scope),)*].into_iter()
            }
        }
    };
    ($($rows:tt)*) => {
        counters!(@sort [] [] $($rows)*);
    };
}

// The counter table: `name: fold, scope[, hot bump(arg)];`, one row per
// counter, in export order.
counters! {
    /// Events processed by instances (excluding suppressed skips).
    events_processed: Sum, Query, hot add_events_processed(n);
    /// Events skipped because a suppressed group contained them.
    events_suppressed: Sum, Query, hot add_events_suppressed(n);
    /// Consumption groups created.
    cgs_created: Sum, Query;
    /// Consumption groups completed.
    cgs_completed: Sum, Query;
    /// Consumption groups abandoned.
    cgs_abandoned: Sum, Query;
    /// Consumption groups left open by a version that was reset, rolled
    /// back or dropped: they can no longer complete or abandon, so they are
    /// counted here, once. Every created group ends in exactly one of
    /// `cgs_completed`, `cgs_abandoned` and `cgs_discarded`.
    cgs_discarded: Sum, Query;
    /// Window versions created.
    versions_created: Sum, Query;
    /// Window versions dropped (wasted speculation).
    versions_dropped: Sum, Query;
    /// Window versions created by materializing lazy completion branches
    /// (the demand-driven subset of `versions_created`).
    versions_materialized: Sum, Query;
    /// Lazy completion branches discarded before ever being materialized —
    /// speculation the lazy tree made free (each one stands for a whole
    /// subtree copy the eager tree would have made and thrown away).
    lazy_versions_dropped: Sum, Query;
    /// Predictor refreshes performed by the splitter (each rebuilt the
    /// Markov completion-probability vectors).
    predictor_refreshes: Sum, Query;
    /// Cumulative wall-clock time spent in predictor refreshes, in
    /// nanoseconds (the `apply_stats` share of the splitter cycle).
    predictor_refresh_nanos: Sum, Query;
    /// Rollbacks (instance consistency check or final check).
    rollbacks: Sum, Query;
    /// Splitter maintenance + scheduling cycles.
    sched_cycles: Sum, Engine;
    /// Maximum observed live-version count (paper Fig. 10(f)). A query's
    /// view holds its own tree's high-water mark; the aggregate holds that
    /// of all trees together.
    max_tree_versions: Max, Query;
    /// Windows retired (fully processed and emitted).
    windows_retired: Sum, Query;
    /// Idle instance steps (no version scheduled).
    idle_steps: Sum, Engine, hot add_idle_step();
    /// Stalled instance steps (version waiting for ingestion).
    stalled_steps: Sum, Engine, hot add_stalled_step();
    /// Windows finished through the speculation-free lane of a query
    /// without a consumption policy (see [`Lane`](crate::shared::Lane)):
    /// no tree, no versions.
    lane_windows: Sum, Query, hot add_lane_window();
    /// Park-tier entries of the threaded workers' idle back-off (see
    /// `SharedState::park_worker`), including parks the worker's own
    /// re-check called off.
    worker_parks: Sum, Engine, hot add_worker_park();
    /// Parks a waker ended: each wake by `SharedState::wake_workers` or
    /// `wake_all` claims one park (parked → running) before it unparks the
    /// thread, so a park is ended at most once and this never exceeds
    /// `worker_parks`.
    worker_unparks: Sum, Engine, hot add_worker_unpark();
    /// Complex events committed (appended to the output stream at window
    /// retirement).
    outputs_emitted: Sum, Query;
    /// Window buffers opened, one per spec-group window. Engine-global:
    /// same-spec windows of different queries share one buffer, so in a
    /// multi-query session this stays below the per-query window counts.
    store_windows_opened: Sum, Engine;
    /// Windows a query never attached because its ingestion prefilter
    /// proved no contained event could match (see the per-query filters in
    /// the splitter): the window spec opened it, but the query paid no
    /// window-attach or tree cost for it.
    windows_skipped: Sum, Query;
    /// Out-of-order arrivals the reorder stage repaired (events whose
    /// timestamp was below the maximum already seen). Counted per query
    /// view, like `windows_retired`: every deployed query records the
    /// shared stage's delta, and the aggregate is the sum of the shares.
    events_reordered: Sum, Query;
    /// Late events (below the watermark) the reorder stage discarded. Per
    /// query view, like `events_reordered`.
    late_events_dropped: Sum, Query;
    /// Watermark advances emitted by the reorder stage. Per query view,
    /// like `events_reordered`.
    watermarks_advanced: Sum, Query;
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
}

impl MetricsSnapshot {
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
