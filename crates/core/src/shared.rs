//! State shared between the splitter and the operator instances.
//!
//! The communication structure follows paper §3.3: instances buffer their
//! dependency-tree function calls ([`TreeOp`]) and Markov-model observations
//! ([`StatsBatch`]); the splitter drains and applies them in batches at each
//! maintenance cycle. Scheduling is a set of per-instance slots the splitter
//! writes and instances poll (paper Fig. 8 lines 7–9).
//!
//! Every hot-path structure here moves data in batches: events travel
//! through the sharded [`WindowStore`] in runs (see
//! [`EventBatch`](crate::splitter::EventBatch)), tree ops are flushed with
//! `SegQueue::push_many` / drained with `SegQueue::pop_many` (one lock
//! acquisition per batch), and the `ingested` watermark is published once
//! per batch rather than once per event.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use crossbeam::queue::SegQueue;
use parking_lot::Mutex;

use crate::cg::{CgCell, CgId};
use crate::config::SpectreConfig;
use crate::metrics::Metrics;
use crate::store::WindowStore;
use crate::version::{VersionState, WvId};

/// Identifies one deployed query within an engine session.
///
/// Ids are allocated densely by the splitter in deployment order and are
/// never reused, so a retired query's id stays invalid for the rest of the
/// session. All cross-thread traffic ([`TreeOp`]s, [`StatsBatch`]es,
/// committed outputs) is tagged with the owning query's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u32);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Identifies one tenant — an owner of deployed queries — within an
/// engine session.
///
/// Tenancy is a pure policy layer over the shared mechanism (splitter,
/// store, instance pool): every query belongs to exactly one tenant, and
/// the splitter's top-k schedule divides the instance slots and the
/// speculation budget between tenants by their
/// [`TenantQuota`](crate::config::TenantQuota) weights. Sessions that
/// never mention tenants run everything under [`TenantId::DEFAULT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The implicit owner of queries deployed through the tenant-less
    /// surface (`add_query`, `deploy_query`).
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A buffered dependency-tree update from an operator instance
/// (the function calls of paper Fig. 4 / Fig. 8).
#[derive(Debug)]
pub enum TreeOp {
    /// A version created a consumption group
    /// (`consumptionGroupCreated`).
    CgCreated {
        /// The creating version.
        creator: WvId,
        /// The new group.
        cell: Arc<CgCell>,
    },
    /// A consumption group completed or was abandoned
    /// (`consumptionGroupCompleted` / `consumptionGroupAbandoned`).
    CgResolved {
        /// The resolved group.
        cg: CgId,
        /// `true` for completion.
        completed: bool,
    },
    /// A version processed its whole window.
    WvFinished {
        /// The finished version.
        wv: WvId,
    },
    /// A version detected an inconsistency and reset itself; the splitter
    /// must rebuild its dependent subtree and revoke the completions its
    /// discarded processing produced.
    WvRolledBack {
        /// The rolled-back version.
        wv: WvId,
        /// Completed groups of the discarded processing that the rollback
        /// does not carry over (see
        /// [`VersionState::rollback_state`](crate::version::VersionState::rollback_state)).
        revoked: Vec<Arc<CgCell>>,
    },
}

/// A batch of observed `(δ_old, δ_new)` transitions for the Markov model.
#[derive(Debug, Default)]
pub struct StatsBatch {
    /// The transitions.
    pub transitions: Vec<(u32, u32)>,
}

/// Capacity of each instance's run-ahead FIFO (see [`SlotCell`]): how many
/// final window versions the splitter may queue behind one scheduled head.
/// A consumption-free query therefore nominates up to
/// `k·(1 + RUN_AHEAD_DEPTH)` versions per scheduling cycle.
pub const RUN_AHEAD_DEPTH: usize = 4;

/// The mutex-guarded contents of a [`SlotCell`].
#[derive(Debug, Default)]
struct Slot {
    /// The scheduled head version (the top-k assignment).
    head: Option<Arc<VersionState>>,
    /// Final versions queued behind the head, oldest first. The front
    /// stays queued while the instance processes it and leaves once it is
    /// finished (or dropped).
    ahead: VecDeque<Arc<VersionState>>,
}

/// One instance's scheduling slot with seq-numbered publication, plus the
/// instance's run-ahead FIFO.
///
/// The splitter [`publish`](SlotCell::publish)es assignments rarely (only
/// when the top-k schedule actually moves a version), while every instance
/// step starts by checking its slot. The sequence number makes the common
/// unchanged case lock-free: [`observe`](SlotCell::observe) compares one
/// atomic against the caller's cached value and touches the mutex only when
/// a new assignment was published, so a polling instance no longer bounces
/// the slot's lock line against the splitter's scheduling pass.
///
/// Behind the head sits a FIFO of up to [`RUN_AHEAD_DEPTH`] **final**
/// versions — of a query without a consumption policy, over a window that
/// is closed and fully ingested — which the instance takes itself whenever
/// the head is finished, idle or stalled, instead of waiting for the next
/// splitter cycle. Final versions can neither stall nor be suppressed,
/// rolled back or replaced, so running them in any order is safe. The
/// FIFO shares the slot's mutex; its length is mirrored in an atomic so an
/// instance with nothing queued checks it without locking.
#[derive(Debug, Default)]
pub struct SlotCell {
    seq: AtomicU64,
    ahead_len: AtomicUsize,
    value: Mutex<Slot>,
}

impl SlotCell {
    /// Publishes a new assignment and bumps the publication sequence.
    pub fn publish(&self, v: Option<Arc<VersionState>>) {
        let mut guard = self.value.lock();
        guard.head = v;
        // Bumped under the lock, so an observer that wins the lock after
        // seeing the new sequence is guaranteed to read the new value.
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// Appends final versions to the run-ahead FIFO (splitter side),
    /// dropping queued entries that are already finished or dropped. The
    /// caller keeps the FIFO within [`RUN_AHEAD_DEPTH`] live entries.
    pub fn enqueue_ahead(&self, versions: impl IntoIterator<Item = Arc<VersionState>>) {
        let mut guard = self.value.lock();
        guard.ahead.retain(|v| !v.is_finished() && !v.is_dropped());
        guard.ahead.extend(versions);
        self.ahead_len.store(guard.ahead.len(), Ordering::Release);
    }

    /// The run-ahead FIFO's front version (instance side): pops finished or
    /// dropped fronts first and returns the first live one, which stays
    /// queued until it finishes. Lock-free when the FIFO is empty.
    pub fn ahead_front(&self) -> Option<Arc<VersionState>> {
        if self.ahead_len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut guard = self.value.lock();
        while guard
            .ahead
            .front()
            .is_some_and(|v| v.is_finished() || v.is_dropped())
        {
            guard.ahead.pop_front();
        }
        self.ahead_len.store(guard.ahead.len(), Ordering::Release);
        guard.ahead.front().cloned()
    }

    /// Number of queued run-ahead versions, including finished ones the
    /// instance has not popped yet (diagnostics and tests).
    pub fn ahead_len(&self) -> usize {
        self.ahead_len.load(Ordering::Acquire)
    }

    /// Checks for a publication newer than `last_seen`.
    ///
    /// Returns `None` without locking when nothing was published since the
    /// caller's previous observation (the per-step common case). Otherwise
    /// advances `last_seen` and returns the current assignment — possibly
    /// `Some(None)` when the slot was cleared.
    pub fn observe(&self, last_seen: &mut u64) -> Option<Option<Arc<VersionState>>> {
        if self.seq.load(Ordering::Acquire) == *last_seen {
            return None;
        }
        let guard = self.value.lock();
        *last_seen = self.seq.load(Ordering::Acquire);
        Some(guard.head.clone())
    }

    /// Clones the current assignment (test/diagnostic path; takes the lock).
    pub fn load(&self) -> Option<Arc<VersionState>> {
        self.value.lock().head.clone()
    }
}

/// Everything splitter and instances share.
#[derive(Debug)]
pub struct SharedState {
    /// The sharded per-window event buffers.
    pub store: WindowStore,
    /// Per-instance scheduling slot.
    pub slots: Vec<SlotCell>,
    /// Buffered tree updates (instances → splitter), tagged with the query
    /// whose tree they belong to. Ops for a query retired in the meantime
    /// are dropped as stale when drained.
    pub ops: SegQueue<(QueryId, TreeOp)>,
    /// Buffered Markov observations (instances → splitter), tagged with the
    /// query whose predictor they feed.
    pub stats: SegQueue<(QueryId, StatsBatch)>,
    /// Number of events ingested so far, published once per
    /// [`EventBatch`](crate::splitter::EventBatch) flush. Diagnostics /
    /// monitoring watermark only: instances detect readable events through
    /// the window store's buffers, not this counter.
    pub ingested: AtomicU64,
    /// Set once the input stream is exhausted.
    pub ingest_done: AtomicBool,
    /// Set once all windows retired; instances shut down.
    pub done: AtomicBool,
    /// Shared counters (built with one per-worker block per instance, so
    /// the instance-hot counters stay off shared cache lines).
    pub metrics: Metrics,
    next_cg: AtomicU64,
    next_wv: AtomicU64,
    /// Worker thread handles, registered by each threaded worker on entry
    /// (`None` for simulated instances, which never park).
    worker_threads: Mutex<Vec<Option<Thread>>>,
    /// How many workers are currently inside `park_timeout`. Lets
    /// [`unpark_workers`](Self::unpark_workers) skip the registry lock in
    /// the nobody-parked common case.
    parked: AtomicUsize,
}

impl SharedState {
    /// Creates shared state for `instances` operator instances with the
    /// default window-store shard count.
    pub fn new(instances: usize) -> Arc<Self> {
        Self::with_shards(instances, SpectreConfig::default().store_shards)
    }

    /// Creates shared state for a configuration (instance count and
    /// window-store shard count).
    pub fn for_config(config: &SpectreConfig) -> Arc<Self> {
        Self::with_shards(config.instances, config.store_shards)
    }

    /// Creates shared state for `instances` operator instances and a
    /// window store with `shards` shards.
    pub fn with_shards(instances: usize, shards: usize) -> Arc<Self> {
        Arc::new(SharedState {
            store: WindowStore::new(shards),
            slots: (0..instances).map(|_| SlotCell::default()).collect(),
            ops: SegQueue::new(),
            stats: SegQueue::new(),
            ingested: AtomicU64::new(0),
            ingest_done: AtomicBool::new(false),
            done: AtomicBool::new(false),
            metrics: Metrics::with_workers(instances),
            next_cg: AtomicU64::new(0),
            next_wv: AtomicU64::new(0),
            worker_threads: Mutex::new((0..instances).map(|_| None).collect()),
            parked: AtomicUsize::new(0),
        })
    }

    /// Number of operator instances.
    pub fn instance_count(&self) -> usize {
        self.slots.len()
    }

    /// Registers the calling thread as worker `index`, making it reachable
    /// by [`unpark_workers`](Self::unpark_workers). Threaded workers call
    /// this on entry; simulated instances never do.
    pub fn register_worker(&self, index: usize) {
        let mut threads = self.worker_threads.lock();
        if index < threads.len() {
            threads[index] = Some(std::thread::current());
        }
    }

    /// Brackets one `park_timeout` in the parked-worker count. The caller
    /// must re-check its wake conditions *after* incrementing and before
    /// parking; together with the bounded timeout that makes a missed
    /// unpark cost at most one timeout, never a hang.
    pub fn note_parked(&self) {
        self.parked.fetch_add(1, Ordering::SeqCst);
    }

    /// See [`note_parked`](Self::note_parked).
    pub fn note_unparked(&self) {
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes every parked worker. Cheap when nobody is parked (one atomic
    /// load); otherwise unparks all registered worker threads — unpark
    /// tokens are sticky, so racing with a worker about to park is safe.
    pub fn unpark_workers(&self) {
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let threads = self.worker_threads.lock();
        for t in threads.iter().flatten() {
            t.unpark();
        }
    }

    /// Allocates a consumption-group id.
    pub fn alloc_cg_id(&self) -> CgId {
        CgId(self.next_cg.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocates a window-version id.
    pub fn alloc_wv_id(&self) -> WvId {
        WvId(self.next_wv.fetch_add(1, Ordering::Relaxed))
    }

    /// `true` once processing completed.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_allocation_is_unique() {
        let s = SharedState::new(2);
        let a = s.alloc_cg_id();
        let b = s.alloc_cg_id();
        assert_ne!(a, b);
        let x = s.alloc_wv_id();
        let y = s.alloc_wv_id();
        assert_ne!(x, y);
        assert_eq!(s.instance_count(), 2);
    }

    #[test]
    fn for_config_sizes_store_and_slots() {
        let config = SpectreConfig::with_batching(3, 16, 4);
        let s = SharedState::for_config(&config);
        assert_eq!(s.instance_count(), 3);
        assert_eq!(s.store.shard_count(), 4);
    }

    #[test]
    fn slot_observation_is_seq_gated() {
        let cell = SlotCell::default();
        let mut seen = cell.seq.load(Ordering::Relaxed);
        // Nothing published yet: the lock-free fast path reports no change.
        assert!(cell.observe(&mut seen).is_none());
        cell.publish(None);
        // A publication (even of "no assignment") is observed exactly once.
        assert!(matches!(cell.observe(&mut seen), Some(None)));
        assert!(cell.observe(&mut seen).is_none());
        // A second observer with its own cursor still sees it.
        let mut other = 0;
        assert!(matches!(cell.observe(&mut other), Some(None)));
    }

    #[test]
    fn run_ahead_front_stays_queued_until_finished() {
        use crate::store::WindowInfo;
        use spectre_query::{Expr, Pattern, Query, WindowSpec};
        let x = spectre_events::AttrKey::new(0);
        let query = Arc::new(
            Query::builder("t")
                .pattern(
                    Pattern::builder()
                        .one("A", Expr::current(x).eq_(Expr::value(1.0)))
                        .build()
                        .unwrap(),
                )
                .window(WindowSpec::count_sliding(4, 4).unwrap())
                .build()
                .unwrap(),
        );
        let version = |id: u64| {
            VersionState::new(
                WvId(id),
                Arc::new(WindowInfo::new(id, id, 0, 0)),
                Arc::clone(&query),
                vec![],
            )
        };
        let cell = SlotCell::default();
        // Empty FIFO: no front, and no lock taken to find that out.
        assert_eq!(cell.ahead_len(), 0);
        assert!(cell.ahead_front().is_none());
        let (a, b) = (version(0), version(1));
        cell.enqueue_ahead([Arc::clone(&a), Arc::clone(&b)]);
        assert_eq!(cell.ahead_len(), 2);
        // The front is handed out but stays queued while it runs.
        assert!(Arc::ptr_eq(&cell.ahead_front().unwrap(), &a));
        assert!(Arc::ptr_eq(&cell.ahead_front().unwrap(), &a));
        a.mark_finished();
        assert!(Arc::ptr_eq(&cell.ahead_front().unwrap(), &b));
        assert_eq!(cell.ahead_len(), 1);
        // A dropped entry (its query retired) leaves like a finished one.
        b.mark_dropped();
        assert!(cell.ahead_front().is_none());
        assert_eq!(cell.ahead_len(), 0);
        // The head is untouched by FIFO traffic.
        assert!(cell.load().is_none());
    }

    #[test]
    fn unpark_workers_without_parked_workers_is_a_noop() {
        let s = SharedState::new(2);
        s.unpark_workers(); // fast path: nobody parked, no registry access
        s.register_worker(0);
        s.note_parked();
        s.unpark_workers(); // slow path: delivers a (sticky) unpark token
        s.note_unparked();
        std::thread::park_timeout(std::time::Duration::from_secs(5));
        // The token from unpark_workers makes the park return immediately;
        // reaching this line (well before the 5 s timeout) is the assertion.
    }

    #[test]
    fn ops_queue_is_fifo() {
        let s = SharedState::new(1);
        s.ops.push((QueryId(0), TreeOp::WvFinished { wv: WvId(1) }));
        s.ops.push((QueryId(7), TreeOp::WvFinished { wv: WvId(2) }));
        let (qid, TreeOp::WvFinished { wv }) = s.ops.pop().unwrap() else {
            panic!()
        };
        assert_eq!(qid, QueryId(0));
        assert_eq!(wv, WvId(1));
    }
}
