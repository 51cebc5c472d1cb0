//! State shared between the splitter and the operator instances.
//!
//! The communication structure follows paper §3.3: instances buffer their
//! dependency-tree function calls ([`TreeOp`]) and Markov-model observations
//! ([`StatsBatch`]); the splitter drains and applies them in batches at each
//! maintenance cycle. Scheduling is a set of per-instance slots the splitter
//! writes and instances poll (paper Fig. 8 lines 7–9).
//!
//! Every hot-path structure here moves data in batches: events travel
//! through each window's own [`WindowBuf`](crate::store::WindowBuf) in
//! runs (see [`EventBatch`](crate::splitter::EventBatch)), tree ops are
//! flushed with `SegQueue::push_many` / drained with `SegQueue::pop_many`
//! (one lock acquisition per batch), and the `ingested` watermark is
//! published once per batch rather than once per event.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use crossbeam::queue::SegQueue;
use parking_lot::Mutex;

use spectre_query::{ComplexEvent, Query};

use crate::cg::{CgCell, CgId};
use crate::config::SpectreConfig;
use crate::metrics::Metrics;
use crate::store::WindowInfo;
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
/// window buffers, instance pool): every query belongs to exactly one
/// tenant, and the splitter's top-k schedule divides the instance slots
/// and the speculation budget between tenants by their
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
    /// A version processed its whole window, or stopped early because its
    /// detector was spent.
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

/// What a scheduling slot grants its instance.
#[derive(Debug, Clone)]
pub enum Grant {
    /// A window version of a dependency-tree query: the instance's head.
    Version(Arc<VersionState>),
    /// A consumption-free query's lane: the instance claims its windows.
    Lane(Arc<Lane>),
}

impl Grant {
    /// The query the grant belongs to.
    pub fn query_id(&self) -> QueryId {
        match self {
            Grant::Version(v) => v.query_id(),
            Grant::Lane(l) => l.query_id,
        }
    }

    /// `true` when both grant the same version or the same lane.
    pub fn same(&self, other: &Grant) -> bool {
        match (self, other) {
            (Grant::Version(a), Grant::Version(b)) => Arc::ptr_eq(a, b),
            (Grant::Lane(a), Grant::Lane(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// One window of a lane query, with a done flag and its outputs.
#[derive(Debug)]
pub struct LaneCell {
    /// The window.
    pub window: Arc<WindowInfo>,
    done: AtomicBool,
    outputs: Mutex<Vec<ComplexEvent>>,
}

impl LaneCell {
    /// A cell for `window`, not done.
    pub(crate) fn new(window: &Arc<WindowInfo>) -> Arc<Self> {
        Arc::new(LaneCell {
            window: Arc::clone(window),
            done: AtomicBool::new(false),
            outputs: Mutex::new(Vec::new()),
        })
    }

    /// `true` once the window is finished or its query retired.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Stores the outputs and marks the cell done. Only the first call —
    /// the finishing instance, or the splitter retiring the query — gets
    /// `true` and owes the window's buffer release.
    pub(crate) fn finish(&self, outputs: Vec<ComplexEvent>) -> bool {
        *self.outputs.lock() = outputs;
        !self.done.swap(true, Ordering::AcqRel)
    }

    /// Takes the outputs of a done cell (at retirement).
    pub(crate) fn take_outputs(&self) -> Vec<ComplexEvent> {
        std::mem::take(&mut *self.outputs.lock())
    }
}

/// The speculation-free lane of a query without a consumption policy: no
/// window depends on another, so there is no tree, no version and no
/// prediction. Each window is a [`LaneCell`] that instances holding the
/// lane's [`Grant`] claim in open order; the splitter keeps the unretired
/// cells in its own in-order deque and retires the done front.
#[derive(Debug)]
pub struct Lane {
    pub(crate) query_id: QueryId,
    pub(crate) query: Arc<Query>,
    pub(crate) qmetrics: Arc<Metrics>,
    unclaimed: Mutex<VecDeque<Arc<LaneCell>>>,
    /// `unclaimed`'s length, read without the lock.
    unclaimed_len: AtomicUsize,
}

impl Lane {
    /// An empty lane for `query`, deployed as `query_id`.
    pub(crate) fn new(query_id: QueryId, query: Arc<Query>, qmetrics: Arc<Metrics>) -> Arc<Self> {
        Arc::new(Lane {
            query_id,
            query,
            qmetrics,
            unclaimed: Mutex::new(VecDeque::new()),
            unclaimed_len: AtomicUsize::new(0),
        })
    }

    /// Appends a newly attached window (splitter side).
    pub(crate) fn push(&self, cell: Arc<LaneCell>) {
        let mut q = self.unclaimed.lock();
        q.push_back(cell);
        self.unclaimed_len.store(q.len(), Ordering::Release);
    }

    /// Number of windows no instance has claimed yet.
    pub fn unclaimed(&self) -> usize {
        self.unclaimed_len.load(Ordering::Acquire)
    }

    /// Claims the oldest unclaimed window (instance side). An instance
    /// still working an open window passes the ingestion frontier as
    /// `closed_by` and gets the window only if it is closed and fully
    /// ingested by then: an open window behind a stalled one could be the
    /// oldest unretired window that back-pressured ingestion waits for.
    pub(crate) fn claim(&self, closed_by: Option<u64>) -> Option<Arc<LaneCell>> {
        if self.unclaimed() == 0 {
            return None;
        }
        let mut q = self.unclaimed.lock();
        let ready = |c: &LaneCell, i: u64| c.window.end_pos().is_some_and(|e| e <= i);
        let cell = q.pop_front_if(|c| closed_by.is_none_or(|i| ready(c, i)));
        self.unclaimed_len.store(q.len(), Ordering::Release);
        cell
    }
}

/// One instance's scheduling slot with seq-numbered publication.
///
/// The splitter [`publish`](SlotCell::publish)es grants rarely (only when
/// the schedule actually moves one), while every instance step starts by
/// checking its slot. The sequence number makes the common unchanged case
/// lock-free: [`observe`](SlotCell::observe) compares one atomic against
/// the caller's cached value and touches the mutex only when a new grant
/// was published, so a polling instance does not bounce the slot's lock
/// line against the splitter's scheduling pass.
#[derive(Debug, Default)]
pub struct SlotCell {
    seq: AtomicU64,
    value: Mutex<Option<Grant>>,
}

impl SlotCell {
    /// Publishes a new grant and bumps the publication sequence.
    pub fn publish(&self, grant: Option<Grant>) {
        let mut guard = self.value.lock();
        *guard = grant;
        // Bumped under the lock, so an observer that wins the lock after
        // seeing the new sequence is guaranteed to read the new value.
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// Checks for a publication newer than `last_seen`.
    ///
    /// Returns `None` without locking when nothing was published since the
    /// caller's previous observation (the per-step common case). Otherwise
    /// advances `last_seen` and returns the current grant — possibly
    /// `Some(None)` when the slot was cleared.
    pub fn observe(&self, last_seen: &mut u64) -> Option<Option<Grant>> {
        if self.seq.load(Ordering::Acquire) == *last_seen {
            return None;
        }
        let guard = self.value.lock();
        *last_seen = self.seq.load(Ordering::Acquire);
        Some(guard.clone())
    }
}

/// Everything splitter and instances share.
#[derive(Debug)]
pub struct SharedState {
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
    /// [`EventBatch`](crate::splitter::EventBatch) flush, after the batch's
    /// buffer writes: a window whose end is at most this is fully readable
    /// (`Lane::claim`). Instances read events through the window buffers.
    pub ingested: AtomicU64,
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
    /// Creates shared state for `instances` operator instances.
    pub fn new(instances: usize) -> Arc<Self> {
        Self::for_config(&SpectreConfig::with_instances(instances))
    }

    /// Creates shared state for a configuration (its instance count).
    pub fn for_config(config: &SpectreConfig) -> Arc<Self> {
        let instances = config.instances;
        Arc::new(SharedState {
            slots: (0..instances).map(|_| SlotCell::default()).collect(),
            ops: SegQueue::new(),
            stats: SegQueue::new(),
            ingested: AtomicU64::new(0),
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
    /// Each thread woken counts in its worker's `worker_unparks`.
    pub fn unpark_workers(&self) {
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let threads = self.worker_threads.lock();
        for (i, t) in threads.iter().enumerate() {
            if let Some(t) = t {
                t.unpark();
                self.metrics.add_worker_unpark(i);
            }
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
    use crate::store::WindowBuf;

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
        let config = SpectreConfig::with_batching(3, 16);
        let s = SharedState::for_config(&config);
        assert_eq!(s.instance_count(), 3);
        assert_eq!(s.metrics.worker_snapshots().len(), 3);
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
    fn lane_claims_follow_open_order_and_the_liveness_rule() {
        use spectre_query::{Expr, Pattern, WindowSpec};
        let x = spectre_events::AttrKey::new(0);
        let query = Query::builder("t")
            .pattern(
                Pattern::builder()
                    .one("A", Expr::current(x).eq_(Expr::value(1.0)))
                    .build()
                    .unwrap(),
            )
            .window(WindowSpec::count_sliding(4, 2).unwrap())
            .build()
            .unwrap();
        let lane = Lane::new(QueryId(3), Arc::new(query), Arc::new(Metrics::new()));
        let cell = |id: u64| {
            let buf = Arc::new(WindowBuf::new(1));
            LaneCell::new(&Arc::new(WindowInfo::new(id, buf, id * 2, 0, 0)))
        };
        let (a, b) = (cell(0), cell(1));
        lane.push(Arc::clone(&a));
        lane.push(Arc::clone(&b));
        assert_eq!(lane.unclaimed(), 2);
        // An instance still on an open window takes only a window that is
        // closed and fully ingested; `a` is open, then closed but not yet
        // ingested, then both.
        assert!(lane.claim(Some(10)).is_none());
        a.window.set_end_pos(4);
        assert!(lane.claim(Some(3)).is_none());
        assert!(Arc::ptr_eq(&lane.claim(Some(4)).unwrap(), &a));
        // Without an open window the front is taken whatever its state.
        assert!(Arc::ptr_eq(&lane.claim(None).unwrap(), &b));
        assert!(lane.claim(None).is_none());
        assert_eq!(lane.unclaimed(), 0);
        // Exactly one `finish` owes the buffer release.
        assert!(a.finish(vec![]));
        assert!(!a.finish(vec![]));
        assert!(a.is_done() && !b.is_done());
        let grant = Grant::Lane(Arc::clone(&lane));
        assert!(grant.same(&grant.clone()));
        assert_eq!(grant.query_id(), QueryId(3));
    }

    #[test]
    fn unpark_workers_without_parked_workers_is_a_noop() {
        let s = SharedState::new(2);
        s.unpark_workers(); // fast path: nobody parked, no registry access
        assert_eq!(s.metrics.snapshot().worker_unparks, 0);
        s.register_worker(0);
        s.note_parked();
        s.unpark_workers(); // slow path: delivers a (sticky) unpark token
        s.note_unparked();
        // Only the registered thread was woken, and counted as worker 0.
        assert_eq!(s.metrics.worker_snapshots()[0].worker_unparks, 1);
        assert_eq!(s.metrics.snapshot().worker_unparks, 1);
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
