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
//!
//! Idle threaded workers park, and the splitter wakes only a parked worker
//! that has work (`SharedState::wake_workers`).

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::Duration;

use crossbeam::queue::SegQueue;
use crossbeam::utils::CachePadded;
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

    /// `true` when an idle instance holding this grant has something to
    /// do: a version that is neither finished nor dropped (a new one, or a
    /// kept one a rollback made runnable again), or a lane with unclaimed
    /// windows.
    pub(crate) fn has_work(&self) -> bool {
        match self {
            Grant::Version(v) => !v.is_finished() && !v.is_dropped(),
            Grant::Lane(l) => l.unclaimed() > 0,
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

    /// The publication sequence: it moves with every
    /// [`publish`](Self::publish).
    pub(crate) fn seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
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

/// Why a threaded worker parks, which decides what wakes it (see
/// [`SharedState::wake_workers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Park {
    /// The worker's step found nothing to do: work under its grant wakes it.
    Idle,
    /// The worker's step waits for events: ingestion past `frontier`, or
    /// a new grant with work, wakes it.
    Stalled {
        /// [`SharedState::ingested`] as read before the stalled step.
        frontier: u64,
    },
}

const RUNNING: u8 = 0;
const PARKED_IDLE: u8 = 1;
const PARKED_STALLED: u8 = 2;

/// One threaded worker's park record.
#[derive(Debug, Default)]
struct ParkCell {
    /// `RUNNING`, `PARKED_IDLE` or `PARKED_STALLED`. Only the worker moves
    /// it out of `RUNNING`; whoever moves it back — the worker itself, or
    /// the one waker that wins the exchange — ends the park.
    state: AtomicU8,
    /// The slot publication sequence the worker had observed when it
    /// parked. Like `frontier`, written before `state` (`Release`) and
    /// read after it (`Acquire`).
    seen_seq: AtomicU64,
    /// A stalled worker's [`Park::Stalled`] frontier.
    frontier: AtomicU64,
    /// The worker's thread, registered on entry.
    thread: OnceLock<Thread>,
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
    /// The ingestion frontier: the number of events ingested so far,
    /// published once per [`EventBatch`](crate::splitter::EventBatch)
    /// flush, after the batch's buffer writes, and `u64::MAX` once the
    /// stream ended and every window is closed. A window whose end is at
    /// most this is fully readable (`Lane::claim`). Instances read events
    /// through the window buffers.
    pub ingested: AtomicU64,
    /// Set once all windows retired; instances shut down.
    pub done: AtomicBool,
    /// Shared counters (built with one per-worker block per instance, so
    /// the instance-hot counters stay off shared cache lines).
    pub metrics: Metrics,
    next_cg: AtomicU64,
    next_wv: AtomicU64,
    /// One park record per instance (simulated instances never park).
    parks: Vec<CachePadded<ParkCell>>,
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
            parks: (0..instances).map(|_| CachePadded::default()).collect(),
        })
    }

    /// Number of operator instances.
    pub fn instance_count(&self) -> usize {
        self.slots.len()
    }

    /// Registers the calling thread as worker `index`, making it wakeable.
    /// Threaded workers call this on entry; simulated instances never do.
    pub fn register_worker(&self, index: usize) {
        if let Some(cell) = self.parks.get(index) {
            let _ = cell.thread.set(std::thread::current());
        }
    }

    /// Parks worker `index` for at most `timeout`, unless its wake
    /// condition already holds. `seen_seq` is the slot publication it last
    /// observed and `grant` the grant it holds.
    ///
    /// The worker publishes its park state, then re-checks: a new slot
    /// publication, work under `grant` ([`Grant::has_work`], when idle),
    /// ingestion past the stalled frontier, or shutdown. Either this
    /// re-check or the splitter's [`wake_workers`](Self::wake_workers)
    /// sees the other side's writes (a `SeqCst` fence on each side), so a
    /// wake is never missed; the timeout is only a safety net.
    pub(crate) fn park_worker(
        &self,
        index: usize,
        park: Park,
        seen_seq: u64,
        grant: Option<&Grant>,
        timeout: Duration,
    ) {
        if self.begin_park(index, park, seen_seq, grant) {
            std::thread::park_timeout(timeout);
            // Ends the park (a no-op when a waker already did).
            self.parks[index].state.store(RUNNING, Ordering::Release);
        }
    }

    /// Enters worker `index` into its park state and re-checks its wake
    /// condition. Returns `true` when the caller must park: nothing is due,
    /// or a waker already claimed the park and its unpark token is on the
    /// way (parking then consumes it).
    fn begin_park(&self, index: usize, park: Park, seen_seq: u64, grant: Option<&Grant>) -> bool {
        let cell = &self.parks[index];
        cell.seen_seq.store(seen_seq, Ordering::Relaxed);
        let state = match park {
            Park::Idle => PARKED_IDLE,
            Park::Stalled { frontier } => {
                cell.frontier.store(frontier, Ordering::Relaxed);
                PARKED_STALLED
            }
        };
        cell.state.store(state, Ordering::Release);
        self.metrics.add_worker_park(index);
        fence(Ordering::SeqCst);
        let due = self.is_done()
            || self.slots[index].seq() != seen_seq
            || match park {
                Park::Idle => grant.is_some_and(Grant::has_work),
                Park::Stalled { frontier } => self.ingested.load(Ordering::Acquire) > frontier,
            };
        if !due {
            return true;
        }
        // Called off, unless a waker claimed the park first.
        cell.state
            .compare_exchange(state, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
    }

    /// Claims worker `index`'s park if it is still in `state`, and unparks
    /// its thread. The exchange lets one side — this waker, another one or
    /// the worker itself — end a park, so `worker_unparks` never exceeds
    /// `worker_parks`.
    fn wake(&self, index: usize, state: u8) {
        let cell = &self.parks[index];
        let claimed = cell
            .state
            .compare_exchange(state, RUNNING, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        if claimed {
            if let Some(thread) = cell.thread.get() {
                thread.unpark();
            }
            self.metrics.add_worker_unpark(index);
        }
    }

    /// Wakes the parked workers that have work, given each slot's current
    /// grant (`grants[i]` is slot `i`'s; the splitter passes its shadow of
    /// the slots at the end of a cycle):
    ///
    /// * a parked-idle worker whose grant [has work](Grant::has_work);
    /// * a parked-stalled worker once ingestion passed its frontier, or
    ///   when a publication since it parked granted it work.
    ///
    /// Lane wakes are capped at the lane's unclaimed windows. The rule is
    /// level-triggered: a worker whose condition holds is woken whichever
    /// cycle made it so. Cheap when nobody is parked: one fence and one
    /// load per worker.
    pub(crate) fn wake_workers(&self, grants: &[Option<Grant>]) {
        // Pairs with the fence in `begin_park`: every write this cycle made
        // (publications, buffer flushes, lane pushes, resets) is visible to
        // a worker that parks after the loads below.
        fence(Ordering::SeqCst);
        let ingested = self.ingested.load(Ordering::Acquire);
        // Lanes woken for, one entry per wake (allocated only on a wake).
        let mut lanes: Vec<&Arc<Lane>> = Vec::new();
        for (i, (cell, grant)) in self.parks.iter().zip(grants).enumerate() {
            let state = cell.state.load(Ordering::Acquire);
            let due = match state {
                RUNNING => false,
                PARKED_STALLED if ingested > cell.frontier.load(Ordering::Relaxed) => true,
                PARKED_STALLED if self.slots[i].seq() == cell.seen_seq.load(Ordering::Relaxed) => {
                    false
                }
                _ => match grant {
                    Some(Grant::Lane(lane)) => {
                        let woken = lanes.iter().filter(|l| Arc::ptr_eq(l, lane)).count();
                        let due = lane.unclaimed() > woken;
                        if due {
                            lanes.push(lane);
                        }
                        due
                    }
                    Some(grant) => grant.has_work(),
                    None => false,
                },
            };
            if due {
                self.wake(i, state);
            }
        }
    }

    /// Wakes every parked worker: for shutdown (`done`), an aborted
    /// session and a retired query, whose released windows end work that
    /// no grant shows.
    pub(crate) fn wake_all(&self) {
        fence(Ordering::SeqCst);
        for (i, cell) in self.parks.iter().enumerate() {
            let state = cell.state.load(Ordering::Acquire);
            if state != RUNNING {
                self.wake(i, state);
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

    fn tiny_query() -> Arc<Query> {
        use spectre_query::{Expr, Pattern, WindowSpec};
        let pattern = Pattern::builder().one("A", Expr::truth()).build().unwrap();
        let query = Query::builder("t")
            .pattern(pattern)
            .window(WindowSpec::count_sliding(4, 2).unwrap())
            .build()
            .unwrap();
        Arc::new(query)
    }

    fn window(id: u64) -> Arc<WindowInfo> {
        Arc::new(WindowInfo::new(id, Arc::new(WindowBuf::new(1)), 0, 0, 0))
    }

    fn version_grant() -> Grant {
        Grant::Version(VersionState::new(WvId(1), window(0), tiny_query(), vec![]))
    }

    fn unparks(s: &SharedState) -> Vec<u64> {
        let workers = s.metrics.worker_snapshots();
        workers.iter().map(|w| w.worker_unparks).collect()
    }

    #[test]
    fn a_parked_idle_worker_is_woken_by_a_publish_to_its_slot() {
        let s = SharedState::new(2);
        s.register_worker(0);
        let seen = s.slots[0].seq();
        assert!(s.begin_park(0, Park::Idle, seen, None), "nothing is due");
        s.wake_workers(&[None, None]);
        assert_eq!(unparks(&s), [0, 0]);
        // The splitter publishes a runnable version to slot 0 and wakes
        // the worker holding it, once.
        let grant = version_grant();
        s.slots[0].publish(Some(grant.clone()));
        let grants = [Some(grant), None];
        s.wake_workers(&grants);
        s.wake_workers(&grants);
        assert_eq!(unparks(&s), [1, 0]);
        // The unpark token makes this park return at once; reaching the
        // next line well before the timeout is the assertion.
        std::thread::park_timeout(std::time::Duration::from_secs(5));
        let m = s.metrics.snapshot();
        assert_eq!((m.worker_parks, m.worker_unparks), (1, 1));
    }

    #[test]
    fn a_parked_idle_worker_sleeps_while_nothing_is_claimable() {
        let s = SharedState::new(3);
        let lane = Lane::new(QueryId(0), tiny_query(), Arc::new(Metrics::new()));
        let lane_grant = Grant::Lane(Arc::clone(&lane));
        let finished = version_grant();
        let Grant::Version(v) = &finished else {
            unreachable!()
        };
        v.mark_finished();
        for (i, grant) in [&lane_grant, &lane_grant, &finished]
            .into_iter()
            .enumerate()
        {
            assert!(s.begin_park(i, Park::Idle, s.slots[i].seq(), Some(grant)));
        }
        let grants = [
            Some(lane_grant.clone()),
            Some(lane_grant),
            Some(finished.clone()),
        ];
        s.wake_workers(&grants);
        assert_eq!(unparks(&s), [0, 0, 0]);
        // Publications that leave nothing to do: a cleared slot, then a
        // finished version.
        s.slots[2].publish(None);
        s.wake_workers(&[grants[0].clone(), grants[1].clone(), None]);
        s.slots[2].publish(Some(finished.clone()));
        s.wake_workers(&grants);
        assert_eq!(unparks(&s), [0, 0, 0]);
        // One unclaimed window wakes one of the two lane workers; a rollback
        // that resets the finished version wakes its holder.
        lane.push(LaneCell::new(&window(0)));
        v.reset();
        s.wake_workers(&grants);
        assert_eq!(unparks(&s), [1, 0, 1]);
        assert_eq!(s.metrics.snapshot().worker_parks, 3);
    }

    #[test]
    fn a_parked_stalled_worker_is_woken_only_when_ingestion_advances() {
        let s = SharedState::new(1);
        s.ingested.store(10, Ordering::Release);
        // A stalled worker's version is unfinished, so "has work" must not
        // wake it: it waits for the events past its frontier.
        let grant = version_grant();
        let park = Park::Stalled { frontier: 10 };
        assert!(s.begin_park(0, park, s.slots[0].seq(), Some(&grant)));
        let grants = [Some(grant)];
        s.wake_workers(&grants);
        s.ingested.store(10, Ordering::Release);
        s.wake_workers(&grants);
        assert_eq!(unparks(&s), [0]);
        s.ingested.store(11, Ordering::Release);
        s.wake_workers(&grants);
        assert_eq!(unparks(&s), [1]);
    }

    #[test]
    fn the_end_of_the_stream_wakes_a_worker_stalled_on_an_open_window() {
        use crate::instance::{InstanceCore, StepOutcome};
        use crate::splitter::Splitter;
        use spectre_events::{AttrKey, Event, EventType};
        use spectre_query::{Expr, Pattern, WindowSpec};
        // Windows of 8 events open on x = 1 and need A B C; the stream
        // ends after A B, so only the end of the stream closes the window.
        let x = AttrKey::new(0);
        let is = |v: f64| Expr::current(x).eq_(Expr::value(v));
        let pattern = Pattern::builder()
            .one("A", is(1.0))
            .one("B", is(2.0))
            .one("C", is(3.0))
            .build()
            .unwrap();
        let query = Query::builder("abc")
            .pattern(pattern)
            .window(WindowSpec::on_match_count(None, is(1.0), 8).unwrap())
            .build()
            .unwrap();
        let config = SpectreConfig::with_batching(1, 64);
        let s = SharedState::for_config(&config);
        let mut splitter = Splitter::multi(config, Arc::clone(&s));
        splitter.deploy_query(Arc::new(query)).unwrap();
        for (seq, v) in [(0, 1.0), (1, 2.0)] {
            let event = Event::builder(EventType::new(0)).seq(seq).ts(seq);
            splitter.feed(event.attr(x, v).build());
        }
        splitter.cycle();
        let mut inst = InstanceCore::new(0, 64).with_batch(64);
        assert_eq!(inst.step(&s), StepOutcome::Worked);
        let frontier = s.ingested.load(Ordering::Acquire);
        assert_eq!(inst.step(&s), StepOutcome::Stalled);
        let park = Park::Stalled { frontier };
        assert!(s.begin_park(0, park, inst.slot_seq(), inst.grant()));
        // No event arrives, yet the window closes: the stalled worker can
        // finish it, and the splitter wakes it.
        splitter.end_of_stream();
        splitter.cycle();
        assert_eq!(unparks(&s), [1]);
        assert_eq!(inst.step(&s), StepOutcome::Finished);
    }

    #[test]
    fn a_worker_calls_off_a_park_whose_wake_is_already_due() {
        let s = SharedState::new(1);
        let grant = version_grant();
        s.ingested.store(5, Ordering::Release);
        // Ingestion moved past the frontier the stalled step saw.
        let stale = Park::Stalled { frontier: 4 };
        assert!(!s.begin_park(0, stale, s.slots[0].seq(), Some(&grant)));
        // A publication the worker has not observed yet.
        let seen = s.slots[0].seq();
        s.slots[0].publish(None);
        assert!(!s.begin_park(0, Park::Idle, seen, None));
        // An idle worker whose own grant has work.
        assert!(!s.begin_park(0, Park::Idle, s.slots[0].seq(), Some(&grant)));
        // Shutdown.
        s.done.store(true, Ordering::Release);
        assert!(!s.begin_park(0, Park::Idle, s.slots[0].seq(), None));
        // Every attempt counts as a park; none was woken by anyone else.
        let m = s.metrics.snapshot();
        assert_eq!((m.worker_parks, m.worker_unparks), (4, 0));
        s.wake_all();
        assert_eq!(s.metrics.snapshot().worker_unparks, 0, "nobody is parked");
    }

    #[test]
    fn wake_all_claims_every_parked_worker_once() {
        let s = SharedState::new(3);
        assert!(s.begin_park(0, Park::Idle, s.slots[0].seq(), None));
        let park = Park::Stalled { frontier: 0 };
        assert!(s.begin_park(2, park, s.slots[2].seq(), None));
        s.wake_all();
        s.wake_all();
        assert_eq!(unparks(&s), [1, 0, 1]);
        // A waker acting on a state it read before the park ended (here:
        // ended by the first wake) cannot claim it again.
        s.wake(0, PARKED_IDLE);
        s.wake(2, PARKED_STALLED);
        assert_eq!(unparks(&s), [1, 0, 1]);
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
