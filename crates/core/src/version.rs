//! Window-version state.
//!
//! A *window version* is one speculative variant of a window, defined by the
//! set of consumption groups it assumes to complete — its *suppressed set*
//! (paper §3.1). The state is shared between the splitter (which creates,
//! schedules, drops and retires versions) and the operator instance
//! currently processing it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use spectre_events::Seq;
use spectre_query::{ComplexEvent, MatchId, Query, WindowDetector};

use crate::cg::{CgCell, CgId};
use crate::metrics::Metrics;
use crate::shared::QueryId;
use crate::store::WindowInfo;

/// Unique id of a window version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WvId(pub u64);

impl std::fmt::Display for WvId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wv{}", self.0)
    }
}

/// Mutable processing state of a version, guarded by a mutex (a version is
/// scheduled to at most one instance at a time, so contention is between
/// that instance and occasional splitter inspection).
#[derive(Debug, Clone)]
pub struct VersionInner {
    /// Pattern-detection state.
    pub detector: WindowDetector,
    /// Relative position: number of window events looked at (processed or
    /// suppressed).
    pub pos: u64,
    /// Buffered speculative complex events (paper §3.3: outputs are held
    /// back until the version becomes valid).
    pub outputs: Vec<ComplexEvent>,
    /// Sorted sequence numbers of events actually processed (not
    /// suppressed) — `usedEvents` of paper Fig. 8.
    pub used: Vec<Seq>,
    /// Per suppressed CG: last event-set version seen by the consistency
    /// check (`lastCheckedVersion`, paper Fig. 8).
    pub seen_versions: Vec<u64>,
    /// Open consumption groups created by this version, by match id.
    pub open_cgs: Vec<(MatchId, Arc<CgCell>)>,
    /// Matches whose group completed and that continue matching (EachLast
    /// selection): the next consumable event opens a new group.
    pub needs_new_cg: Vec<MatchId>,
    /// Events processed since the last consistency check.
    pub steps_since_check: u32,
    /// Consumption groups this version has *completed* so far. A rollback
    /// reports them revoked; a speculative clone inherits them as facts.
    pub completed_cells: Vec<Arc<CgCell>>,
}

impl VersionInner {
    fn new(query: Arc<Query>, window_id: u64, suppressed_count: usize) -> Self {
        VersionInner {
            detector: WindowDetector::new(query, window_id),
            pos: 0,
            outputs: Vec::new(),
            used: Vec::new(),
            seen_versions: vec![0; suppressed_count],
            open_cgs: Vec::new(),
            needs_new_cg: Vec::new(),
            steps_since_check: 0,
            completed_cells: Vec::new(),
        }
    }
}

/// Shared state of one window version.
#[derive(Debug)]
pub struct VersionState {
    id: WvId,
    window: Arc<WindowInfo>,
    query: Arc<Query>,
    /// The deployed query this version belongs to. Instances tag the
    /// [`TreeOp`](crate::shared::TreeOp)s and stats they emit for this
    /// version with it so the splitter can route them to the right
    /// [`QueryState`](crate::splitter::Splitter) registry entry.
    query_id: QueryId,
    /// The owning query's metric counters; instances update these alongside
    /// the engine-global aggregate.
    qmetrics: Arc<Metrics>,
    suppressed: Vec<Arc<CgCell>>,
    /// `true` iff the version was created with *no* assumptions at all —
    /// a version of an independent window. Only these feed the Markov
    /// statistics (paper §3.2.1). Evaluated before dead-cell pruning, so
    /// pruning a long-settled history does not silently promote a
    /// dependent version into a statistics source.
    stats_eligible: bool,
    dropped: AtomicBool,
    finished: AtomicBool,
    /// See [`is_acked`](Self::is_acked).
    acked: AtomicBool,
    inner: Mutex<VersionInner>,
}

/// Drops suppressed cells that can never matter to `window`: groups whose
/// resolution froze an event set lying entirely before the window's first
/// event. Suppression accumulates along the lineage for as long as windows
/// overlap; without this, every version created late in a long stream
/// would re-check the whole consumption history on every event — the
/// per-event cost would grow with stream length instead of live overlap.
fn prune_dead_suppressed(window: &WindowInfo, suppressed: Vec<Arc<CgCell>>) -> Vec<Arc<CgCell>> {
    suppressed
        .into_iter()
        .filter(|cell| !cell.is_dead_for(window.start_seq))
        .collect()
}

/// Takes every open group out of `inner` and abandons its cell: the
/// processing that would have resolved it is gone. Returns how many.
fn discard_open_groups(inner: &mut VersionInner) -> u64 {
    let n = inner.open_cgs.len() as u64;
    for (_, cg) in inner.open_cgs.drain(..) {
        cg.abandon();
    }
    n
}

impl VersionState {
    /// Creates a fresh version of `window` suppressing the given groups
    /// (dead cells pruned, see [`CgCell::is_dead_for`]).
    pub fn new(
        id: WvId,
        window: Arc<WindowInfo>,
        query: Arc<Query>,
        suppressed: Vec<Arc<CgCell>>,
    ) -> Arc<Self> {
        Self::for_query(
            id,
            window,
            query,
            suppressed,
            QueryId(0),
            Arc::new(Metrics::new()),
        )
    }

    /// Creates a fresh version attributed to a specific deployed query —
    /// [`new`](Self::new) with an explicit query id and per-query metrics
    /// handle. `new` is the single-query shorthand (query 0, throwaway
    /// counters).
    pub fn for_query(
        id: WvId,
        window: Arc<WindowInfo>,
        query: Arc<Query>,
        suppressed: Vec<Arc<CgCell>>,
        query_id: QueryId,
        qmetrics: Arc<Metrics>,
    ) -> Arc<Self> {
        let stats_eligible = suppressed.is_empty();
        let suppressed = prune_dead_suppressed(&window, suppressed);
        let inner = VersionInner::new(Arc::clone(&query), window.id, suppressed.len());
        Arc::new(VersionState {
            id,
            window,
            query,
            query_id,
            qmetrics,
            suppressed,
            stats_eligible,
            dropped: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            acked: AtomicBool::new(false),
            inner: Mutex::new(inner),
        })
    }

    /// The version's id.
    pub fn id(&self) -> WvId {
        self.id
    }

    /// The window this is a version of.
    pub fn window(&self) -> &Arc<WindowInfo> {
        &self.window
    }

    /// The query.
    pub fn query(&self) -> &Arc<Query> {
        &self.query
    }

    /// The deployed query this version belongs to.
    pub fn query_id(&self) -> QueryId {
        self.query_id
    }

    /// The owning query's metric counters.
    pub fn query_metrics(&self) -> &Arc<Metrics> {
        &self.qmetrics
    }

    /// The consumption groups this version assumes completed; their events
    /// are suppressed (paper §3.1).
    pub fn suppressed(&self) -> &[Arc<CgCell>] {
        &self.suppressed
    }

    /// `true` iff this version was created with no assumptions at all — a
    /// version of an independent window, eligible to feed the Markov
    /// statistics (paper §3.2.1: "statistics are gathered by versions of
    /// independent windows"). Deliberately *not* `suppressed().is_empty()`:
    /// dead-cell pruning may empty a dependent version's set without
    /// making its processing independent in the statistical sense.
    ///
    /// "Created with" is the set handed to the constructor. The dependency
    /// tree creates a lazily attached window — including every tail window
    /// of a rebuilt lineage — from its parent version's *stored* (already
    /// pruned) set plus the parent's facts, so a window behind a parent
    /// whose whole history was pruned is eligible even though an eager
    /// chain, which copies the unpruned set into every link at rebuild
    /// time, would not have made it so.
    pub fn stats_eligible(&self) -> bool {
        self.stats_eligible
    }

    /// `true` once the splitter removed this version from the dependency
    /// tree; the processing instance must stop working on it.
    pub fn is_dropped(&self) -> bool {
        self.dropped.load(Ordering::Acquire)
    }

    /// Marks the version dropped and discards the consumption groups its
    /// processing left open: no instance resolves them any more. Returns
    /// how many it discarded, for the caller to count in `cgs_discarded`.
    ///
    /// The groups leave `open_cgs` under the state lock, after the flag is
    /// set, so each is counted once: an instance that resolved one first
    /// has already taken it out, and an instance that takes the lock later
    /// sees the flag before it feeds another event.
    pub fn mark_dropped(&self) -> u64 {
        self.dropped.store(true, Ordering::Release);
        discard_open_groups(&mut self.inner.lock())
    }

    /// `true` once the version processed its whole window, or stopped
    /// early because its detector was spent.
    pub fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }

    /// Marks the version finished.
    pub fn mark_finished(&self) {
        self.finished.store(true, Ordering::Release);
    }

    /// `true` once the splitter applied this version's `WvFinished` op —
    /// the *retirement ack*. An instance pushes every op about a version
    /// while it holds the version's lock, and `WvFinished` last, so the ack
    /// means the dependency tree reflects every group this run of the
    /// version created or resolved. A reset clears it.
    pub(crate) fn is_acked(&self) -> bool {
        self.acked.load(Ordering::Acquire)
    }

    /// Records the retirement ack (see [`is_acked`](Self::is_acked)).
    pub(crate) fn mark_acked(&self) {
        self.acked.store(true, Ordering::Release);
    }

    /// Locks the processing state.
    pub fn lock(&self) -> MutexGuard<'_, VersionInner> {
        self.inner.lock()
    }

    /// Resets all processing state — rollback to the window start (paper
    /// §3.3: "the window version is reprocessed from the start").
    ///
    /// Open consumption groups created by the discarded processing are
    /// marked abandoned in their cells and returned as a count, for the
    /// caller to add to `cgs_discarded`; the caller must also rebuild the
    /// dependency-tree subtree (see [`DependencyTree::rollback_rebuild`](crate::tree::DependencyTree::rollback_rebuild)).
    pub fn reset(&self) -> u64 {
        self.reset_locked(&mut self.inner.lock())
    }

    fn reset_locked(&self, inner: &mut VersionInner) -> u64 {
        let discarded = discard_open_groups(inner);
        *inner = VersionInner::new(
            Arc::clone(&self.query),
            self.window.id,
            self.suppressed.len(),
        );
        self.finished.store(false, Ordering::Release);
        self.acked.store(false, Ordering::Release);
        discarded
    }

    /// Rolls the version back to the window start ([`reset`](Self::reset))
    /// and returns the consumption groups the discarded processing had
    /// *completed*. Their completion was speculative output of processing
    /// that never happens in the restarted timeline; the splitter must
    /// revoke them from the dependency tree (versions elsewhere in the tree
    /// may still suppress their events based on the void completion — see
    /// [`DependencyTree::revoke_completions`](crate::tree::DependencyTree::revoke_completions)).
    /// The count of groups it discarded is dropped here; the engine rolls
    /// back through `rollback_locked`, which returns it.
    pub fn rollback_state(&self) -> Vec<Arc<CgCell>> {
        self.rollback_locked(&mut self.inner.lock()).0
    }

    /// [`rollback_state`](Self::rollback_state) under a lock the caller
    /// already holds: `inner` is this version's guarded state (from
    /// [`lock`](Self::lock)). An instance rolls back without releasing the
    /// lock, so no op about the restarted version can overtake its own.
    /// Returns the revoked completions and the number of open groups
    /// discarded (see [`reset`](Self::reset)).
    pub(crate) fn rollback_locked(&self, inner: &mut VersionInner) -> (Vec<Arc<CgCell>>, u64) {
        let revoked = std::mem::take(&mut inner.completed_cells);
        let discarded = self.reset_locked(inner);
        (revoked, discarded)
    }

    /// Clones this version's full processing state into a new speculative
    /// version with a different suppressed set (paper §3.1: the "modified
    /// copy" of a dependent version when a consumption group is created).
    ///
    /// This is both the eager copy at `cg_created` time and the clone
    /// behind *lazy branch materialization*
    /// (see [`DependencyTree`](crate::tree::DependencyTree)): in the lazy
    /// case the source has usually advanced past the group's creation
    /// point — possibly even processing events the group consumed. That is
    /// safe for the same reason eager copies survive late group updates:
    /// the clone's consistency bookkeeping restarts from scratch (below),
    /// so the first periodic check — and at the latest the final
    /// validation before retirement — detects the overlap and rolls the
    /// clone back. No separate creation-time snapshot of `VersionInner` is
    /// needed; the live state *is* the thunk source.
    ///
    /// Open consumption groups are replaced by independent *twin* cells
    /// created through `mk_twin` — the copy continues the same partial
    /// matches, but in its world they must resolve independently of the
    /// originals. The snapshot, the expected-open validation and the twin
    /// creation all happen under the source's state lock, so they are
    /// atomic with respect to the owning instance's processing.
    ///
    /// Returns `None` when an open group is not listed in `expected_open`:
    /// the caller's tree state predates that group (its `CgCreated` op is
    /// still in flight), and the copy must fall back to a fresh version.
    ///
    /// The consistency bookkeeping restarts from scratch (`seen_versions`
    /// zeroed, check counter reset): the first periodic check re-validates
    /// every suppressed group against the inherited `used` set, catching
    /// events the inherited state processed that the new world suppresses.
    #[allow(clippy::type_complexity)]
    pub fn clone_speculative(
        source: &Arc<VersionState>,
        id: WvId,
        suppressed: Vec<Arc<CgCell>>,
        expected_open: &[CgId],
        mk_twin: &mut dyn FnMut(&CgCell) -> Arc<CgCell>,
    ) -> Option<(Arc<Self>, Vec<(CgId, Arc<CgCell>)>)> {
        let suppressed = prune_dead_suppressed(&source.window, suppressed);
        let guard = source.inner.lock();
        let mut inner = guard.clone();
        // The finished flag is only flipped while the state lock is held,
        // so reading it under the same guard keeps it consistent with the
        // snapshot (a finished snapshot has no open groups left).
        let finished = source.is_finished();
        drop(guard);
        let mut twins = Vec::with_capacity(inner.open_cgs.len());
        for (_, cell) in &mut inner.open_cgs {
            if !expected_open.contains(&cell.id()) {
                return None;
            }
            let twin = mk_twin(cell);
            twins.push((cell.id(), Arc::clone(&twin)));
            *cell = twin;
        }
        inner.seen_versions = vec![0; suppressed.len()];
        inner.steps_since_check = 0;
        let version = Arc::new(VersionState {
            id,
            window: Arc::clone(&source.window),
            query: Arc::clone(&source.query),
            query_id: source.query_id,
            qmetrics: Arc::clone(&source.qmetrics),
            suppressed,
            // A speculative copy always assumes its branch's completion —
            // never a statistics source, even if pruning empties its set.
            stats_eligible: false,
            dropped: AtomicBool::new(false),
            finished: AtomicBool::new(finished),
            // A finished clone never runs, so no `WvFinished` op will ever
            // ack it; its groups are those of the source the tree copied.
            acked: AtomicBool::new(finished),
            inner: Mutex::new(inner),
        });
        Some((version, twins))
    }

    /// Runs the full consistency check (paper Fig. 8 lines 31–45) without
    /// the version-counter fast path: `true` iff no suppressed group's event
    /// set intersects the processed events.
    pub fn is_consistent(&self) -> bool {
        let inner = self.inner.lock();
        self.suppressed
            .iter()
            .all(|cg| !cg.intersects_sorted(&inner.used))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::CgId;
    use crate::store::WindowBuf;
    use spectre_query::{Expr, Pattern, WindowSpec};

    fn query() -> Arc<Query> {
        Arc::new(
            Query::builder("t")
                .pattern(Pattern::builder().one("A", Expr::truth()).build().unwrap())
                .window(WindowSpec::count_sliding(4, 2).unwrap())
                .build()
                .unwrap(),
        )
    }

    fn version(suppressed: Vec<Arc<CgCell>>) -> Arc<VersionState> {
        VersionState::new(
            WvId(1),
            Arc::new(WindowInfo::new(0, Arc::new(WindowBuf::new(1)), 0, 0, 0)),
            query(),
            suppressed,
        )
    }

    #[test]
    fn flags_lifecycle() {
        let v = version(vec![]);
        assert!(!v.is_dropped());
        assert!(!v.is_finished());
        v.mark_finished();
        assert!(v.is_finished());
        v.mark_dropped();
        assert!(v.is_dropped());
        assert_eq!(v.id(), WvId(1));
    }

    #[test]
    fn reset_clears_state_and_abandons_open_groups() {
        let v = version(vec![]);
        let cg = Arc::new(CgCell::new(CgId(1), 0, 2));
        {
            let mut inner = v.lock();
            inner.pos = 5;
            inner.used = vec![1, 2, 3];
            inner.open_cgs.push((MatchId(0), Arc::clone(&cg)));
            inner.outputs.push(ComplexEvent::new(0, 0, vec![1]));
        }
        v.mark_finished();
        v.reset();
        assert!(!v.is_finished());
        let inner = v.lock();
        assert_eq!(inner.pos, 0);
        assert!(inner.used.is_empty());
        assert!(inner.outputs.is_empty());
        assert!(inner.open_cgs.is_empty());
        assert_eq!(cg.status(), crate::cg::CgStatus::Abandoned);
    }

    #[test]
    fn rollback_resets_to_the_start_and_revokes_every_completion() {
        let v = version(vec![]);
        let done: Vec<_> = (0..2)
            .map(|i| Arc::new(CgCell::new(CgId(i), 0, 1)))
            .collect();
        let open = Arc::new(CgCell::new(CgId(2), 0, 2));
        {
            let mut inner = v.lock();
            inner.pos = 3;
            inner.used = vec![0, 1, 2];
            inner.completed_cells = done.clone();
            inner.open_cgs.push((MatchId(0), Arc::clone(&open)));
        }
        v.mark_finished();
        let revoked = v.rollback_state();
        assert_eq!(
            revoked.iter().map(|c| c.id()).collect::<Vec<_>>(),
            vec![CgId(0), CgId(1)]
        );
        assert_eq!(open.status(), crate::cg::CgStatus::Abandoned);
        assert!(!v.is_finished());
        let inner = v.lock();
        assert_eq!(inner.pos, 0);
        assert!(inner.completed_cells.is_empty());
        assert!(inner.open_cgs.is_empty());
    }

    #[test]
    fn finished_clones_start_acked_and_every_reset_clears_the_ack() {
        let v = version(vec![]);
        let mut no_twin = |_: &CgCell| -> Arc<CgCell> { unreachable!("no open groups") };
        let mut clone_of = |v: &Arc<VersionState>, id| {
            VersionState::clone_speculative(v, WvId(id), vec![], &[], &mut no_twin)
                .unwrap()
                .0
        };
        assert!(
            !clone_of(&v, 2).is_acked(),
            "an unfinished clone acks itself"
        );
        v.mark_finished();
        let clone = clone_of(&v, 3);
        assert!(clone.is_finished() && clone.is_acked());
        clone.reset();
        assert!(!clone.is_acked());
        v.mark_acked();
        v.rollback_state();
        assert!(!v.is_acked());
    }

    #[test]
    fn consistency_check_detects_intersections() {
        let cg = Arc::new(CgCell::new(CgId(1), 0, 2));
        let v = version(vec![Arc::clone(&cg)]);
        {
            let mut inner = v.lock();
            inner.used = vec![5, 7, 9];
        }
        assert!(v.is_consistent());
        cg.add_event(7, 1, 0);
        assert!(!v.is_consistent());
    }

    #[test]
    fn seen_versions_sized_to_suppressed() {
        let cgs: Vec<_> = (0..3)
            .map(|i| Arc::new(CgCell::new(CgId(i), 0, 1)))
            .collect();
        let v = version(cgs);
        assert_eq!(v.lock().seen_versions.len(), 3);
        assert_eq!(v.suppressed().len(), 3);
    }
}
