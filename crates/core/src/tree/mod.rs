//! The dependency tree of window versions and consumption groups
//! (paper §3.1, Figs. 3, 4 and 6).
//!
//! Vertices are either *window versions* (with at most one child) or
//! *consumption groups* (with a *completion* edge and an *abandon* edge).
//! The invariants from the paper:
//!
//! * the root is the only version of the oldest unretired window,
//! * all versions reachable via a CG's completion edge suppress that CG's
//!   events; versions on the abandon edge are unaffected,
//! * creating a CG doubles the creator's dependent subtree (the old subtree
//!   becomes the abandon branch, a suppressing copy the completion branch),
//! * resolving a CG drops the losing branch and splices the winner up,
//! * new windows attach fresh versions at every leaf.
//!
//! Additions needed for a working system (the paper describes these
//! operationally): rollback teardown (a rolled-back version's dependent
//! subtree is rebuilt from scratch, since its consumption groups were
//! produced by invalid processing) and root retirement (emitting a finished,
//! confirmed root version and promoting its child).
//!
//! This file holds the arena, window attach, retirement and top-k
//! selection; `groups.rs` creates, resolves, rolls back and revokes
//! consumption groups; `lazy.rs` holds the thunks that defer work.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::cg::{CgCell, CgId};
use crate::store::WindowInfo;
use crate::version::{VersionState, WvId};

mod groups;
mod lazy;

/// Vertex handle inside the arena.
type NodeId = usize;

#[derive(Debug)]
enum Node {
    Version {
        parent: Option<NodeId>,
        state: Arc<VersionState>,
        child: Option<NodeId>,
        /// Completed consumption groups owned by this version whose splice
        /// found *no* dependent versions to carry the suppression (the
        /// completion edge was empty). Dependent versions created later —
        /// by window attach or chain building — must still suppress these
        /// consumed events, so the facts are inherited into every new
        /// suppressed set derived from this vertex.
        facts: Vec<Arc<CgCell>>,
    },
    Cg {
        parent: Option<NodeId>,
        cell: Arc<CgCell>,
        completion: Option<NodeId>,
        abandon: Option<NodeId>,
    },
    /// An unmaterialized completion branch: stands for "the parent CG's
    /// abandon-side subtree, re-suppressed under the parent's cell". It
    /// carries no state of its own — the materialization source (the
    /// abandon edge) and the suppressed-set delta (the cell) are both read
    /// from the parent CG vertex at materialization time, so creation and
    /// teardown are O(1). `stamp` is a unique id that lets queued top-k
    /// candidates detect arena-slot reuse (a thunk can be freed and its
    /// slot recycled for a *different* thunk while the walk is in
    /// progress — see [`top_k_scored_budgeted`](DependencyTree::top_k_scored_budgeted)).
    Lazy { parent: Option<NodeId>, stamp: u64 },
    /// A pending tail of fresh window versions: every window of the tree's
    /// sequence from id `first` on, none of whose versions on this lineage
    /// has been created yet. The marker is a *position*, not a list: a
    /// lineage always runs to the end of the sequence, so a newly opened
    /// window needs no work on a lineage that already ends in a marker,
    /// and copying or dropping one is O(1) however many windows wait
    /// behind it. Like `Lazy`, it holds no version state — the suppression
    /// context is derived from the parent at materialization time. One
    /// version is materialized (and `first` bumped) each time the top-k
    /// selection schedules the lineage or the root retires into it.
    /// `stamp` is a unique id that lets queued top-k candidates detect
    /// arena-slot reuse.
    PendingAttach {
        parent: Option<NodeId>,
        first: u64,
        stamp: u64,
    },
}

/// Materializes window versions and twin cells for the tree. The splitter
/// implements this to allocate ids and keep metrics; test fixtures provide
/// counters.
pub trait VersionFactory {
    /// Creates a fresh version of `window` (processing starts at the window
    /// start) with the given suppressed set.
    fn fresh(
        &mut self,
        window: &Arc<WindowInfo>,
        suppressed: Vec<Arc<CgCell>>,
    ) -> Arc<VersionState>;

    /// Clones `source`'s processing state into a new version with the given
    /// suppressed set. Every open consumption group of the clone is
    /// replaced, atomically under the source's state lock, by an
    /// independent *twin* cell; the created `(original id, twin)` pairs are
    /// returned so the tree can key the copied group vertices to them.
    ///
    /// Returns `None` when the clone holds an open group outside
    /// `expected_open` — the tree state predates that group (its `CgCreated`
    /// op is still in flight), so the copy must fall back to fresh versions.
    #[allow(clippy::type_complexity)]
    fn clone_of(
        &mut self,
        source: &Arc<VersionState>,
        suppressed: Vec<Arc<CgCell>>,
        expected_open: &[CgId],
    ) -> Option<(Arc<VersionState>, Vec<(CgId, Arc<CgCell>)>)>;
}

/// The dependency tree.
///
/// All mutating operations are driven by the splitter during its maintenance
/// cycle; the tree is not shared across threads.
#[derive(Debug)]
pub struct DependencyTree {
    nodes: Vec<Option<Node>>,
    free: Vec<NodeId>,
    root: Option<NodeId>,
    /// The live (attached, unretired) windows, ascending by id — ids skip
    /// windows the splitter's prefilter never attached. Every root-to-leaf
    /// lineage covers exactly this sequence, so "the windows a subtree
    /// covers" is the suffix starting at the subtree's first window.
    windows: VecDeque<Arc<WindowInfo>>,
    version_vertex: HashMap<u64, NodeId>,
    cg_vertices: HashMap<CgId, Vec<NodeId>>,
    version_count: usize,
    /// Completion branches are lazy vertices, cloned only on demand. Always
    /// set outside tests; clear, [`cg_created`](Self::cg_created) copies
    /// the dependent subtree eagerly (the test reference).
    lazy: bool,
    /// Newly opened windows are recorded on pending-attach markers (one
    /// per leaf lineage). Always set outside tests; clear,
    /// [`new_window`](Self::new_window) creates one fresh version per leaf
    /// and rebuilds create whole chains (the test reference).
    lazy_attach: bool,
    /// Monotonic stamp source for thunk vertices (lazy branches and
    /// pending-attach markers).
    next_thunk_stamp: u64,
    /// Live pending-attach markers.
    marker_count: usize,
    /// Windows pending behind markers, summed over all markers (kept
    /// incrementally — a new window adds `marker_count` — because the
    /// back-pressure check reads it per ingested event).
    pending_window_count: usize,
    /// Versions created by materializing lazy branches since the last
    /// [`take_lazy_stats`](Self::take_lazy_stats).
    versions_materialized: u64,
    /// Lazy branches discarded unmaterialized since the last
    /// [`take_lazy_stats`](Self::take_lazy_stats) — speculation that cost
    /// nothing.
    lazy_versions_dropped: u64,
    /// Open groups of versions dropped since the last
    /// [`take_cgs_discarded`](Self::take_cgs_discarded).
    cgs_discarded: u64,
}

impl Default for DependencyTree {
    fn default() -> Self {
        Self::new()
    }
}

impl DependencyTree {
    /// Creates an empty tree with lazy completion branches and lazy window
    /// attach.
    pub fn new() -> Self {
        DependencyTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: None,
            windows: VecDeque::new(),
            version_vertex: HashMap::new(),
            cg_vertices: HashMap::new(),
            version_count: 0,
            lazy: true,
            lazy_attach: true,
            next_thunk_stamp: 0,
            marker_count: 0,
            pending_window_count: 0,
            versions_materialized: 0,
            lazy_versions_dropped: 0,
            cgs_discarded: 0,
        }
    }

    /// Creates an empty tree with the given completion-branch and window-
    /// attach modes; `(false, false)` is the eager reference.
    #[cfg(test)]
    pub fn with_modes(lazy: bool, lazy_attach: bool) -> Self {
        DependencyTree {
            lazy,
            lazy_attach,
            ..Self::new()
        }
    }

    /// Number of live window versions — the paper's "tree size" metric
    /// (Fig. 10(f)).
    pub fn version_count(&self) -> usize {
        self.version_count
    }

    /// Drains the count of open groups that dropped versions discarded
    /// since the last call (see [`VersionState::mark_dropped`]). The
    /// splitter flushes it into `cgs_discarded` once per cycle.
    pub fn take_cgs_discarded(&mut self) -> u64 {
        std::mem::take(&mut self.cgs_discarded)
    }

    /// `true` when no window is live.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// The root version (of the oldest unretired window).
    pub fn root_version(&self) -> Option<&Arc<VersionState>> {
        let id = self.root?;
        match self.node(id) {
            Node::Version { state, .. } => Some(state),
            _ => unreachable!("root is always a version"),
        }
    }

    /// `true` if the root version still has an unspliced consumption-group
    /// vertex as child (retirement must wait for its resolution ops).
    pub fn root_blocked_by_cg(&self) -> bool {
        let Some(root) = self.root else { return false };
        let Node::Version { child, .. } = self.node(root) else {
            unreachable!("root is always a version")
        };
        matches!(child.map(|c| self.node(c)), Some(Node::Cg { .. }))
    }

    /// Looks up the version state registered for `wv`.
    pub fn version(&self, wv: WvId) -> Option<&Arc<VersionState>> {
        let &node = self.version_vertex.get(&wv.0)?;
        match self.node(node) {
            Node::Version { state, .. } => Some(state),
            _ => None,
        }
    }

    /// The live windows (attached by [`new_window`](Self::new_window), not
    /// yet retired), oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &Arc<WindowInfo>> {
        self.windows.iter()
    }

    /// The oldest live window — the root version's.
    pub fn oldest_window(&self) -> Option<&Arc<WindowInfo>> {
        self.windows.front()
    }

    /// Index in the window sequence of the first window with id ≥ `id`.
    fn window_index(&self, id: u64) -> usize {
        self.windows.partition_point(|w| w.id < id)
    }

    /// Speculative load the tree represents: live versions plus the
    /// deferred versions pending-attach markers stand for. This — not
    /// [`version_count`](Self::version_count) alone — is what ingestion
    /// back-pressure must bound: lazy attach keeps the version count
    /// artificially low while windows (and their buffered events) pile up.
    pub fn speculative_load(&self) -> usize {
        self.version_count + self.pending_window_count
    }

    fn node(&self, id: NodeId) -> &Node {
        self.nodes[id].as_ref().expect("live node")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id].as_mut().expect("live node")
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id] = Some(node);
            id
        } else {
            self.nodes.push(Some(node));
            self.nodes.len() - 1
        }
    }

    fn register_version(&mut self, id: NodeId, state: &Arc<VersionState>) {
        self.version_vertex.insert(state.id().0, id);
        self.version_count += 1;
    }

    fn alloc_version(&mut self, parent: Option<NodeId>, state: Arc<VersionState>) -> NodeId {
        let id = self.alloc(Node::Version {
            parent,
            state: Arc::clone(&state),
            child: None,
            facts: Vec::new(),
        });
        self.register_version(id, &state);
        id
    }

    /// Attaches versions of a newly opened window at every leaf
    /// (paper Fig. 4, `newWindow`). Returns the created versions.
    pub fn new_window(
        &mut self,
        window: &Arc<WindowInfo>,
        f: &mut dyn VersionFactory,
    ) -> Vec<Arc<VersionState>> {
        debug_assert!(self.windows.back().is_none_or(|w| w.id < window.id));
        self.windows.push_back(Arc::clone(window));
        // Every lineage that already ends in a marker absorbs the window
        // here, with no per-marker work.
        self.pending_window_count += self.marker_count;
        let mut created = Vec::new();
        match self.root {
            None => {
                // Independent window: single version, no suppression (an
                // empty tree implies no live overlapping window: every
                // earlier window has retired; see "Retirement acks" under
                // "Correctness anchors" in `docs/ARCHITECTURE.md`).
                let state = f.fresh(window, Vec::new());
                let id = self.alloc_version(None, Arc::clone(&state));
                self.root = Some(id);
                created.push(state);
            }
            Some(root) => {
                self.attach_recursive(root, window, f, &mut created);
            }
        }
        created
    }

    fn attach_recursive(
        &mut self,
        node: NodeId,
        window: &Arc<WindowInfo>,
        f: &mut dyn VersionFactory,
        created: &mut Vec<Arc<VersionState>>,
    ) {
        match self.node(node) {
            Node::Version {
                child,
                state,
                facts,
                ..
            } => match child {
                Some(c) => {
                    let c = *c;
                    self.attach_recursive(c, window, f, created);
                }
                None if self.lazy_attach => {
                    let id = self.alloc_attach_marker(Some(node), window.id);
                    self.set_child(node, id);
                }
                None => {
                    let mut suppressed = state.suppressed().to_vec();
                    suppressed.extend(facts.iter().cloned());
                    let state = f.fresh(window, suppressed);
                    let id = self.alloc_version(Some(node), Arc::clone(&state));
                    self.set_child(node, id);
                    created.push(state);
                }
            },
            Node::Cg {
                completion,
                abandon,
                cell,
                ..
            } => {
                let (completion, abandon, cell) = (*completion, *abandon, Arc::clone(cell));
                // Each edge either recurses (`None`: nothing to install)
                // or yields the vertex that now fills the empty edge.
                let new_completion = match completion {
                    // An unmaterialized branch needs no per-window work: its
                    // materialization clones the abandon side, which this
                    // attach extends below.
                    Some(c) if self.is_lazy(c) => None,
                    Some(c) => {
                        self.attach_recursive(c, window, f, created);
                        None
                    }
                    // Defer the completion-side version the same way
                    // cg_created defers the completion-side copy.
                    None if self.lazy => Some(self.alloc_lazy(Some(node))),
                    // A marker on a completion edge adds the group's
                    // cell to the suppression at materialization time.
                    None if self.lazy_attach => {
                        Some(self.alloc_attach_marker(Some(node), window.id))
                    }
                    None => {
                        let mut supp = self.suppression_above(node);
                        supp.push(cell);
                        let state = f.fresh(window, supp);
                        created.push(Arc::clone(&state));
                        Some(self.alloc_version(Some(node), state))
                    }
                };
                let new_abandon = match abandon {
                    Some(a) => {
                        self.attach_recursive(a, window, f, created);
                        None
                    }
                    None if self.lazy_attach => {
                        Some(self.alloc_attach_marker(Some(node), window.id))
                    }
                    None => {
                        let state = f.fresh(window, self.suppression_above(node));
                        created.push(Arc::clone(&state));
                        Some(self.alloc_version(Some(node), state))
                    }
                };
                let Node::Cg {
                    completion,
                    abandon,
                    ..
                } = self.node_mut(node)
                else {
                    unreachable!()
                };
                *completion = new_completion.or(*completion);
                *abandon = new_abandon.or(*abandon);
            }
            Node::Lazy { .. } => unreachable!("attach never descends into lazy vertices"),
            // A lineage that already ends in a marker covers the window.
            Node::PendingAttach { .. } => {}
        }
    }

    /// Suppression set that applies *above* a CG vertex: the nearest
    /// ancestor version's suppressed set (plus its recorded facts) plus
    /// every completion edge between it and `node` (exclusive of `node`'s
    /// own cell).
    fn suppression_above(&self, node: NodeId) -> Vec<Arc<CgCell>> {
        let mut extra: Vec<Arc<CgCell>> = Vec::new();
        let mut cur = node;
        loop {
            let Some(p) = self.parent_of(cur) else {
                unreachable!("CG vertices always have a version ancestor")
            };
            match self.node(p) {
                Node::Version { state, facts, .. } => {
                    let mut supp = state.suppressed().to_vec();
                    supp.extend(facts.iter().cloned());
                    extra.reverse();
                    supp.extend(extra);
                    return supp;
                }
                Node::Cg {
                    cell, completion, ..
                } => {
                    if *completion == Some(cur) {
                        extra.push(Arc::clone(cell));
                    }
                    cur = p;
                }
                Node::Lazy { .. } | Node::PendingAttach { .. } => {
                    unreachable!("thunk vertices have no children")
                }
            }
        }
    }

    /// Sets a version vertex's child edge.
    fn set_child(&mut self, version: NodeId, child: NodeId) {
        let Node::Version { child: slot, .. } = self.node_mut(version) else {
            unreachable!("only version vertices have a single child edge")
        };
        *slot = Some(child);
    }

    fn set_parent(&mut self, node: NodeId, parent: NodeId) {
        match self.node_mut(node) {
            Node::Version { parent: p, .. }
            | Node::Cg { parent: p, .. }
            | Node::Lazy { parent: p, .. }
            | Node::PendingAttach { parent: p, .. } => *p = Some(parent),
        }
    }

    fn set_root(&mut self, node: NodeId) {
        match self.node_mut(node) {
            Node::Version { parent, .. } | Node::Cg { parent, .. } => *parent = None,
            Node::Lazy { .. } | Node::PendingAttach { .. } => {
                unreachable!("thunk vertices never become root")
            }
        }
        self.root = Some(node);
    }

    /// Replaces `old` in `parent`'s child slots with `new`
    /// (`new == usize::MAX` clears the slot).
    fn replace_child(&mut self, parent: NodeId, old: NodeId, new: NodeId) {
        let new = if new == usize::MAX { None } else { Some(new) };
        match self.node_mut(parent) {
            Node::Version { child, .. } => {
                if *child == Some(old) {
                    *child = new;
                }
            }
            Node::Cg {
                completion,
                abandon,
                ..
            } => {
                if *completion == Some(old) {
                    *completion = new;
                } else if *abandon == Some(old) {
                    *abandon = new;
                }
            }
            Node::Lazy { .. } | Node::PendingAttach { .. } => {
                unreachable!("thunk vertices have no children")
            }
        }
    }

    /// Drops a whole subtree, marking all contained versions dropped.
    /// Returns the number of versions dropped.
    fn drop_subtree(&mut self, node: NodeId) -> usize {
        let mut dropped = 0;
        let mut stack = vec![node];
        while let Some(id) = stack.pop() {
            let Some(n) = self.nodes[id].take() else {
                continue;
            };
            self.free.push(id);
            match n {
                Node::Version { state, child, .. } => {
                    self.cgs_discarded += state.mark_dropped();
                    self.version_vertex.remove(&state.id().0);
                    self.version_count -= 1;
                    dropped += 1;
                    if let Some(c) = child {
                        stack.push(c);
                    }
                }
                Node::Cg {
                    cell,
                    completion,
                    abandon,
                    ..
                } => {
                    if let Some(v) = self.cg_vertices.get_mut(&cell.id()) {
                        v.retain(|&x| x != id);
                        if v.is_empty() {
                            self.cg_vertices.remove(&cell.id());
                        }
                    }
                    if let Some(c) = completion {
                        stack.push(c);
                    }
                    if let Some(a) = abandon {
                        stack.push(a);
                    }
                }
                Node::Lazy { .. } => {
                    // An unmaterialized branch dies for free: no version
                    // state was ever cloned for it.
                    self.lazy_versions_dropped += 1;
                }
                Node::PendingAttach { first, .. } => {
                    // Pending windows die for free too: their fresh
                    // versions were never created.
                    self.uncount_attach_marker(first);
                }
            }
        }
        dropped
    }

    /// Removes the root version after it was emitted; its child becomes the
    /// new root. A pending-attach child materializes first (the promoted
    /// lineage *is* the surviving chain, and the root must be a real
    /// version), which is why retirement takes the factory.
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty or the root's child is an unresolved CG
    /// vertex (callers must check [`root_blocked_by_cg`](Self::root_blocked_by_cg)).
    pub fn retire_root(&mut self, f: &mut dyn VersionFactory) -> Arc<VersionState> {
        let root = self.root.expect("tree not empty");
        let pending_child = match self.node(root) {
            Node::Version { child: Some(c), .. } if self.is_pending_attach(*c) => Some(*c),
            Node::Version { .. } => None,
            _ => unreachable!("root is always a version"),
        };
        if let Some(marker) = pending_child {
            self.materialize_attach(marker, f);
        }
        let Some(Node::Version { state, child, .. }) = self.nodes[root].take() else {
            unreachable!("root is always a version")
        };
        self.free.push(root);
        self.version_vertex.remove(&state.id().0);
        self.version_count -= 1;
        let retired = self.windows.pop_front();
        debug_assert_eq!(
            retired.map(|w| w.id),
            Some(state.window().id),
            "windows retire in id order"
        );
        match child {
            Some(c) => {
                assert!(
                    matches!(self.node(c), Node::Version { .. }),
                    "root child must be a version at retirement"
                );
                self.set_root(c);
            }
            None => self.root = None,
        }
        state
    }

    /// Selects the k window versions with the highest survival probability
    /// (paper Fig. 6), each with the probability it was ranked at, in
    /// decreasing order. `prob_of` supplies the completion probability of
    /// an open consumption group. Finished versions are traversed but not
    /// returned (they need no instance).
    ///
    /// This is where lazy completion branches materialize on demand: an
    /// unmaterialized branch competes in the selection heap at its branch
    /// probability, and is cloned only when it actually *pops* within the
    /// top k — i.e. when the predictor ranks it high enough to schedule.
    /// Branches that never rank are never cloned, which is the entire
    /// win of the lazy tree (hence `&mut self` and the factory).
    ///
    /// Each on-demand version creation (a lazy completion branch or a
    /// pending window attach that ranks inside the top k) deducts the
    /// versions it created from `*budget`, and once the budget hits zero
    /// the selection stops materializing *new* state — exhausted
    /// candidates are skipped, their thunks stay in the tree for a later
    /// cycle, and already-live versions keep competing unhindered.
    ///
    /// This is the enforcement point for per-tenant speculation caps
    /// ([`TenantQuota::max_versions`](crate::config::TenantQuota)): the
    /// splitter threads one shared budget through all of a tenant's trees
    /// in a scheduling cycle. A `usize::MAX` budget never reaches zero.
    /// Liveness is unaffected: completion-driven materialization and the
    /// root-retire attach stay unconditional, so a budget of zero can delay
    /// but never wedge progress.
    pub fn top_k_scored_budgeted(
        &mut self,
        k: usize,
        prob_of: &dyn Fn(&CgCell) -> f64,
        f: &mut dyn VersionFactory,
        budget: &mut usize,
    ) -> Vec<(f64, Arc<VersionState>)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Ordering: survival probability first; ties go to the *earlier
        // window* (it retires first, so finishing it unblocks emission),
        // then to the older vertex for determinism. Each candidate records
        // what it expects its node id to be — a materialization taken
        // while the walk is in progress can free an already-queued lazy
        // vertex (a copy crossing a resolved-pending group rebuilds that
        // group's thunk in the source) and the freed slot may be reused,
        // so a popped entry whose id no longer holds the expected vertex
        // is stale and must be skipped, never interpreted as whatever now
        // occupies the slot.
        enum Expect {
            Version(WvId),
            Lazy(u64),
            Attach(u64),
        }
        struct Cand(f64, Reverse<u64>, Reverse<usize>, NodeId, Expect);
        impl PartialEq for Cand {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == std::cmp::Ordering::Equal
            }
        }
        impl Eq for Cand {}
        impl PartialOrd for Cand {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Cand {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0
                    .total_cmp(&other.0)
                    .then_with(|| self.1.cmp(&other.1))
                    .then_with(|| self.2.cmp(&other.2))
            }
        }

        let mut result = Vec::with_capacity(k.min(self.speculative_load()));
        let mut heap: BinaryHeap<Cand> = BinaryHeap::new();
        let push_candidate = |tree: &Self, heap: &mut BinaryHeap<Cand>, p: f64, n: NodeId| {
            let expect = match tree.node(n) {
                Node::Version { state, .. } => Expect::Version(state.id()),
                Node::Lazy { stamp, .. } => Expect::Lazy(*stamp),
                Node::PendingAttach { stamp, .. } => Expect::Attach(*stamp),
                Node::Cg { .. } => unreachable!("CG vertices are expanded, not queued"),
            };
            heap.push(Cand(
                p,
                Reverse(tree.first_window(n)),
                Reverse(n),
                n,
                expect,
            ));
        };
        if let Some(root) = self.root {
            push_candidate(self, &mut heap, 1.0, root);
        }
        while result.len() < k {
            let Some(Cand(prob, _, _, node, expect)) = heap.pop() else {
                break;
            };
            // Stale entry (vertex freed or slot reused since the push)?
            let live = match (&expect, self.nodes.get(node).and_then(Option::as_ref)) {
                (Expect::Version(wv), Some(Node::Version { state, .. })) => state.id() == *wv,
                (Expect::Lazy(s), Some(Node::Lazy { stamp, .. })) => stamp == s,
                (Expect::Attach(s), Some(Node::PendingAttach { stamp, .. })) => stamp == s,
                _ => false,
            };
            if !live {
                continue;
            }
            // A live candidate is a version (schedule it), an
            // unmaterialized branch that just ranked inside the top k
            // (clone it now and let its versions compete), or a pending
            // attach that just ranked (create its first version now and
            // let it compete).
            let expand = match expect {
                // Materializing arms are budget-gated: an exhausted budget
                // skips the candidate (the thunk survives for a later
                // cycle; nothing schedulable hides below an unmaterialized
                // vertex, so skipping loses no live candidates).
                Expect::Lazy(_) => {
                    if *budget == 0 {
                        continue;
                    }
                    let before = self.version_count;
                    let expand = self.materialize(node, f).map(|c| (prob, c));
                    let created = self.version_count.saturating_sub(before);
                    *budget = budget.saturating_sub(created);
                    expand
                }
                Expect::Attach(_) => {
                    if *budget == 0 {
                        continue;
                    }
                    let before = self.version_count;
                    let expand = Some((prob, self.materialize_attach(node, f)));
                    let created = self.version_count.saturating_sub(before);
                    *budget = budget.saturating_sub(created);
                    expand
                }
                Expect::Version(_) => {
                    let Node::Version { state, child, .. } = self.node(node) else {
                        unreachable!("validated above")
                    };
                    if !state.is_finished() {
                        result.push((prob, Arc::clone(state)));
                    }
                    child.map(|c| (prob, c))
                }
            };
            // Expand downward, resolving CG vertices into their two
            // branches weighted by completion probability; versions and
            // lazy branches become heap candidates.
            let mut stack: Vec<(f64, NodeId)> = Vec::new();
            stack.extend(expand);
            while let Some((p, n)) = stack.pop() {
                match self.node(n) {
                    Node::Version { .. } | Node::Lazy { .. } | Node::PendingAttach { .. } => {
                        push_candidate(self, &mut heap, p, n);
                    }
                    Node::Cg {
                        cell,
                        completion,
                        abandon,
                        ..
                    } => {
                        let pc = prob_of(cell).clamp(0.0, 1.0);
                        if let Some(c) = completion {
                            stack.push((p * pc, *c));
                        }
                        if let Some(a) = abandon {
                            stack.push((p * (1.0 - pc), *a));
                        }
                    }
                }
            }
        }
        result
    }

    /// The first window the subtree at `node` covers (`u64::MAX` for an
    /// empty one) — also the tie-break window id of a heap candidate. Both
    /// edges of a CG vertex cover the same windows and an unmaterialized
    /// branch mirrors its sibling abandon edge, so one allocation-free
    /// descent finds it (this runs once per heap push per scheduling
    /// cycle).
    fn first_window(&self, node: NodeId) -> u64 {
        let mut cur = Some(node);
        while let Some(id) = cur {
            cur = match self.node(id) {
                Node::Version { state, .. } => return state.window().id,
                Node::PendingAttach { first, .. } => return *first,
                Node::Cg {
                    completion,
                    abandon,
                    ..
                } => abandon.or(*completion),
                Node::Lazy { parent, .. } => {
                    let p = parent.expect("lazy vertices hang off a CG vertex");
                    let Node::Cg { abandon, .. } = self.node(p) else {
                        unreachable!()
                    };
                    *abandon
                }
            };
        }
        u64::MAX
    }

    /// Iterates over all live versions (diagnostics and tests).
    pub fn versions(&self) -> Vec<Arc<VersionState>> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Some(Node::Version { state, .. }) => Some(Arc::clone(state)),
                _ => None,
            })
            .collect()
    }

    /// Structural self-check for tests: parent/child links are mutual, the
    /// registry matches the arena, every version's suppressed set equals
    /// the completion edges on its root path, every marker stands for a
    /// suffix of the window sequence, and every root-to-leaf lineage covers
    /// that sequence exactly once.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        assert!(
            self.windows
                .iter()
                .zip(self.windows.iter().skip(1))
                .all(|(a, b)| a.id < b.id),
            "the window sequence ascends"
        );
        assert_eq!(self.root.is_none(), self.windows.is_empty());
        // Lineage coverage: walk down from the root with the index of the
        // next window each lineage owes.
        let mut stack: Vec<(NodeId, usize)> = self.root.map(|r| (r, 0)).into_iter().collect();
        while let Some((id, at)) = stack.pop() {
            let edges = match self.node(id) {
                Node::Version { state, child, .. } => {
                    let owed = self.windows.get(at).map(|w| w.id);
                    assert_eq!(owed, Some(state.window().id), "lineage skips a window");
                    vec![(*child, at + 1)]
                }
                Node::Cg {
                    completion,
                    abandon,
                    ..
                } => vec![(*completion, at), (*abandon, at)],
                // Mirrors the sibling abandon edge, which is checked.
                Node::Lazy { .. } => continue,
                Node::PendingAttach { first, .. } => {
                    let owed = self.windows.get(at).map(|w| w.id);
                    assert_eq!(
                        owed,
                        Some(*first),
                        "marker is not the lineage's next window"
                    );
                    continue;
                }
            };
            for (edge, at) in edges {
                match edge {
                    Some(c) => stack.push((c, at)),
                    None => assert_eq!(at, self.windows.len(), "lineage ends early"),
                }
            }
        }
        let mut seen_versions = 0;
        let mut seen_markers = 0;
        let mut seen_pending_windows = 0;
        for (id, node) in self.nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            match node {
                Node::Version {
                    parent,
                    state,
                    child,
                    ..
                } => {
                    seen_versions += 1;
                    assert_eq!(self.version_vertex.get(&state.id().0), Some(&id));
                    if let Some(c) = child {
                        self.assert_child_link(id, *c);
                    }
                    if parent.is_none() {
                        assert_eq!(self.root, Some(id));
                    }
                    // suppressed set == completion edges on root path
                    let mut expected: Vec<CgId> = Vec::new();
                    let mut cur = id;
                    while let Some(p) = self.parent_of(cur) {
                        if let Node::Cg {
                            cell, completion, ..
                        } = self.node(p)
                        {
                            if *completion == Some(cur) {
                                expected.push(cell.id());
                            }
                        }
                        cur = p;
                    }
                    let mut actual: Vec<CgId> = state.suppressed().iter().map(|c| c.id()).collect();
                    // the root path may omit suppression inherited from
                    // retired windows: every expected edge must be present.
                    actual.sort();
                    expected.sort();
                    for e in &expected {
                        assert!(
                            actual.contains(e),
                            "version {} missing suppression {e}",
                            state.id()
                        );
                    }
                }
                Node::Cg {
                    parent,
                    cell,
                    completion,
                    abandon,
                } => {
                    assert!(parent.is_some(), "CG vertex cannot be root");
                    assert!(self
                        .cg_vertices
                        .get(&cell.id())
                        .is_some_and(|v| v.contains(&id)));
                    if let Some(c) = completion {
                        self.assert_child_link(id, *c);
                    }
                    if let Some(a) = abandon {
                        self.assert_child_link(id, *a);
                    }
                }
                Node::Lazy { parent, .. } => {
                    let p = parent.expect("lazy vertices hang off a CG vertex");
                    let Node::Cg { completion, .. } = self.node(p) else {
                        panic!("lazy vertex parent must be a CG vertex")
                    };
                    assert_eq!(
                        *completion,
                        Some(id),
                        "lazy vertices sit on completion edges only"
                    );
                }
                Node::PendingAttach { parent, first, .. } => {
                    let p = parent.expect("pending-attach markers always have a parent");
                    let points_back = match self.node(p) {
                        Node::Version { child, .. } => *child == Some(id),
                        Node::Cg {
                            completion,
                            abandon,
                            ..
                        } => *completion == Some(id) || *abandon == Some(id),
                        Node::Lazy { .. } | Node::PendingAttach { .. } => false,
                    };
                    assert!(points_back, "pending-attach parent link is mutual");
                    let at = self.window_index(*first);
                    assert_eq!(
                        self.windows.get(at).map(|w| w.id),
                        Some(*first),
                        "a marker starts at a live window"
                    );
                    seen_markers += 1;
                    seen_pending_windows += self.windows.len() - at;
                }
            }
        }
        assert_eq!(seen_versions, self.version_count);
        assert_eq!(seen_markers, self.marker_count);
        assert_eq!(
            seen_pending_windows, self.pending_window_count,
            "incremental pending-window counter tracks the arena"
        );
    }

    fn parent_of(&self, node: NodeId) -> Option<NodeId> {
        match self.node(node) {
            Node::Version { parent, .. }
            | Node::Cg { parent, .. }
            | Node::Lazy { parent, .. }
            | Node::PendingAttach { parent, .. } => *parent,
        }
    }

    /// The recorded facts of the nearest version vertex at or above `node`
    /// (a CG vertex's owner).
    fn owner_facts(&mut self, mut node: NodeId) -> &mut Vec<Arc<CgCell>> {
        while !matches!(self.node(node), Node::Version { .. }) {
            node = self
                .parent_of(node)
                .expect("CG vertices have version ancestors");
        }
        let Node::Version { facts, .. } = self.node_mut(node) else {
            unreachable!()
        };
        facts
    }

    fn assert_child_link(&self, parent: NodeId, child: NodeId) {
        assert_eq!(self.parent_of(child), Some(parent), "broken parent link");
    }
}

#[cfg(test)]
mod tests;
