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
//! # Lazy completion branches
//!
//! Creating a CG nominally *doubles* the creator's dependent subtree —
//! O(tree) state cloning per group, which dominates consumption-heavy
//! workloads (most cloned branches are dropped before ever being
//! scheduled). [`cg_created`](DependencyTree::cg_created) instead installs
//! a single `Lazy` vertex on the completion edge: a thunk whose
//! materialization source is the sibling abandon edge and whose
//! suppressed-set delta is the owning CG's cell. The branch is
//! [materialized](DependencyTree::top_k) — cloned from the *current*
//! abandon-side state, twin cells and all — only when the top-k selection
//! actually schedules it or its group completes; a lazy branch dropped by
//! an abandonment, a rollback teardown or a losing outer branch costs
//! nothing. Cloning from a source that has advanced past the group's
//! events is sound for the same reason eager clones survive late group
//! updates: the consistency checks (and the final validation at
//! retirement) detect the overlap and roll the copy back.
//!
//! # The window sequence and pending tails
//!
//! The tree owns the ascending sequence of live windows, and every
//! root-to-leaf lineage covers exactly that sequence. A lineage's
//! not-yet-scheduled tail is one `PendingAttach` marker holding
//! only the id of its first pending window: opening a window is no work on
//! a lineage that ends in a marker, and a completion, a rollback or a
//! poisoned-version replacement rebuilds *one* fresh version with the rest
//! of the sequence pending below it. A marker's suppression is derived from
//! its parent when it materializes, so the tail needs no state of its own,
//! and no tree operation walks or copies the windows waiting behind the
//! versions that hold processing state.
//!
//! # The eager reference
//!
//! Test builds can also construct the eager tree of the paper's figures
//! (`with_modes`): completion branches copied at group creation, one fresh
//! version per leaf per window. It is no runtime mode; the structural unit
//! tests pin its shapes, and an exhaustive small-tree harness checks that
//! the lazy tree stands for exactly the versions it holds.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::cg::{CgCell, CgId};
use crate::store::WindowInfo;
use crate::version::{VersionState, WvId};

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
    /// progress — see [`top_k`](DependencyTree::top_k)).
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

    /// Drains the lazy-materialization counters accumulated since the last
    /// call: `(versions materialized, lazy branches dropped unmaterialized)`.
    /// The splitter flushes these into the shared
    /// [`Metrics`](crate::metrics::Metrics) once per maintenance cycle.
    pub fn take_lazy_stats(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.versions_materialized),
            std::mem::take(&mut self.lazy_versions_dropped),
        )
    }

    /// Number of live window versions — the paper's "tree size" metric
    /// (Fig. 10(f)).
    pub fn version_count(&self) -> usize {
        self.version_count
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

    /// `true` if `id` is an unmaterialized completion branch.
    fn is_lazy(&self, id: NodeId) -> bool {
        matches!(self.node(id), Node::Lazy { .. })
    }

    /// `true` if `id` is a pending-attach marker.
    fn is_pending_attach(&self, id: NodeId) -> bool {
        matches!(self.node(id), Node::PendingAttach { .. })
    }

    /// Number of unmaterialized completion branches (diagnostics/tests).
    pub fn lazy_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Some(Node::Lazy { .. })))
            .count()
    }

    /// Number of pending-attach markers (diagnostics/tests).
    pub fn pending_attach_count(&self) -> usize {
        self.marker_count
    }

    /// Total windows pending behind attach markers — fresh versions the
    /// lazy attach has not had to create yet (diagnostics/tests).
    pub fn pending_attach_windows(&self) -> usize {
        self.pending_window_count
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

    /// Allocates a fresh lazy completion-branch thunk.
    fn alloc_lazy(&mut self, parent: Option<NodeId>) -> NodeId {
        let stamp = self.next_thunk_stamp;
        self.next_thunk_stamp += 1;
        self.alloc(Node::Lazy { parent, stamp })
    }

    /// Allocates a pending-attach marker standing for the window sequence
    /// from the live window with id `first` to its end.
    fn alloc_attach_marker(&mut self, parent: Option<NodeId>, first: u64) -> NodeId {
        let stamp = self.next_thunk_stamp;
        self.next_thunk_stamp += 1;
        self.marker_count += 1;
        self.pending_window_count += self.windows.len() - self.window_index(first);
        self.alloc(Node::PendingAttach {
            parent,
            first,
            stamp,
        })
    }

    /// Takes a freed marker (pending from window id `first`) off the counts.
    fn uncount_attach_marker(&mut self, first: u64) {
        self.marker_count -= 1;
        self.pending_window_count -= self.windows.len() - self.window_index(first);
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
                // empty tree implies no live overlapping window; see the
                // retirement argument in DESIGN.md).
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

    /// Inserts a new consumption group under its creator version
    /// (paper Fig. 4, `consumptionGroupCreated`): the old dependent subtree
    /// becomes the abandon branch; a *modified copy* that suppresses the
    /// group's events becomes the completion branch.
    ///
    /// The copy clones each dependent version's processing state — the
    /// paper's intent, since reprocessing every dependent window on each
    /// group creation would erase the speculation win — with one essential
    /// correction: a copied consumption-group vertex cannot share its
    /// original's identity. The copied versions continue the same partial
    /// matches in an *alternative world*, and the two worlds may resolve a
    /// match differently; sharing identity would apply one branch's outcome
    /// to the other (unsound), or leave the copy unresolved forever when the
    /// original's branch is dropped first (deadlock). Every open group
    /// vertex in the copy therefore gets an independent **twin cell** (same
    /// events and completion distance, fresh id), owned and resolved by the
    /// cloned version that continues the match. Retroactive conflicts with
    /// the new group's events are caught by the copies' consistency checks,
    /// exactly as for any late group update (paper Fig. 8).
    ///
    /// Returns `false` (no-op) if the creator version is no longer in the
    /// tree — its subtree was dropped by a concurrent resolution or
    /// rollback, making the operation stale.
    ///
    /// With lazy materialization on (the default), the completion branch is
    /// a single lazy thunk instead of a copy: creation is O(1) in
    /// tree size, and the clone happens only if the top-k selection
    /// schedules the branch or the group completes.
    pub fn cg_created(
        &mut self,
        creator: WvId,
        cell: Arc<CgCell>,
        f: &mut dyn VersionFactory,
    ) -> bool {
        let Some(&vnode) = self.version_vertex.get(&creator.0) else {
            return false;
        };
        let Node::Version { child, .. } = self.node(vnode) else {
            unreachable!()
        };
        let old_child = *child;

        let copy = if self.lazy {
            old_child.map(|_| self.alloc_lazy(None))
        } else {
            old_child.and_then(|c| {
                let mut twins = HashMap::new();
                let mut stray_facts = Vec::new();
                let copied = self.copy_stateful(c, &cell, &mut twins, f, &mut stray_facts, &[]);
                debug_assert!(
                    stray_facts.is_empty(),
                    "the copy root is a version vertex and collects its own facts"
                );
                copied
            })
        };
        let cg_node = self.alloc(Node::Cg {
            parent: Some(vnode),
            cell: Arc::clone(&cell),
            completion: copy,
            abandon: old_child,
        });
        if let Some(c) = copy {
            self.set_parent(c, cg_node);
        }
        if let Some(c) = old_child {
            self.set_parent(c, cg_node);
        }
        self.set_child(vnode, cg_node);
        self.cg_vertices.entry(cell.id()).or_default().push(cg_node);
        true
    }

    /// Builds a parentless lineage over the window sequence from index
    /// `from`, every version suppressing `suppression`; returns its head
    /// (`None` when no window is left to cover). Under lazy attach only
    /// the head version is created and the tail stays pending below it —
    /// a marker derives its context from the parent version's suppressed
    /// set and facts, which is exactly `suppression` — so a rebuild costs
    /// one version however many windows wait behind it. The eager
    /// reference creates one version per window.
    fn fresh_chain(
        &mut self,
        from: usize,
        suppression: &[Arc<CgCell>],
        f: &mut dyn VersionFactory,
    ) -> Option<NodeId> {
        let len = self.windows.len();
        let end = if self.lazy_attach {
            len.min(from + 1)
        } else {
            len
        };
        let mut head = None;
        let mut tail: Option<NodeId> = None;
        for i in from..end {
            let window = Arc::clone(&self.windows[i]);
            let id = self.alloc_version(tail, f.fresh(&window, suppression.to_vec()));
            match tail {
                Some(p) => self.set_child(p, id),
                None => head = Some(id),
            }
            tail = Some(id);
        }
        if let Some(p) = tail.filter(|_| end < len) {
            let marker = self.alloc_attach_marker(Some(p), self.windows[end].id);
            self.set_child(p, marker);
        }
        head
    }

    /// Copies `src`'s subtree for the completion branch of `extra`
    /// (see [`cg_created`](Self::cg_created)). Version state is cloned;
    /// open consumption-group vertices get twin cells (recorded in
    /// `twins`); vertices of groups that already resolved (their splice op
    /// still in flight) are pre-spliced in the copy. A completed-and-empty
    /// vertex pushes its cell into `facts_out`, to be recorded on the
    /// nearest copied ancestor version.
    ///
    /// Returns the copied subtree root, or `None` if nothing remains (the
    /// subtree was a single pre-spliced vertex with an empty winner edge).
    fn copy_stateful(
        &mut self,
        src: NodeId,
        extra: &Arc<CgCell>,
        twins: &mut HashMap<CgId, Arc<CgCell>>,
        f: &mut dyn VersionFactory,
        facts_out: &mut Vec<Arc<CgCell>>,
        inherited: &[Arc<CgCell>],
    ) -> Option<NodeId> {
        match self.node(src) {
            Node::Version {
                state,
                child,
                facts,
                ..
            } => {
                let (state, child, mut new_facts) = (Arc::clone(state), *child, facts.clone());
                // Rewrite the suppressed set: twins replace open groups
                // whose vertices lie inside the copy (recorded by ancestor
                // recursion steps); resolved cells and groups above the
                // creator stay shared. Append the new group last.
                let mut suppressed: Vec<Arc<CgCell>> = state
                    .suppressed()
                    .iter()
                    .map(|c| twins.get(&c.id()).cloned().unwrap_or_else(|| Arc::clone(c)))
                    .collect();
                // Completions inherited from cloned ancestors whose splice
                // ops were lost (the ancestor was dropped with its
                // CgCreated op still in flight; the clone carries the
                // consumed events) must be suppressed here too.
                for cell in inherited {
                    if !suppressed.iter().any(|c| c.id() == cell.id()) {
                        suppressed.push(Arc::clone(cell));
                    }
                }
                suppressed.push(Arc::clone(extra));

                // Groups this version may legitimately hold open: the CG
                // vertex directly below it, if any (its own speculation
                // point).
                let expected_open: Vec<CgId> = match child.map(|c| self.node(c)) {
                    Some(Node::Cg { cell, .. }) => vec![cell.id()],
                    _ => Vec::new(),
                };
                let Some((new_state, new_twins)) =
                    f.clone_of(&state, suppressed.clone(), &expected_open)
                else {
                    // An open group of `state` has no vertex yet (its
                    // CgCreated op is still in flight): the clone would
                    // share ownership of that group. Fall back to fresh
                    // versions for this whole subtree; the speculation
                    // below re-emerges as they reprocess.
                    let from = self.window_index(state.window().id);
                    return self.fresh_chain(from, &suppressed, f);
                };
                twins.extend(new_twins);
                // The clone's completed groups stand in its world whether
                // or not the tree ever saw their vertices (the original may
                // be dropped with the CgCreated op still in flight, which
                // stale-drops it). Dependent copies below must suppress
                // them, and windows attached below the clone later must
                // inherit them as facts.
                let clone_completed: Vec<Arc<CgCell>> = new_state.lock().completed_cells.clone();
                let mut inherited_next: Vec<Arc<CgCell>> = inherited.to_vec();
                for cell in &clone_completed {
                    if !inherited_next.iter().any(|c| c.id() == cell.id()) {
                        inherited_next.push(Arc::clone(cell));
                    }
                }
                for cell in &clone_completed {
                    if !new_facts.iter().any(|c| c.id() == cell.id()) {
                        new_facts.push(Arc::clone(cell));
                    }
                }
                let new_id = self.alloc_version(None, new_state);
                if let Some(c) = child {
                    let mut child_facts = Vec::new();
                    if let Some(cc) =
                        self.copy_stateful(c, extra, twins, f, &mut child_facts, &inherited_next)
                    {
                        self.set_parent(cc, new_id);
                        self.set_child(new_id, cc);
                    }
                    new_facts.extend(child_facts);
                }
                let Node::Version { facts, .. } = self.node_mut(new_id) else {
                    unreachable!()
                };
                *facts = new_facts;
                Some(new_id)
            }
            Node::Cg {
                cell,
                completion,
                abandon,
                ..
            } => {
                let (cell, completion, abandon) = (Arc::clone(cell), *completion, *abandon);
                let Some(twin) = twins.get(&cell.id()).cloned() else {
                    // The owner's clone (made just above in the recursion)
                    // no longer holds this group open: the owner resolved
                    // it and the splice op is in flight. Pre-apply the
                    // splice in the copy. The status was published under
                    // the owner's state lock before the clone was taken,
                    // so it is visible here.
                    let completed = cell.status() == crate::cg::CgStatus::Completed;
                    debug_assert!(
                        cell.is_resolved(),
                        "un-twinned group vertices are resolved-pending"
                    );
                    let winner = if completed {
                        // A completed group whose own completion branch is
                        // still a thunk: realize it in the *source* tree
                        // first (fresh rebuild, exactly as cg_resolved
                        // will when the in-flight splice op arrives). A
                        // pending-attach marker on the edge materializes
                        // for the same reason — the splice is about to
                        // detach it from the vertex that carries the
                        // group's suppression.
                        match completion {
                            Some(c) if self.is_lazy(c) => self.rebuild_completion_fresh(src, c, f),
                            Some(c) if self.is_pending_attach(c) => {
                                Some(self.materialize_attach(c, f))
                            }
                            other => other,
                        }
                    } else {
                        abandon
                    };
                    return match winner {
                        Some(w) => self.copy_stateful(w, extra, twins, f, facts_out, inherited),
                        None => {
                            if completed {
                                facts_out.push(cell);
                            }
                            None
                        }
                    };
                };
                let new_id = self.alloc(Node::Cg {
                    parent: None,
                    cell: Arc::clone(&twin),
                    completion: None,
                    abandon: None,
                });
                self.cg_vertices.entry(twin.id()).or_default().push(new_id);
                if let Some(c) = completion {
                    // An unmaterialized branch copies as an unmaterialized
                    // branch: the copy's thunk re-suppresses the copy's own
                    // abandon edge under the twin cell — laziness survives
                    // nested group creation.
                    if self.is_lazy(c) {
                        let lz = self.alloc_lazy(Some(new_id));
                        let Node::Cg { completion, .. } = self.node_mut(new_id) else {
                            unreachable!()
                        };
                        *completion = Some(lz);
                    } else {
                        let mut sub_facts = Vec::new();
                        let cc = self.copy_stateful(c, extra, twins, f, &mut sub_facts, inherited);
                        debug_assert!(
                            sub_facts.is_empty(),
                            "edge children are version vertices which keep their own facts"
                        );
                        if let Some(cc) = cc {
                            self.set_parent(cc, new_id);
                            let Node::Cg { completion, .. } = self.node_mut(new_id) else {
                                unreachable!()
                            };
                            *completion = Some(cc);
                        }
                    }
                }
                if let Some(a) = abandon {
                    let mut sub_facts = Vec::new();
                    let ac = self.copy_stateful(a, extra, twins, f, &mut sub_facts, inherited);
                    debug_assert!(sub_facts.is_empty());
                    if let Some(ac) = ac {
                        self.set_parent(ac, new_id);
                        let Node::Cg { abandon, .. } = self.node_mut(new_id) else {
                            unreachable!()
                        };
                        *abandon = Some(ac);
                    }
                }
                Some(new_id)
            }
            Node::Lazy { .. } => unreachable!("lazy vertices are copied at their parent CG edge"),
            // A pending attach copies as a pending attach: the copy's
            // suppression context is derived from its *own* parent chain at
            // materialization time (which carries `extra` and the twins),
            // so nothing but the position needs to move — laziness
            // survives subtree copies.
            Node::PendingAttach { first, .. } => Some(self.alloc_attach_marker(None, *first)),
        }
    }

    /// Materializes an unmaterialized completion branch: clones the parent
    /// CG's *current* abandon-side subtree — via the same
    /// [`copy_stateful`](Self::copy_stateful) machinery `cg_created` uses
    /// eagerly — with the parent's cell appended to every suppressed set,
    /// and installs the clone as the completion edge. Returns the new edge
    /// (`None` when the abandon side holds no versions: the branch
    /// materializes to the same emptiness an eager copy would have
    /// collapsed to).
    ///
    /// Cloning from the *live* abandon-side state (which may have advanced
    /// past, or even processed, events the group consumed) is sound: the
    /// clone's consistency bookkeeping restarts from scratch, so its first
    /// check — and at the latest the final validation before retirement —
    /// detects any overlap with the suppressed groups and rolls the clone
    /// back, exactly as an eager copy handles a late group update.
    fn materialize(&mut self, lazy: NodeId, f: &mut dyn VersionFactory) -> Option<NodeId> {
        let Node::Lazy { parent, .. } = self.node(lazy) else {
            unreachable!("materialize takes a lazy vertex")
        };
        let cg = parent.expect("lazy vertices hang off a CG vertex");
        let Node::Cg {
            cell,
            completion,
            abandon,
            ..
        } = self.node(cg)
        else {
            unreachable!("lazy parents are CG vertices")
        };
        debug_assert_eq!(*completion, Some(lazy));
        let (cell, source) = (Arc::clone(cell), *abandon);
        self.nodes[lazy] = None;
        self.free.push(lazy);
        let before = self.version_count;
        let copy = source.and_then(|src| {
            let mut twins = HashMap::new();
            let mut stray_facts = Vec::new();
            let copied = self.copy_stateful(src, &cell, &mut twins, f, &mut stray_facts, &[]);
            // A stray fact can only surface when the source root is itself
            // a resolved-pending CG vertex that pre-spliced to nothing;
            // record it on the nearest ancestor version (the group owner),
            // as cg_resolved does for an empty completion edge.
            if !stray_facts.is_empty() {
                let mut owner = cg;
                loop {
                    match self.node_mut(owner) {
                        Node::Version { facts, .. } => {
                            for cell in stray_facts.drain(..) {
                                if !facts.iter().any(|c| c.id() == cell.id()) {
                                    facts.push(cell);
                                }
                            }
                            break;
                        }
                        Node::Cg { parent, .. }
                        | Node::Lazy { parent, .. }
                        | Node::PendingAttach { parent, .. } => {
                            owner = parent.expect("CG vertices have version ancestors");
                        }
                    }
                }
            }
            copied
        });
        self.versions_materialized += (self.version_count - before) as u64;
        let Node::Cg { completion, .. } = self.node_mut(cg) else {
            unreachable!()
        };
        *completion = copy;
        if let Some(c) = copy {
            self.set_parent(c, cg);
        }
        copy
    }

    /// Replaces the unmaterialized completion branch of `cg_node` with a
    /// [fresh lineage](Self::fresh_chain) over the windows of the (doomed)
    /// abandon side, suppressing the group's cell on top of the
    /// suppression above the vertex. This is the completion path for
    /// branches the scheduler never chose (see
    /// [`cg_resolved`](Self::cg_resolved)): no state is worth cloning, so
    /// none is, and the fresh versions simply reprocess — the position
    /// every viable clone would have rolled back to. Returns the new
    /// completion edge.
    fn rebuild_completion_fresh(
        &mut self,
        cg_node: NodeId,
        lazy: NodeId,
        f: &mut dyn VersionFactory,
    ) -> Option<NodeId> {
        let Node::Cg {
            cell,
            completion,
            abandon,
            ..
        } = self.node(cg_node)
        else {
            unreachable!("rebuild takes a CG vertex")
        };
        debug_assert_eq!(*completion, Some(lazy));
        let (cell, source) = (Arc::clone(cell), *abandon);
        self.nodes[lazy] = None;
        self.free.push(lazy);
        // The lineage suppression is the abandon-side root's own
        // suppressed set: it carries completions accumulated from
        // groups long since resolved (and retired), which the vertex
        // walk above this CG cannot see. Facts recorded *on* dropped
        // subtree versions are their own (now void) completions and
        // must not leak in; facts from live ancestors were folded into
        // the root's suppressed set when it was created.
        let mut suppression = match source.map(|s| self.node(s)) {
            Some(Node::Version { state, .. }) => state.suppressed().to_vec(),
            _ => self.suppression_above(cg_node),
        };
        if !suppression.iter().any(|c| c.id() == cell.id()) {
            suppression.push(cell);
        }
        // The abandon side covers the sequence from its first window on
        // (an empty one covers nothing: `first_window` is `u64::MAX`).
        let from = source.map_or(self.windows.len(), |s| {
            self.window_index(self.first_window(s))
        });
        let head = self.fresh_chain(from, &suppression, f);
        let Node::Cg { completion, .. } = self.node_mut(cg_node) else {
            unreachable!()
        };
        *completion = head;
        if let Some(h) = head {
            self.set_parent(h, cg_node);
        }
        head
    }

    /// Materializes the *front* window of a pending-attach marker: creates
    /// one fresh version — suppression derived from the parent at *this*
    /// moment (a parent version's suppressed set plus recorded facts, or
    /// the suppression above a parent CG vertex plus its cell on the
    /// completion edge), exactly what an eager attach would have
    /// accumulated — splices the version into the marker's slot, and keeps
    /// any remaining windows pending *below* the new version. One top-k
    /// pop therefore creates exactly one version; the rest of the lineage
    /// stays thunked until it ranks itself. Returns the new version's
    /// vertex.
    ///
    /// Deriving the suppression at materialization rather than attach time
    /// is equivalent: facts can only be recorded on a version while it has
    /// no dependent subtree (see [`cg_resolved`](Self::cg_resolved)), and a
    /// marker *is* a dependent subtree, so no fact can appear between the
    /// attach and the materialization on the same lineage — and the
    /// remaining windows re-derive from the freshly created version, whose
    /// suppressed set is precisely their eager-attach context.
    fn materialize_attach(&mut self, marker: NodeId, f: &mut dyn VersionFactory) -> NodeId {
        let Node::PendingAttach { parent, first, .. } = *self.node(marker) else {
            unreachable!("materialize_attach takes a pending-attach marker")
        };
        let parent = parent.expect("pending-attach markers always have a parent");
        let at = self.window_index(first);
        let window = Arc::clone(&self.windows[at]);
        let next = self.windows.get(at + 1).map(|w| w.id);
        let suppression = match self.node(parent) {
            Node::Version { state, facts, .. } => {
                let mut s = state.suppressed().to_vec();
                s.extend(facts.iter().cloned());
                s
            }
            Node::Cg {
                cell, completion, ..
            } => {
                let on_completion_edge = *completion == Some(marker);
                let cell = Arc::clone(cell);
                let mut s = self.suppression_above(parent);
                if on_completion_edge {
                    s.push(cell);
                }
                s
            }
            Node::Lazy { .. } | Node::PendingAttach { .. } => {
                unreachable!("thunk vertices have no children")
            }
        };
        let state = f.fresh(&window, suppression);
        let vid = self.alloc_version(Some(parent), state);
        self.replace_child(parent, marker, vid);
        if let Some(next) = next {
            // The marker survives as the new version's child, standing
            // for the still-pending tail.
            self.pending_window_count -= 1;
            let Node::PendingAttach { parent, first, .. } = self.node_mut(marker) else {
                unreachable!()
            };
            (*parent, *first) = (Some(vid), next);
            self.set_child(vid, marker);
        } else {
            self.nodes[marker] = None;
            self.free.push(marker);
            self.uncount_attach_marker(first);
        }
        vid
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

    /// Resolves a consumption group (paper Fig. 4,
    /// `consumptionGroupCompleted` / `Abandoned`): at every vertex of the
    /// group, the losing branch is dropped and the winning branch spliced to
    /// the parent. Returns the number of versions dropped.
    ///
    /// A *completed* group whose completion branch is still a lazy
    /// thunk *rebuilds* it as a fresh lineage (one version, the rest
    /// pending) suppressing the group instead of cloning the abandon side:
    /// an unscheduled source sits at position 0 (nothing to inherit),
    /// and a scheduled one has processed the very events the completion
    /// just consumed, so its clone would fail the first consistency check
    /// and reset to the window start anyway — the rebuild goes straight to
    /// that state, the same §3.3 reprocess-from-start argument behind
    /// [`rollback_rebuild`](Self::rollback_rebuild). An *abandoned* group's
    /// unmaterialized completion branch is discarded without ever having
    /// cost anything.
    pub fn cg_resolved(&mut self, cg: CgId, completed: bool, f: &mut dyn VersionFactory) -> usize {
        let Some(vertices) = self.cg_vertices.remove(&cg) else {
            return 0;
        };
        let mut dropped = 0;
        for vertex in vertices {
            // The vertex may already be gone: it sat inside the losing
            // branch of another vertex of the same group (or a rollback
            // teardown). Verify it is still this group's vertex.
            let Some(Some(Node::Cg { cell, .. })) = self.nodes.get(vertex) else {
                continue;
            };
            if cell.id() != cg {
                continue;
            }
            if completed {
                let Node::Cg { completion, .. } = self.node(vertex) else {
                    unreachable!()
                };
                if let Some(c) = *completion {
                    if self.is_lazy(c) {
                        self.rebuild_completion_fresh(vertex, c, f);
                    } else if self.is_pending_attach(c) {
                        // The splice is about to detach the winner from
                        // this vertex; materialize the marker while the
                        // group's cell is still on its suppression path.
                        self.materialize_attach(c, f);
                    }
                }
            }
            let Node::Cg {
                parent,
                completion,
                abandon,
                cell,
            } = self.node(vertex)
            else {
                unreachable!()
            };
            let (parent, completion, abandon, cell) =
                (*parent, *completion, *abandon, Arc::clone(cell));
            let (winner, loser) = if completed {
                (completion, abandon)
            } else {
                (abandon, completion)
            };
            if let Some(l) = loser {
                dropped += self.drop_subtree(l);
            }
            // Splice winner up.
            self.nodes[vertex] = None;
            self.free.push(vertex);
            if let Some(w) = winner {
                match parent {
                    Some(p) => {
                        self.replace_child(p, vertex, w);
                        self.set_parent(w, p);
                    }
                    None => {
                        debug_assert_eq!(self.root, Some(vertex));
                        self.set_root(w);
                    }
                }
            } else {
                match parent {
                    Some(p) => {
                        self.replace_child(p, vertex, usize::MAX);
                        // A completion with no dependent versions to carry
                        // the suppression: record the consumed events as a
                        // fact on the owner so later-created dependents
                        // still suppress them.
                        if completed {
                            // Walk up to the nearest version vertex (the
                            // parent may itself be a CG vertex when several
                            // groups of one version are open at once).
                            let mut owner = p;
                            loop {
                                match self.node_mut(owner) {
                                    Node::Version { facts, .. } => {
                                        facts.push(cell);
                                        break;
                                    }
                                    Node::Cg { parent, .. }
                                    | Node::Lazy { parent, .. }
                                    | Node::PendingAttach { parent, .. } => {
                                        owner = parent.expect("CG vertices have version ancestors");
                                    }
                                }
                            }
                        }
                    }
                    None => self.root = None,
                }
            }
        }
        dropped
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
                    state.mark_dropped();
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

    /// Tears down and rebuilds the dependent subtree of a rolled-back
    /// version: all consumption groups the invalid processing produced (and
    /// every version speculating on them) are discarded, and a fresh
    /// lineage over the newer live windows takes their place (see
    /// DESIGN.md §6) — one version plus a marker, whatever the backlog.
    /// Returns the number of versions dropped.
    pub fn rollback_rebuild(&mut self, wv: WvId, f: &mut dyn VersionFactory) -> usize {
        let Some(&vnode) = self.version_vertex.get(&wv.0) else {
            return 0;
        };
        let Node::Version { child, state, .. } = self.node(vnode) else {
            unreachable!()
        };
        let (old_child, after) = (*child, self.window_index(state.window().id + 1));
        let suppressed = state.suppressed().to_vec();
        let mut dropped = 0;
        if let Some(c) = old_child {
            dropped += self.drop_subtree(c);
        }
        {
            // The version restarts: its previous completions (and any facts
            // they recorded) came from processing that is now invalid.
            let Node::Version { child, facts, .. } = self.node_mut(vnode) else {
                unreachable!()
            };
            *child = None;
            facts.clear();
        }
        if let Some(head) = self.fresh_chain(after, &suppressed, f) {
            self.set_parent(head, vnode);
            self.set_child(vnode, head);
        }
        dropped
    }

    /// `true` if, on `from`'s ancestor chain, the version of `cell`'s
    /// window still *vouches* for the completion: its processing state
    /// holds the completed group. A version whose chain ancestor no longer
    /// vouches assumes a completion that never happened in the surviving
    /// timeline.
    fn completion_vouched(&self, from: NodeId, cell: &CgCell) -> bool {
        let mut cur = Some(from);
        while let Some(id) = cur {
            match self.node(id) {
                Node::Version { state, parent, .. } => {
                    if state.window().id == cell.window_id() {
                        return state
                            .lock()
                            .completed_cells
                            .iter()
                            .any(|c| c.id() == cell.id());
                    }
                    if state.window().id < cell.window_id() {
                        return false;
                    }
                    cur = *parent;
                }
                Node::Cg { parent, .. }
                | Node::Lazy { parent, .. }
                | Node::PendingAttach { parent, .. } => cur = *parent,
            }
        }
        false
    }

    /// Revokes consumption-group completions discarded by a rollback.
    ///
    /// A version that completes a group and *then* rolls back voids the
    /// completion — but the tree may already have spliced the group's
    /// resolution, and state copies made under other branches (see
    /// [`cg_created`](Self::cg_created)) may carry the completion onward as
    /// suppressed sets or recorded facts even though the processing that
    /// produced it never happens in the restarted timeline. The rolled-back
    /// version's own dependent subtree is handled by
    /// [`rollback_rebuild`](Self::rollback_rebuild); this sweep finds the
    /// escapees: every version that still assumes one of the `revoked`
    /// completions (suppressed set or vertex facts) *without* a chain
    /// ancestor that still vouches for it is replaced by a fresh version
    /// with the void groups removed, and its dependents are rebuilt.
    /// Returns the number of versions dropped.
    pub fn revoke_completions(
        &mut self,
        revoked: &[Arc<CgCell>],
        f: &mut dyn VersionFactory,
    ) -> usize {
        if revoked.is_empty() {
            return 0;
        }
        // Candidates oldest-window first: replacing an owner rebuilds (and
        // thereby cleans) its dependents, so deeper candidates drop out.
        let mut candidates: Vec<(u64, WvId)> = self
            .version_vertex
            .values()
            .filter_map(|&node| {
                let Some(Some(Node::Version { state, facts, .. })) = self.nodes.get(node) else {
                    return None;
                };
                let involved = state
                    .suppressed()
                    .iter()
                    .chain(facts.iter())
                    .any(|s| revoked.iter().any(|r| r.id() == s.id()));
                involved.then(|| (state.window().id, state.id()))
            })
            .collect();
        candidates.sort_unstable_by_key(|&(w, v)| (w, v.0));

        let mut dropped = 0;
        for (_, wv) in candidates {
            let Some(&vnode) = self.version_vertex.get(&wv.0) else {
                continue; // already cleaned by an ancestor's replacement
            };
            let Node::Version { state, facts, .. } = self.node(vnode) else {
                unreachable!()
            };
            let assumed: Vec<Arc<CgCell>> = revoked
                .iter()
                .filter(|r| {
                    state
                        .suppressed()
                        .iter()
                        .chain(facts.iter())
                        .any(|s| s.id() == r.id())
                })
                .cloned()
                .collect();
            let unvouched: Vec<CgId> = assumed
                .iter()
                .filter(|cell| !self.completion_vouched(vnode, cell))
                .map(|cell| cell.id())
                .collect();
            if unvouched.is_empty() {
                continue; // a live ancestor still stands by the completion
            }
            dropped += self.replace_poisoned(wv, &unvouched, f);
        }
        dropped
    }

    /// Replaces a version that assumes void completions: the version is
    /// dropped and a fresh version of the same window — with the `void`
    /// groups removed from its suppressed set and vertex facts — takes its
    /// place in the tree; its dependent subtree is rebuilt from scratch.
    /// Returns the number of versions dropped (including the replaced one).
    fn replace_poisoned(&mut self, wv: WvId, void: &[CgId], f: &mut dyn VersionFactory) -> usize {
        let Some(&vnode) = self.version_vertex.get(&wv.0) else {
            return 0;
        };
        let (old_state, old_facts, old_child) = match self.node(vnode) {
            Node::Version {
                state,
                facts,
                child,
                ..
            } => (Arc::clone(state), facts.clone(), *child),
            _ => unreachable!("poisoned candidates are version vertices"),
        };
        let keep = |cells: &[Arc<CgCell>]| -> Vec<Arc<CgCell>> {
            cells
                .iter()
                .filter(|c| !void.contains(&c.id()))
                .cloned()
                .collect()
        };
        let new_suppressed = keep(old_state.suppressed());
        let new_facts = keep(&old_facts);
        let mut dropped = 1; // the replaced version itself
        if let Some(c) = old_child {
            dropped += self.drop_subtree(c);
        }
        old_state.mark_dropped();
        let new_state = f.fresh(old_state.window(), new_suppressed.clone());
        self.version_vertex.remove(&wv.0);
        self.version_vertex.insert(new_state.id().0, vnode);
        {
            let Node::Version {
                state,
                facts,
                child,
                ..
            } = self.node_mut(vnode)
            else {
                unreachable!()
            };
            *state = Arc::clone(&new_state);
            *facts = new_facts.clone();
            *child = None;
        }
        let mut suppression = new_suppressed;
        suppression.extend(new_facts);
        let after = self.window_index(old_state.window().id + 1);
        if let Some(head) = self.fresh_chain(after, &suppression, f) {
            self.set_parent(head, vnode);
            self.set_child(vnode, head);
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
    /// (paper Fig. 6). `prob_of` supplies the completion probability of an
    /// open consumption group.
    ///
    /// Finished versions are traversed but not returned (they need no
    /// instance). The returned list is ordered by decreasing survival
    /// probability.
    ///
    /// This is where lazy completion branches materialize on demand: an
    /// unmaterialized branch competes in the selection heap at its branch
    /// probability, and is cloned only when it actually *pops* within the
    /// top k — i.e. when the predictor ranks it high enough to schedule.
    /// Branches that never rank are never cloned, which is the entire
    /// win of the lazy tree (hence `&mut self` and the factory).
    pub fn top_k(
        &mut self,
        k: usize,
        prob_of: &dyn Fn(&CgCell) -> f64,
        f: &mut dyn VersionFactory,
    ) -> Vec<Arc<VersionState>> {
        self.top_k_scored(k, prob_of, f)
            .into_iter()
            .map(|(_, v)| v)
            .collect()
    }

    /// [`top_k`](Self::top_k), but each selected version is returned with
    /// the survival probability it was ranked at. A multi-query scheduler
    /// merges the per-tree selections on these scores (a stable sort keeps
    /// each tree's internal order, which is what makes the merged schedule
    /// deterministic).
    pub fn top_k_scored(
        &mut self,
        k: usize,
        prob_of: &dyn Fn(&CgCell) -> f64,
        f: &mut dyn VersionFactory,
    ) -> Vec<(f64, Arc<VersionState>)> {
        let mut unbounded = usize::MAX;
        self.top_k_scored_budgeted(k, prob_of, f, &mut unbounded)
    }

    /// [`top_k_scored`](Self::top_k_scored) under a materialization
    /// budget: each on-demand version creation (a lazy completion branch
    /// or a pending window attach that ranks inside the top k) deducts the
    /// versions it created from `*budget`, and once the budget hits zero
    /// the selection stops materializing *new* state — exhausted
    /// candidates are skipped, their thunks stay in the tree for a later
    /// cycle, and already-live versions keep competing unhindered.
    ///
    /// This is the enforcement point for per-tenant speculation caps
    /// ([`TenantQuota::max_versions`](crate::config::TenantQuota)): the
    /// splitter threads one shared budget through all of a tenant's trees
    /// in a scheduling cycle. A `usize::MAX` budget never reaches zero, so
    /// the unbudgeted selection is byte-for-byte this one. Liveness is
    /// unaffected: completion-driven materialization and the root-retire
    /// attach stay unconditional, so a budget of zero can delay but never
    /// wedge progress.
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

    fn assert_child_link(&self, parent: NodeId, child: NodeId) {
        assert_eq!(self.parent_of(child), Some(parent), "broken parent link");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::CgStatus;
    use spectre_query::{Expr, MatchId, Pattern, Query, WindowSpec};

    /// Test factory: sequential ids, no metrics.
    struct TestFactory {
        query: Arc<Query>,
        next_wv: u64,
        next_cg: u64,
    }

    impl VersionFactory for TestFactory {
        fn fresh(
            &mut self,
            window: &Arc<WindowInfo>,
            suppressed: Vec<Arc<CgCell>>,
        ) -> Arc<VersionState> {
            let v = VersionState::new(
                WvId(self.next_wv),
                Arc::clone(window),
                Arc::clone(&self.query),
                suppressed,
            );
            self.next_wv += 1;
            v
        }

        fn clone_of(
            &mut self,
            source: &Arc<VersionState>,
            suppressed: Vec<Arc<CgCell>>,
            expected_open: &[CgId],
        ) -> Option<(Arc<VersionState>, Vec<(CgId, Arc<CgCell>)>)> {
            let id = WvId(self.next_wv);
            self.next_wv += 1;
            let next_cg = &mut self.next_cg;
            let mut mk_twin = |cell: &CgCell| {
                let t = Arc::new(cell.twin(CgId(*next_cg)));
                *next_cg += 1;
                t
            };
            VersionState::clone_speculative(source, id, suppressed, expected_open, &mut mk_twin)
        }
    }

    struct Fixture {
        tree: DependencyTree,
        factory: TestFactory,
    }

    impl Fixture {
        /// Eager fixture: the reference most structural tests specify
        /// (copies made at `cg_created` time).
        fn new() -> Self {
            Self::with_tree(DependencyTree::with_modes(false, false))
        }

        /// Lazy fixture: completion branches defer until scheduled
        /// (window attach stays eager, pinning the PR-3 shapes).
        fn lazy() -> Self {
            Self::with_tree(DependencyTree::with_modes(true, false))
        }

        /// All-lazy fixture: the runtime tree.
        fn all_lazy() -> Self {
            Self::with_tree(DependencyTree::new())
        }

        /// Eager completion-branch copies with lazy window attach (the
        /// odd quadrant: markers must survive subtree copies).
        fn eager_branches_lazy_attach() -> Self {
            Self::with_tree(DependencyTree::with_modes(false, true))
        }

        fn with_tree(tree: DependencyTree) -> Self {
            let query = Arc::new(
                Query::builder("t")
                    .pattern(Pattern::builder().one("A", Expr::truth()).build().unwrap())
                    .window(WindowSpec::count_sliding(4, 2).unwrap())
                    .build()
                    .unwrap(),
            );
            Fixture {
                tree,
                factory: TestFactory {
                    query,
                    next_wv: 0,
                    next_cg: 0,
                },
            }
        }

        fn open_window(&mut self, id: u64) -> Vec<Arc<VersionState>> {
            let window = Arc::new(WindowInfo::new(id, id * 2, id * 2, id * 2));
            let out = self.tree.new_window(&window, &mut self.factory);
            self.tree.assert_invariants();
            out
        }

        fn create_cg(&mut self, creator: &Arc<VersionState>) -> Arc<CgCell> {
            let cell = Arc::new(CgCell::new(
                CgId(self.factory.next_cg),
                creator.window().id,
                1,
            ));
            self.factory.next_cg += 1;
            assert!(self
                .tree
                .cg_created(creator.id(), Arc::clone(&cell), &mut self.factory));
            self.tree.assert_invariants();
            cell
        }
    }

    #[test]
    fn independent_window_becomes_root() {
        let mut f = Fixture::new();
        let created = f.open_window(0);
        assert_eq!(created.len(), 1);
        assert_eq!(f.tree.version_count(), 1);
        assert_eq!(f.tree.root_version().unwrap().id(), created[0].id());
        assert!(created[0].suppressed().is_empty());
    }

    #[test]
    fn cg_creation_doubles_dependent_versions() {
        // Paper Fig. 3: w1 with CG, w2 depends.
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let w2 = f.open_window(1);
        assert_eq!(w2.len(), 1);
        let cg = f.create_cg(&w1);
        // w2 now has two versions: original (abandon) + copy (completion).
        assert_eq!(f.tree.version_count(), 3);
        let versions = f.tree.versions();
        let w2_versions: Vec<_> = versions.iter().filter(|v| v.window().id == 1).collect();
        assert_eq!(w2_versions.len(), 2);
        let suppressing = w2_versions
            .iter()
            .filter(|v| v.suppressed().iter().any(|c| c.id() == cg.id()))
            .count();
        assert_eq!(suppressing, 1);
    }

    #[test]
    fn revoked_completion_replaces_unvouched_suppressors() {
        // A version completes a group, the tree splices the resolution,
        // and then the version rolls back: the completion is void, and
        // dependents still suppressing it must be replaced — unless the
        // completing version still vouches for it.
        let mut f = Fixture::new();
        let v0 = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        let cell = f.create_cg(&v0);
        // The owning instance completes the group.
        cell.complete();
        v0.lock().completed_cells.push(Arc::clone(&cell));
        let dropped = f.tree.cg_resolved(cell.id(), true, &mut f.factory);
        assert_eq!(dropped, 1, "abandon branch dropped");
        f.tree.assert_invariants();
        let suppressor = |tree: &DependencyTree| {
            tree.versions()
                .into_iter()
                .find(|v| v.window().id == 1)
                .expect("a w1 version exists")
        };
        let w1 = suppressor(&f.tree);
        assert!(w1.suppressed().iter().any(|c| c.id() == cell.id()));

        // While v0's state still holds the completion, it is vouched for:
        // the sweep must not touch anything.
        let revoked = vec![Arc::clone(&cell)];
        assert_eq!(f.tree.revoke_completions(&revoked, &mut f.factory), 0);
        assert_eq!(suppressor(&f.tree).id(), w1.id());

        // v0 rolls back: the completion is discarded and reported revoked.
        let revoked = v0.rollback_state();
        assert!(revoked.iter().any(|c| c.id() == cell.id()));
        let dropped = f.tree.revoke_completions(&revoked, &mut f.factory);
        assert_eq!(dropped, 1, "the poisoned w1 version is replaced");
        f.tree.assert_invariants();
        assert!(w1.is_dropped());
        let replacement = suppressor(&f.tree);
        assert_ne!(replacement.id(), w1.id());
        assert!(
            replacement.suppressed().is_empty(),
            "the void group is gone from the replacement's world"
        );
    }

    #[test]
    fn new_window_attaches_at_all_leaves() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let _cg = f.create_cg(&w1);
        // leaves: two w2 versions → two w3 versions.
        let w3 = f.open_window(2);
        assert_eq!(w3.len(), 2);
        assert_eq!(f.tree.version_count(), 5);
    }

    #[test]
    fn new_window_under_leaf_cg_creates_both_branches() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        // CG before any dependent window exists: CG vertex is a leaf.
        let cg = f.create_cg(&w1);
        let w2 = f.open_window(1);
        assert_eq!(w2.len(), 2);
        let suppressing = w2
            .iter()
            .filter(|v| v.suppressed().iter().any(|c| c.id() == cg.id()))
            .count();
        assert_eq!(suppressing, 1);
    }

    #[test]
    fn completion_keeps_suppressing_branch() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let cg = f.create_cg(&w1);
        cg.complete();
        let dropped = f.tree.cg_resolved(cg.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 1);
        assert_eq!(f.tree.version_count(), 2);
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        assert!(survivor.suppressed().iter().any(|c| c.id() == cg.id()));
    }

    #[test]
    fn abandonment_keeps_original_branch() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let w2_orig = f.open_window(1).remove(0);
        let cg = f.create_cg(&w1);
        cg.abandon();
        let dropped = f.tree.cg_resolved(cg.id(), false, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 1);
        // The surviving version is the *original* (it kept its state).
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        assert_eq!(survivor.id(), w2_orig.id());
        assert!(survivor.suppressed().is_empty());
    }

    #[test]
    fn sequential_cgs_accumulate_suppression() {
        // The runtime's actual lifecycle (max_active = 1): a version's
        // groups are created and resolved one after another; completed
        // suppression accumulates in the surviving dependent versions.
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let cg1 = f.create_cg(&w1);
        assert_eq!(f.tree.version_count(), 3);
        cg1.complete();
        f.tree.cg_resolved(cg1.id(), true, &mut f.factory);
        f.tree.assert_invariants();

        let cg2 = f.create_cg(&w1);
        // Completion chain inherits the cg1 fact from the old child.
        let suppressing_both = f
            .tree
            .versions()
            .iter()
            .filter(|v| v.window().id == 1)
            .filter(|v| {
                let ids: Vec<CgId> = v.suppressed().iter().map(|c| c.id()).collect();
                ids.contains(&cg1.id()) && ids.contains(&cg2.id())
            })
            .count();
        assert_eq!(suppressing_both, 1, "completion branch carries both groups");

        cg2.complete();
        f.tree.cg_resolved(cg2.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(f.tree.version_count(), 2);
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        let mut ids: Vec<CgId> = survivor.suppressed().iter().map(|c| c.id()).collect();
        ids.sort();
        assert_eq!(ids, vec![cg1.id(), cg2.id()]);
    }

    #[test]
    fn abandoned_then_completed_keeps_only_completed() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let cg1 = f.create_cg(&w1);
        cg1.abandon();
        f.tree.cg_resolved(cg1.id(), false, &mut f.factory);
        f.tree.assert_invariants();
        let cg2 = f.create_cg(&w1);
        cg2.complete();
        f.tree.cg_resolved(cg2.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        let ids: Vec<CgId> = survivor.suppressed().iter().map(|c| c.id()).collect();
        assert_eq!(ids, vec![cg2.id()]);
    }

    #[test]
    fn completion_without_dependents_is_recorded_as_fact() {
        // A group completes while no dependent window exists; a window
        // opening afterwards must still suppress the consumed events.
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let cg = f.create_cg(&w1);
        cg.complete();
        f.tree.cg_resolved(cg.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(f.tree.version_count(), 1);
        let w2 = f.open_window(1);
        assert_eq!(w2.len(), 1);
        assert!(
            w2[0].suppressed().iter().any(|c| c.id() == cg.id()),
            "later window inherits the completed-group fact"
        );
    }

    #[test]
    fn facts_chain_through_later_groups() {
        // cg1 completes with no dependents (fact on w1); cg2 opens; a new
        // window attaching below cg2 must suppress cg1 on *both* edges and
        // cg2 only on the completion edge.
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let cg1 = f.create_cg(&w1);
        cg1.complete();
        f.tree.cg_resolved(cg1.id(), true, &mut f.factory);
        let cg2 = f.create_cg(&w1);
        let w2 = f.open_window(1);
        assert_eq!(w2.len(), 2);
        for v in &w2 {
            assert!(
                v.suppressed().iter().any(|c| c.id() == cg1.id()),
                "fact cg1 applies to every branch"
            );
        }
        let with_cg2 = w2
            .iter()
            .filter(|v| v.suppressed().iter().any(|c| c.id() == cg2.id()))
            .count();
        assert_eq!(with_cg2, 1);
    }

    #[test]
    fn dropped_versions_are_flagged() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let w2_orig = f.open_window(1).remove(0);
        let cg = f.create_cg(&w1);
        cg.complete();
        f.tree.cg_resolved(cg.id(), true, &mut f.factory);
        assert!(w2_orig.is_dropped());
    }

    #[test]
    fn retirement_promotes_child() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let w2 = f.open_window(1).remove(0);
        let retired = f.tree.retire_root(&mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(retired.id(), w1.id());
        assert_eq!(f.tree.root_version().unwrap().id(), w2.id());
        let last = f.tree.retire_root(&mut f.factory);
        assert_eq!(last.id(), w2.id());
        assert!(f.tree.is_empty());
    }

    #[test]
    fn root_blocked_by_cg_detected() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        assert!(!f.tree.root_blocked_by_cg());
        let cg = f.create_cg(&w1);
        assert!(f.tree.root_blocked_by_cg());
        cg.abandon();
        f.tree.cg_resolved(cg.id(), false, &mut f.factory);
        assert!(!f.tree.root_blocked_by_cg());
    }

    #[test]
    fn top_k_prefers_likely_branches() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let cg = f.create_cg(&w1);
        // completion probability 0.9 → completion-branch version outranks
        // the abandon-branch version.
        let top = f.tree.top_k(2, &|_c| 0.9, &mut f.factory);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].id(), w1.id()); // root first (prob 1.0)
        assert!(top[1].suppressed().iter().any(|c| c.id() == cg.id()));
        let top_low = f.tree.top_k(3, &|_c| 0.1, &mut f.factory);
        assert!(top_low[1].suppressed().is_empty());
        let _ = cg;
    }

    #[test]
    fn top_k_skips_finished_versions() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let w2 = f.open_window(1).remove(0);
        w1.mark_finished();
        let top = f.tree.top_k(2, &|_c| 0.5, &mut f.factory);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].id(), w2.id());
    }

    #[test]
    fn top_k_visits_minimal_vertices_breadth_case() {
        // 50 % probability: SPECTRE explores in breadth (paper §4.2.1).
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let _w3 = f.open_window(2);
        let _cg = f.create_cg(&w1);
        let top = f.tree.top_k(3, &|_c| 0.5, &mut f.factory);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].id(), w1.id());
        // the two w2 versions (each 0.5) come before any w3 version
        assert_eq!(top[1].window().id, 1);
        assert_eq!(top[2].window().id, 1);
    }

    #[test]
    fn rollback_rebuild_resets_subtree() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let _w3 = f.open_window(2);
        let _cg = f.create_cg(&w1);
        assert_eq!(f.tree.version_count(), 5);
        let dropped = f.tree.rollback_rebuild(w1.id(), &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 4);
        // fresh chain: w1 + one version each of w2, w3
        assert_eq!(f.tree.version_count(), 3);
        let top = f.tree.top_k(3, &|_c| 0.5, &mut f.factory);
        assert_eq!(top.len(), 3);
    }

    #[test]
    fn stale_cg_created_is_ignored() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let w2 = f.open_window(1).remove(0);
        // Drop w2's subtree via rollback of w1 (w2 is rebuilt fresh).
        f.tree.rollback_rebuild(w1.id(), &mut f.factory);
        assert!(w2.is_dropped());
        // An op from the dropped version arrives late: ignored.
        let cell = Arc::new(CgCell::new(CgId(99), 1, 1));
        assert!(!f.tree.cg_created(w2.id(), cell, &mut f.factory));
        f.tree.assert_invariants();
    }

    #[test]
    fn lazy_cg_creation_defers_the_clone() {
        // Lazy mode: creating a group allocates a thunk instead of copying
        // the dependent subtree — the version count does not move.
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        assert_eq!(f.tree.version_count(), 2);
        let _cg = f.create_cg(&w1);
        assert_eq!(f.tree.version_count(), 2, "no eager copy");
        assert_eq!(f.tree.lazy_count(), 1);
        assert_eq!(f.tree.take_lazy_stats(), (0, 0));
    }

    #[test]
    fn lazy_branch_dropped_on_abandonment_costs_nothing() {
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let w2_orig = f.open_window(1).remove(0);
        let cg = f.create_cg(&w1);
        cg.abandon();
        let dropped = f.tree.cg_resolved(cg.id(), false, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 0, "the loser branch held no versions");
        assert_eq!(f.tree.version_count(), 2);
        assert_eq!(f.tree.lazy_count(), 0);
        assert_eq!(f.tree.take_lazy_stats(), (0, 1), "one free drop");
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        assert_eq!(survivor.id(), w2_orig.id(), "original kept, never cloned");
    }

    #[test]
    fn lazy_branch_completion_rebuilds_fresh() {
        // A group completing before its branch was ever scheduled: no
        // clone is worth taking (an unscheduled source has no progress, a
        // scheduled one processed the just-consumed events and would roll
        // back), so the winner is rebuilt as fresh suppressing versions.
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let w2_orig = f.open_window(1).remove(0);
        let cg = f.create_cg(&w1);
        cg.complete();
        let dropped = f.tree.cg_resolved(cg.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 1, "the abandon original is dropped");
        assert!(w2_orig.is_dropped());
        assert_eq!(f.tree.version_count(), 2);
        assert_eq!(
            f.tree.take_lazy_stats(),
            (0, 0),
            "neither cloned nor dropped: rebuilt fresh"
        );
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        assert_ne!(survivor.id(), w2_orig.id());
        assert!(survivor.suppressed().iter().any(|c| c.id() == cg.id()));
        assert_eq!(survivor.lock().pos, 0, "reprocesses from the start");
    }

    #[test]
    fn lazy_branch_materializes_when_scheduled() {
        // The predictor ranks the completion branch high: selecting the
        // top k materializes it. Ranked low, it is never cloned.
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let cg = f.create_cg(&w1);
        let top = f.tree.top_k(2, &|_c| 0.1, &mut f.factory);
        assert_eq!(top.len(), 2);
        assert!(top[1].suppressed().is_empty(), "abandon branch preferred");
        assert_eq!(f.tree.take_lazy_stats(), (0, 0), "low rank: no clone");
        assert_eq!(f.tree.lazy_count(), 1);

        let top = f.tree.top_k(2, &|_c| 0.9, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(top.len(), 2);
        assert!(
            top[1].suppressed().iter().any(|c| c.id() == cg.id()),
            "high rank: the completion branch materialized and was selected"
        );
        assert_eq!(f.tree.take_lazy_stats(), (1, 0));
        assert_eq!(f.tree.version_count(), 3);
    }

    #[test]
    fn rollback_teardown_drops_unmaterialized_branches() {
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let _cg = f.create_cg(&w1);
        assert_eq!(f.tree.lazy_count(), 1);
        let dropped = f.tree.rollback_rebuild(w1.id(), &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 1, "only the materialized dependent version");
        assert_eq!(f.tree.lazy_count(), 0);
        assert_eq!(f.tree.take_lazy_stats(), (0, 1));
        assert_eq!(f.tree.version_count(), 2, "w1 + rebuilt w2");
    }

    #[test]
    fn revoke_completions_crosses_unmaterialized_vertex() {
        // A void completion is revoked while a *different* group's
        // completion branch is still a thunk: the sweep cleans the
        // materialization source, and a later materialization clones the
        // cleaned world — the lazy vertex itself needs no sweep.
        let mut f = Fixture::lazy();
        let v0 = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        let cg_a = f.create_cg(&v0);
        cg_a.complete();
        v0.lock().completed_cells.push(Arc::clone(&cg_a));
        f.tree.cg_resolved(cg_a.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        // The survivor w1 version suppresses a. Open the next group: its
        // completion branch stays lazy.
        let cg_b = f.create_cg(&v0);
        assert_eq!(f.tree.lazy_count(), 1);
        let poisoned = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        assert!(poisoned.suppressed().iter().any(|c| c.id() == cg_a.id()));

        // v0 rolls back; its completion of a is void.
        let revoked = v0.rollback_state();
        assert!(revoked.iter().any(|c| c.id() == cg_a.id()));
        let dropped = f.tree.revoke_completions(&revoked, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 1, "the poisoned w1 version is replaced");
        assert!(poisoned.is_dropped());
        assert_eq!(f.tree.lazy_count(), 1, "the thunk survives the sweep");

        // b completes: the branch materializes from the *cleaned* source.
        cg_b.complete();
        f.tree.cg_resolved(cg_b.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        let ids: Vec<CgId> = survivor.suppressed().iter().map(|c| c.id()).collect();
        assert!(ids.contains(&cg_b.id()));
        assert!(
            !ids.contains(&cg_a.id()),
            "the void completion never leaks into the late clone"
        );
    }

    #[test]
    fn attach_under_lazy_leaf_cg_defers_completion_version() {
        // A group created before any dependent window exists: a window
        // opening later eagerly creates both edge versions; lazily it
        // creates only the abandon-side version plus a thunk.
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let cg = f.create_cg(&w1);
        assert_eq!(f.tree.lazy_count(), 0, "no dependents: nothing to defer");
        let w2 = f.open_window(1);
        assert_eq!(w2.len(), 1, "only the abandon-side version exists");
        assert!(w2[0].suppressed().is_empty());
        assert_eq!(f.tree.lazy_count(), 1);
        cg.complete();
        f.tree.cg_resolved(cg.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        assert!(survivor.suppressed().iter().any(|c| c.id() == cg.id()));
        assert_eq!(f.tree.take_lazy_stats(), (0, 0), "rebuilt fresh");
    }

    #[test]
    fn nested_branches_stay_lazy_through_materialization() {
        // Materializing an outer branch copies an inner unresolved group's
        // vertex — the inner completion branch must stay a thunk in the
        // copy (under the twin cell), not get cloned transitively.
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let w2 = f.open_window(1).remove(0);
        let cg1 = f.create_cg(&w1); // thunk over the w2 subtree
        let cg2 = f.create_cg(&w2); // leaf CG under the original w2 version
                                    // Mirror the runtime: the owning version holds its group open, so
                                    // a clone of it gets an independent twin.
        w2.lock().open_cgs.push((MatchId(0), Arc::clone(&cg2)));
        let _w3 = f.open_window(2); // attaches below cg2 (abandon + thunk)
        assert_eq!(f.tree.lazy_count(), 2);
        assert_eq!(f.tree.version_count(), 3);

        // The predictor ranks cg1's completion branch highest: the top-k
        // selection clones it. The clone must carry w2', w3', a twin CG
        // vertex for cg2 — and the twin's completion edge must again be a
        // thunk, not a transitively forced clone.
        let top = f.tree.top_k(2, &|_c| 0.95, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(top.len(), 2);
        assert_eq!(f.tree.version_count(), 5, "w1..w3 plus w2', w3'");
        assert_eq!(f.tree.lazy_count(), 2, "inner thunk re-created lazily");
        let (materialized, lazy_dropped) = f.tree.take_lazy_stats();
        assert_eq!(materialized, 2, "w2' and w3'");
        assert_eq!(lazy_dropped, 0);
        // The scheduled branch head is the w2 clone in the cg1-completed
        // world, holding an open twin in place of cg2.
        let w2_copy = Arc::clone(&top[1]);
        assert_eq!(w2_copy.window().id, 1);
        assert!(w2_copy.suppressed().iter().any(|c| c.id() == cg1.id()));
        {
            let inner = w2_copy.lock();
            assert_eq!(inner.open_cgs.len(), 1);
            assert_ne!(inner.open_cgs[0].1.id(), cg2.id(), "independent twin");
        }

        // cg1 then completes: the already-materialized branch wins as-is,
        // and the abandon side (with the original inner thunk) dies free.
        cg1.complete();
        f.tree.cg_resolved(cg1.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(f.tree.version_count(), 3);
        assert_eq!(f.tree.lazy_count(), 1);
        assert_eq!(f.tree.take_lazy_stats(), (0, 1));
        for v in f.tree.versions() {
            if v.window().id > 0 {
                assert!(v.suppressed().iter().any(|c| c.id() == cg1.id()));
            }
        }
    }

    #[test]
    fn lazy_attach_defers_leaf_versions() {
        // Opening windows records them on one marker per lineage; no
        // version state is created until the lineage is scheduled.
        let mut f = Fixture::all_lazy();
        let _w0 = f.open_window(0);
        assert_eq!(f.tree.version_count(), 1, "the root is always real");
        let w1 = f.open_window(1);
        assert!(w1.is_empty(), "no eager version for w1");
        assert_eq!(f.tree.pending_attach_count(), 1);
        let w2 = f.open_window(2);
        assert!(w2.is_empty());
        assert_eq!(f.tree.pending_attach_count(), 1, "one marker per lineage");
        assert_eq!(f.tree.pending_attach_windows(), 2);
        assert_eq!(f.tree.version_count(), 1);
    }

    #[test]
    fn pending_attach_materializes_one_version_per_schedule() {
        let mut f = Fixture::all_lazy();
        let _ = f.open_window(0);
        let _ = f.open_window(1);
        let _ = f.open_window(2);
        // k = 2: the root plus exactly one materialized pending window;
        // the third window stays thunked below the new version.
        let top = f.tree.top_k(2, &|_c| 0.5, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].window().id, 0);
        assert_eq!(top[1].window().id, 1);
        assert_eq!(f.tree.version_count(), 2);
        assert_eq!(f.tree.pending_attach_windows(), 1);
        // k = 3 materializes the tail too.
        let top = f.tree.top_k(3, &|_c| 0.5, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(top.len(), 3);
        assert_eq!(top[2].window().id, 2);
        assert_eq!(f.tree.version_count(), 3);
        assert_eq!(f.tree.pending_attach_count(), 0);
    }

    #[test]
    fn retire_materializes_pending_child() {
        let mut f = Fixture::all_lazy();
        let w0 = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        assert_eq!(f.tree.version_count(), 1);
        let retired = f.tree.retire_root(&mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(retired.id(), w0.id());
        let root = f.tree.root_version().expect("w1 promoted");
        assert_eq!(root.window().id, 1);
        assert_eq!(f.tree.pending_attach_count(), 0);
    }

    #[test]
    fn pending_attach_drops_free_with_losing_branch() {
        // Windows pending under a CG's abandon side vanish for free when
        // the group completes and the completion branch (rebuilt fresh)
        // wins — and the rebuilt lineage covers the pending windows: its
        // head is created, its tail stays pending below the head.
        let mut f = Fixture::all_lazy();
        let w1 = f.open_window(0).remove(0);
        let cg = f.create_cg(&w1);
        let _ = f.open_window(1);
        let _ = f.open_window(2);
        assert_eq!(f.tree.version_count(), 1, "both dependents still pending");
        cg.complete();
        f.tree.cg_resolved(cg.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(f.tree.version_count(), 2, "w1 + the rebuilt head w2");
        assert_eq!(f.tree.pending_attach_count(), 1);
        assert_eq!(f.tree.pending_attach_windows(), 1, "w3 pends below w2");
        let top = f.tree.top_k(3, &|_c| 0.5, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(top.len(), 3);
        for v in f.tree.versions() {
            if v.window().id > 0 {
                assert!(
                    v.suppressed().iter().any(|c| c.id() == cg.id()),
                    "rebuilt chain suppresses the completed group"
                );
                assert_eq!(v.lock().pos, 0, "fresh, reprocesses from the start");
            }
        }
    }

    #[test]
    fn pending_attach_abandonment_keeps_windows_pending() {
        // An abandoned group splices its abandon side — including a
        // marker — back up without materializing anything.
        let mut f = Fixture::all_lazy();
        let w1 = f.open_window(0).remove(0);
        let cg = f.create_cg(&w1);
        let _ = f.open_window(1);
        cg.abandon();
        f.tree.cg_resolved(cg.id(), false, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(f.tree.version_count(), 1, "w2 still pending");
        assert_eq!(f.tree.pending_attach_windows(), 1);
        // Scheduling it later derives a clean suppression context.
        let top = f.tree.top_k(2, &|_c| 0.5, &mut f.factory);
        assert_eq!(top.len(), 2);
        assert!(top[1].suppressed().is_empty());
    }

    #[test]
    fn completion_edge_marker_materializes_with_cell_suppression() {
        // Eager branch copies + lazy attach: a window attaching under a
        // leaf CG vertex defers on both edges; the completion-edge marker
        // must pick up the group's cell when it materializes.
        let mut f = Fixture::eager_branches_lazy_attach();
        let w1 = f.open_window(0).remove(0);
        let cg = f.create_cg(&w1);
        let created = f.open_window(1);
        assert!(created.is_empty(), "both edges deferred");
        assert_eq!(f.tree.pending_attach_count(), 2);
        let top = f.tree.top_k(3, &|_c| 0.5, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(top.len(), 3);
        let suppressing = top
            .iter()
            .filter(|v| v.suppressed().iter().any(|c| c.id() == cg.id()))
            .count();
        assert_eq!(suppressing, 1, "completion-side copy suppresses the cell");
        assert_eq!(f.tree.version_count(), 3);
    }

    #[test]
    fn eager_branch_copy_carries_markers() {
        // Eager branches + lazy attach: cg_created deep-copies the
        // dependent subtree — a pending-attach marker in it must copy as
        // a marker, not force materialization.
        let mut f = Fixture::eager_branches_lazy_attach();
        let w1 = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        assert_eq!(f.tree.pending_attach_count(), 1);
        let cg = f.create_cg(&w1);
        f.tree.assert_invariants();
        assert_eq!(
            f.tree.pending_attach_count(),
            2,
            "the completion copy carries its own marker"
        );
        assert_eq!(f.tree.version_count(), 1, "no version materialized");
        // Scheduling deep enough materializes both sides; exactly one
        // suppresses the group.
        let top = f.tree.top_k(3, &|_c| 0.5, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(top.len(), 3);
        let suppressing = top
            .iter()
            .filter(|v| v.suppressed().iter().any(|c| c.id() == cg.id()))
            .count();
        assert_eq!(suppressing, 1);
    }

    #[test]
    fn rollback_teardown_drops_pending_windows() {
        let mut f = Fixture::all_lazy();
        let w1 = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        let _ = f.open_window(2);
        assert_eq!(f.tree.pending_attach_windows(), 2);
        let dropped = f.tree.rollback_rebuild(w1.id(), &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 0, "pending windows die free");
        assert_eq!(f.tree.version_count(), 2, "rollback rebuilds the head only");
        assert_eq!(f.tree.pending_attach_count(), 1);
        assert_eq!(f.tree.pending_attach_windows(), 1, "w3 pends below w2");
    }

    /// All-lazy fixture with a root window and `n` windows pending below
    /// it. Returns the fixture and the root version.
    fn backlog(n: u64) -> (Fixture, Arc<VersionState>) {
        let mut f = Fixture::all_lazy();
        let root = f.open_window(0).remove(0);
        for id in 1..=n {
            let window = Arc::new(WindowInfo::new(id, id * 2, id * 2, id * 2));
            f.tree.new_window(&window, &mut f.factory);
        }
        f.tree.assert_invariants();
        assert_eq!(f.tree.version_count(), 1);
        assert_eq!(f.tree.pending_attach_windows(), n as usize);
        (f, root)
    }

    /// Materializes every thunk and returns all versions.
    fn materialize_all(f: &mut Fixture) -> Vec<Arc<VersionState>> {
        f.tree.top_k(usize::MAX, &|_c| 0.5, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(f.tree.pending_attach_windows(), 0);
        f.tree.versions()
    }

    fn ids(cells: &[Arc<CgCell>]) -> Vec<CgId> {
        let mut ids: Vec<CgId> = cells.iter().map(|c| c.id()).collect();
        ids.sort();
        ids
    }

    #[test]
    fn completion_over_a_backlog_creates_the_head_only() {
        let (mut f, root) = backlog(1000);
        let cg = f.create_cg(&root);
        cg.complete();
        let before = f.factory.next_wv;
        f.tree.cg_resolved(cg.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        assert!(f.factory.next_wv - before <= 2, "one version, not 1000");
        assert!(f.tree.pending_attach_windows() >= 998);
        assert_eq!(f.tree.speculative_load(), 1001);
        let versions = materialize_all(&mut f);
        assert_eq!(versions.len(), 1001);
        for v in versions.iter().filter(|v| v.window().id > 0) {
            assert_eq!(ids(v.suppressed()), vec![cg.id()]);
        }
    }

    #[test]
    fn rollback_over_a_backlog_creates_the_head_only() {
        let (mut f, root) = backlog(1000);
        let before = f.factory.next_wv;
        let dropped = f.tree.rollback_rebuild(root.id(), &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 0);
        assert!(f.factory.next_wv - before <= 2, "one version, not 1000");
        assert!(f.tree.pending_attach_windows() >= 998);
        let versions = materialize_all(&mut f);
        assert_eq!(versions.len(), 1001);
        assert!(versions.iter().all(|v| v.suppressed().is_empty()));
    }

    #[test]
    fn poisoned_replacement_over_a_backlog_creates_two_versions() {
        let mut f = Fixture::all_lazy();
        let v0 = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        let cg = f.create_cg(&v0);
        cg.complete();
        v0.lock().completed_cells.push(Arc::clone(&cg));
        f.tree.cg_resolved(cg.id(), true, &mut f.factory);
        for id in 2..=1001 {
            f.open_window(id);
        }
        assert_eq!(f.tree.version_count(), 2, "v0 + the w1 head suppressing cg");
        // v0 rolls back; only the sweep runs here, so the w1 version is an
        // escapee assuming the void completion.
        let revoked = v0.rollback_state();
        let before = f.factory.next_wv;
        let dropped = f.tree.revoke_completions(&revoked, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 1);
        assert!(
            f.factory.next_wv - before <= 2,
            "the replacement and the head of its rebuilt lineage"
        );
        assert!(f.tree.pending_attach_windows() >= 998);
        let versions = materialize_all(&mut f);
        assert_eq!(versions.len(), 1002);
        assert!(versions.iter().all(|v| v.suppressed().is_empty()));
    }

    #[test]
    fn clone_fallback_over_a_backlog_creates_the_head_only() {
        // The w1 version holds an open group the tree has not seen yet (its
        // CgCreated op is in flight), so materializing a branch over it
        // cannot clone: the copy falls back to a fresh lineage from w1 on.
        let mut f = Fixture::all_lazy();
        let root = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        let w1 = f.tree.top_k(2, &|_c| 0.5, &mut f.factory).remove(1);
        let unseen = Arc::new(CgCell::new(CgId(77), 1, 1));
        w1.lock().open_cgs.push((MatchId(0), unseen));
        for id in 2..=1001 {
            f.open_window(id);
        }
        let cg = f.create_cg(&root);
        let before = f.factory.next_wv;
        let top = f.tree.top_k(2, &|_c| 0.9, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(ids(top[1].suppressed()), vec![cg.id()], "the fallback head");
        assert_eq!(top[1].lock().pos, 0, "fresh, not a clone");
        assert!(f.factory.next_wv - before <= 2, "one version, not 1000");
        assert_eq!(f.tree.pending_attach_windows(), 2000, "both lineages");
    }

    #[test]
    fn rebuilt_tail_derives_stats_eligibility_from_the_pruned_head() {
        // A completed group whose events all precede w1 is dead for w1:
        // the rebuilt head's suppressed set prunes to empty (the head
        // itself is not a statistics source — it was *created* with an
        // assumption). The tail materializes from the head's pruned set,
        // like every lazily attached window, so it is created with no
        // assumption and does feed the predictor; an eager chain hands
        // every link the unpruned set, so none of its links does.
        let run = |tree: DependencyTree| {
            let mut f = Fixture::with_tree(tree);
            let root = f.open_window(0).remove(0);
            let _ = f.open_window(1);
            let _ = f.open_window(2);
            let cg = f.create_cg(&root);
            cg.add_event(1, 1, 0); // w1 starts at seq 2
            cg.complete();
            f.tree.cg_resolved(cg.id(), true, &mut f.factory);
            let versions = materialize_all(&mut f);
            let of = |w: u64| {
                let v = versions.iter().find(|v| v.window().id == w).unwrap();
                (v.suppressed().is_empty(), v.stats_eligible())
            };
            (of(1), of(2))
        };
        let (head, tail) = run(DependencyTree::with_modes(true, true));
        assert_eq!(
            head,
            (true, false),
            "pruned, but created with an assumption"
        );
        assert_eq!(tail, (true, true), "derived from the pruned head");
        let (head, tail) = run(DependencyTree::with_modes(true, false));
        assert_eq!((head, tail), ((true, false), (true, false)), "eager chain");
    }

    /// One step of the exhaustive walk below. Every op targets the root
    /// version — the one version that is real in both trees whatever has
    /// or has not materialized — so one op sequence drives both.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        NewWindow,
        CgCreated,
        CgCompleted,
        CgAbandoned,
        Rollback,
        TopK,
        RetireRoot,
    }

    const OPS: [Op; 7] = [
        Op::NewWindow,
        Op::CgCreated,
        Op::CgCompleted,
        Op::CgAbandoned,
        Op::Rollback,
        Op::TopK,
        Op::RetireRoot,
    ];

    /// One version on a lineage: (window id, suppressed ids, fact ids).
    type Link = (u64, Vec<CgId>, Vec<CgId>);

    /// A tree plus the bits of runtime state the ops mirror.
    struct Walk {
        f: Fixture,
        next_window: u64,
        /// The root's open group (the runtime keeps at most one per
        /// version).
        open: Option<Arc<CgCell>>,
    }

    impl Walk {
        /// Applies `op` the way the splitter would; `false` when the op
        /// does not apply in this state (same answer in both trees: it
        /// depends only on the op history).
        fn apply(&mut self, op: Op) -> bool {
            let root = self.f.tree.root_version().cloned();
            match (op, root, self.open.clone()) {
                (Op::NewWindow, _, _) if self.next_window < 4 => {
                    self.f.open_window(self.next_window);
                    self.next_window += 1;
                }
                (Op::CgCreated, Some(root), None) => self.open = Some(self.f.create_cg(&root)),
                (Op::CgCompleted, Some(root), Some(cg)) => {
                    cg.complete();
                    root.lock().completed_cells.push(Arc::clone(&cg));
                    self.f.tree.cg_resolved(cg.id(), true, &mut self.f.factory);
                    self.open = None;
                }
                (Op::CgAbandoned, Some(_), Some(cg)) => {
                    cg.abandon();
                    self.f.tree.cg_resolved(cg.id(), false, &mut self.f.factory);
                    self.open = None;
                }
                (Op::Rollback, Some(root), _) => {
                    let revoked = root.rollback_state();
                    let (tree, factory) = (&mut self.f.tree, &mut self.f.factory);
                    tree.rollback_rebuild(root.id(), factory);
                    tree.revoke_completions(&revoked, factory);
                    self.open = None;
                }
                // k = 2, not 1: the root alone fills k = 1 and nothing
                // below it is ever ranked. At p = 0.9 the second slot
                // materializes a completion thunk or a pending window.
                (Op::TopK, Some(_), _) => {
                    self.f.tree.top_k(2, &|_c| 0.9, &mut self.f.factory);
                }
                (Op::RetireRoot, Some(_), None) => {
                    self.f.tree.retire_root(&mut self.f.factory);
                }
                _ => return false,
            }
            self.f.tree.assert_invariants();
            true
        }

        /// Every root-to-leaf lineage of the fully materialized tree as
        /// its (window id, suppressed ids, fact ids) sequence, sorted.
        fn lineages(mut self) -> Vec<Vec<Link>> {
            materialize_all(&mut self.f);
            let tree = &self.f.tree;
            let mut done = Vec::new();
            let mut stack: Vec<_> = tree.root.map(|r| (r, Vec::new())).into_iter().collect();
            while let Some((id, mut path)) = stack.pop() {
                let edges = match tree.node(id) {
                    Node::Version {
                        state,
                        child,
                        facts,
                        ..
                    } => {
                        path.push((state.window().id, ids(state.suppressed()), ids(facts)));
                        vec![*child]
                    }
                    Node::Cg {
                        completion,
                        abandon,
                        ..
                    } => vec![*completion, *abandon],
                    Node::Lazy { .. } | Node::PendingAttach { .. } => {
                        unreachable!("fully materialized")
                    }
                };
                for edge in edges {
                    match edge {
                        Some(c) => stack.push((c, path.clone())),
                        None => done.push(path.clone()),
                    }
                }
            }
            done.sort();
            done
        }
    }

    #[test]
    fn lazy_tails_match_eager_attach_on_every_small_op_sequence() {
        // The property that makes lazy tails output-invisible, checked
        // exhaustively where a counter-example is six ops long: whatever
        // the op history, the lazy-attach tree stands for exactly the
        // versions the eager-attach reference holds, and has created no
        // more of them on the way.
        let mut checked = 0u32;
        for lazy_branches in [true, false] {
            for len in 1..=6u32 {
                'seq: for code in 0..7usize.pow(len) {
                    let mut walks = [true, false].map(|lazy_attach| Walk {
                        f: Fixture::with_tree(DependencyTree::with_modes(
                            lazy_branches,
                            lazy_attach,
                        )),
                        next_window: 0,
                        open: None,
                    });
                    let ops: Vec<Op> = (0..len).map(|i| OPS[code / 7usize.pow(i) % 7]).collect();
                    for &op in &ops {
                        let applied = walks.each_mut().map(|w| w.apply(op));
                        assert_eq!(applied[0], applied[1], "{ops:?}");
                        if !applied[0] {
                            continue 'seq;
                        }
                    }
                    let [created, eager_created] = walks.each_ref().map(|w| w.f.factory.next_wv);
                    assert!(
                        created <= eager_created,
                        "{ops:?}: lazy attach created {created} versions, eager {eager_created}"
                    );
                    let [lazy, eager] = walks.map(Walk::lineages);
                    assert_eq!(lazy, eager, "{ops:?} (lazy branches: {lazy_branches})");
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 5_328, "sequences applied in both branch modes");
    }

    #[test]
    fn resolved_cell_status_is_visible_to_predictor_paths() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let cg = f.create_cg(&w1);
        assert_eq!(cg.status(), CgStatus::Open);
        cg.complete();
        assert!(cg.is_resolved());
    }
}
