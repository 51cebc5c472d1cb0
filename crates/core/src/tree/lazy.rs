//! The tree's thunks: vertices that stand for versions not created yet.
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
//! [materialized](DependencyTree::top_k_scored_budgeted) — cloned from the *current*
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

use std::collections::HashMap;
use std::sync::Arc;

use super::{DependencyTree, Node, NodeId, VersionFactory};

impl DependencyTree {
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

    /// `true` if `id` is an unmaterialized completion branch.
    pub(super) fn is_lazy(&self, id: NodeId) -> bool {
        matches!(self.node(id), Node::Lazy { .. })
    }

    /// `true` if `id` is a pending-attach marker.
    pub(super) fn is_pending_attach(&self, id: NodeId) -> bool {
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
    /// Allocates a fresh lazy completion-branch thunk.
    pub(super) fn alloc_lazy(&mut self, parent: Option<NodeId>) -> NodeId {
        let stamp = self.next_thunk_stamp;
        self.next_thunk_stamp += 1;
        self.alloc(Node::Lazy { parent, stamp })
    }

    /// Allocates a pending-attach marker standing for the window sequence
    /// from the live window with id `first` to its end.
    pub(super) fn alloc_attach_marker(&mut self, parent: Option<NodeId>, first: u64) -> NodeId {
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
    pub(super) fn uncount_attach_marker(&mut self, first: u64) {
        self.marker_count -= 1;
        self.pending_window_count -= self.windows.len() - self.window_index(first);
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
    pub(super) fn materialize(
        &mut self,
        lazy: NodeId,
        f: &mut dyn VersionFactory,
    ) -> Option<NodeId> {
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
                let facts = self.owner_facts(cg);
                for cell in stray_facts {
                    if !facts.iter().any(|c| c.id() == cell.id()) {
                        facts.push(cell);
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
    pub(super) fn rebuild_completion_fresh(
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
    pub(super) fn materialize_attach(
        &mut self,
        marker: NodeId,
        f: &mut dyn VersionFactory,
    ) -> NodeId {
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
}
