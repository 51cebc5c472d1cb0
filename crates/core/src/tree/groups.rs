//! Consumption-group bookkeeping: creation, resolution, rollback teardown
//! and the revocation of void completions.

use std::collections::HashMap;
use std::sync::Arc;

use super::{DependencyTree, Node, NodeId, VersionFactory};
use crate::cg::{CgCell, CgId};
use crate::version::WvId;

impl DependencyTree {
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
    pub(super) fn fresh_chain(
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
    pub(super) fn copy_stateful(
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
                            // The parent may itself be a CG vertex when
                            // several groups of one version are open at once.
                            self.owner_facts(p).push(cell);
                        }
                    }
                    None => self.root = None,
                }
            }
        }
        dropped
    }

    /// Tears down and rebuilds the dependent subtree of a rolled-back
    /// version: all consumption groups the invalid processing produced (and
    /// every version speculating on them) are discarded, and a fresh
    /// lineage over the newer live windows takes their place (see "The lazy
    /// dependency tree" in `docs/ARCHITECTURE.md`) — one version plus a
    /// marker, whatever the backlog.
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
}
