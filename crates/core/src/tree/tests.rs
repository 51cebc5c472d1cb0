//! Unit tests of the dependency tree, shared by its three files.

use super::*;
use crate::cg::CgStatus;
use crate::store::WindowBuf;
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
        let buf = Arc::new(WindowBuf::new(1));
        let window = Arc::new(WindowInfo::new(id, buf, id * 2, id * 2, id * 2));
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

    /// The first live version of window `id`.
    fn version_of(&self, id: u64) -> Arc<VersionState> {
        let mut versions = self.tree.versions().into_iter();
        versions
            .find(|v| v.window().id == id)
            .expect("a live version")
    }

    /// The unbudgeted top `k` at completion probability `p` for every
    /// group, without their scores.
    fn top_k(&mut self, k: usize, p: f64) -> Vec<Arc<VersionState>> {
        let (tree, factory, mut unbounded) = (&mut self.tree, &mut self.factory, usize::MAX);
        let top = tree.top_k_scored_budgeted(k, &|_| p, factory, &mut unbounded);
        top.into_iter().map(|(_, v)| v).collect()
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
    let w1 = f.version_of(1);
    assert!(w1.suppressed().iter().any(|c| c.id() == cell.id()));

    // While v0's state still holds the completion, it is vouched for:
    // the sweep must not touch anything.
    let revoked = vec![Arc::clone(&cell)];
    assert_eq!(f.tree.revoke_completions(&revoked, &mut f.factory), 0);
    assert_eq!(f.version_of(1).id(), w1.id());

    // v0 rolls back: the completion is discarded and reported revoked.
    let revoked = v0.rollback_state();
    assert!(revoked.iter().any(|c| c.id() == cell.id()));
    let dropped = f.tree.revoke_completions(&revoked, &mut f.factory);
    assert_eq!(dropped, 1, "the poisoned w1 version is replaced");
    f.tree.assert_invariants();
    assert!(w1.is_dropped());
    let replacement = f.version_of(1);
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
    let survivor = f.version_of(1);
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
    let survivor = f.version_of(1);
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
    let survivor = f.version_of(1);
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
    let survivor = f.version_of(1);
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
    let top = f.top_k(2, 0.9);
    assert_eq!(top.len(), 2);
    assert_eq!(top[0].id(), w1.id()); // root first (prob 1.0)
    assert!(top[1].suppressed().iter().any(|c| c.id() == cg.id()));
    let top_low = f.top_k(3, 0.1);
    assert!(top_low[1].suppressed().is_empty());
    let _ = cg;
}

#[test]
fn top_k_skips_finished_versions() {
    let mut f = Fixture::new();
    let w1 = f.open_window(0).remove(0);
    let w2 = f.open_window(1).remove(0);
    w1.mark_finished();
    let top = f.top_k(2, 0.5);
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
    let top = f.top_k(3, 0.5);
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
    let top = f.top_k(3, 0.5);
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
    let survivor = f.version_of(1);
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
    let survivor = f.version_of(1);
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
    let top = f.top_k(2, 0.1);
    assert_eq!(top.len(), 2);
    assert!(top[1].suppressed().is_empty(), "abandon branch preferred");
    assert_eq!(f.tree.take_lazy_stats(), (0, 0), "low rank: no clone");
    assert_eq!(f.tree.lazy_count(), 1);

    let top = f.top_k(2, 0.9);
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
    let poisoned = f.version_of(1);
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
    let survivor = f.version_of(1);
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
    let survivor = f.version_of(1);
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
    let top = f.top_k(2, 0.95);
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
    let top = f.top_k(2, 0.5);
    f.tree.assert_invariants();
    assert_eq!(top.len(), 2);
    assert_eq!(top[0].window().id, 0);
    assert_eq!(top[1].window().id, 1);
    assert_eq!(f.tree.version_count(), 2);
    assert_eq!(f.tree.pending_attach_windows(), 1);
    // k = 3 materializes the tail too.
    let top = f.top_k(3, 0.5);
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
    let top = f.top_k(3, 0.5);
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
    let top = f.top_k(2, 0.5);
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
    let top = f.top_k(3, 0.5);
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
    let top = f.top_k(3, 0.5);
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
        let buf = Arc::new(WindowBuf::new(1));
        let window = Arc::new(WindowInfo::new(id, buf, id * 2, id * 2, id * 2));
        f.tree.new_window(&window, &mut f.factory);
    }
    f.tree.assert_invariants();
    assert_eq!(f.tree.version_count(), 1);
    assert_eq!(f.tree.pending_attach_windows(), n as usize);
    (f, root)
}

/// Materializes every thunk and returns all versions.
fn materialize_all(f: &mut Fixture) -> Vec<Arc<VersionState>> {
    f.top_k(usize::MAX, 0.5);
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
    let w1 = f.top_k(2, 0.5).remove(1);
    let unseen = Arc::new(CgCell::new(CgId(77), 1, 1));
    w1.lock().open_cgs.push((MatchId(0), unseen));
    for id in 2..=1001 {
        f.open_window(id);
    }
    let cg = f.create_cg(&root);
    let before = f.factory.next_wv;
    let top = f.top_k(2, 0.9);
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
                self.f.top_k(2, 0.9);
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
                    f: Fixture::with_tree(DependencyTree::with_modes(lazy_branches, lazy_attach)),
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
