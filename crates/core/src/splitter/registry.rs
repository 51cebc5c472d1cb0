//! The query and tenant registry: deploy and retire, metric rollups, and
//! cycle phases (a) and (b) — applying the instances' tree ops and feeding
//! each query's Markov model.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use spectre_query::window::WindowAssigner;
use spectre_query::{ComplexEvent, EventFilter, Query, WindowClose};

use super::schedule::RankedNominations;
use super::{SpecGroup, Splitter};
use crate::cg::{CgCell, CgId};
use crate::config::{PredictorKind, TenantQuota};
use crate::engine::EngineError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::predictor::{CompletionPredictor, FixedPredictor, MarkovPredictor};
use crate::reorder::ReorderStats;
use crate::shared::{QueryId, SharedState, TenantId, TreeOp};
use crate::store::WindowInfo;
use crate::tree::{DependencyTree, VersionFactory};
use crate::version::VersionState;

/// Per-tenant policy and bookkeeping (see the [module docs](super)):
/// quota, owned queries, and the metric residual of retired queries that
/// keeps [`tenant_metrics`](Splitter::tenant_metrics) summing exactly to
/// the aggregate across the tenant's whole lifetime.
pub(super) struct TenantState {
    id: TenantId,
    pub(super) quota: TenantQuota,
    /// Queries owned by this tenant (deployment order).
    pub(super) queries: Vec<QueryId>,
    /// Accumulated snapshots of this tenant's retired queries.
    retired: MetricsSnapshot,
}

/// Per-query runtime state — everything that was hard-wired to the single
/// query before the registry existed (see the [module docs](super)).
pub(super) struct QueryState {
    pub(super) id: QueryId,
    /// Owning tenant (scheduling share, quotas, metric rollups).
    pub(super) tenant: TenantId,
    pub(super) query: Arc<Query>,
    /// Index of the query's [`SpecGroup`] in the splitter's group list.
    pub(super) group: usize,
    /// Group-window-id offset: this query's local window id is
    /// `group_id - offset`, so a query deployed mid-stream numbers its own
    /// windows 0, 1, 2, … exactly like a freshly started session would.
    pub(super) offset: u64,
    pub(super) tree: DependencyTree,
    pub(super) predictor: Box<dyn CompletionPredictor>,
    /// Pattern-derived event prefilter, or `None` when the pattern admits
    /// unconstrained events (then every window attaches eagerly, exactly
    /// the pre-filter behavior).
    pub(super) filter: Option<EventFilter>,
    /// Open windows not yet attached to the tree (which owns the sequence
    /// of attached, unretired ones — [`DependencyTree::windows`]): no
    /// event of theirs has passed the filter. Always a suffix of the
    /// window sequence (a relevant event attaches *all* deferred windows
    /// at once — it is in every open window — so attached windows are
    /// strictly older than deferred ones). A window still deferred at
    /// close is skipped entirely.
    pub(super) deferred: VecDeque<Arc<WindowInfo>>,
    /// Running average window length (events), for the prediction input `n`.
    pub(super) avg_window_size: f64,
    pub(super) closed_windows: u64,
    /// This query's share of the session counters (see
    /// [`MetricsSnapshot`]); `Metrics::add_shared` writes it together with
    /// the engine-global aggregate.
    pub(super) metrics: Arc<Metrics>,
    /// This cycle's ranked nominations (see [`Splitter::schedule`]).
    pub(super) nominations: RankedNominations,
    /// How many of [`nominations`](Self::nominations), a prefix, got a
    /// head slot this cycle.
    pub(super) granted: usize,
    /// Deficit-round-robin carryover, in instance slots: the fractional
    /// share the query was owed but not granted in earlier cycles. Bounded
    /// by k and reset to zero whenever the query has nothing to schedule.
    pub(super) credit: f64,
}

impl QueryState {
    /// Applies one buffered instance op to this query's tree.
    fn apply_op(&mut self, global: &Metrics, op: TreeOp, factory: &mut SplitterFactory) {
        let dropped = match op {
            TreeOp::CgCreated { creator, cell } => {
                self.tree.cg_created(creator, cell, factory);
                0
            }
            TreeOp::CgResolved { cg, completed } => self.tree.cg_resolved(cg, completed, factory),
            TreeOp::WvFinished { wv } => {
                // A stale op (the version left the tree) acks nothing.
                if let Some(v) = self.tree.version(wv) {
                    v.mark_acked();
                }
                0
            }
            // The rollback's reset already voided the version's ack.
            // Even when the version itself is already gone (stale op), its
            // discarded completions may survive in state copies under other
            // branches; revoke them.
            TreeOp::WvRolledBack { wv, revoked } => {
                self.tree.rollback_rebuild(wv, factory) + self.revoke(&revoked, factory)
            }
        };
        global.add_shared(&self.metrics, |m| &m.versions_dropped, dropped as u64);
    }

    /// Revokes void consumption-group completions across this query's tree
    /// (see [`DependencyTree::revoke_completions`]). Completions of already-
    /// retired windows are confirmed by the final validation and are never
    /// revoked. Returns the number of versions dropped.
    pub(super) fn revoke(
        &mut self,
        revoked: &[Arc<CgCell>],
        factory: &mut SplitterFactory,
    ) -> usize {
        if revoked.is_empty() {
            return 0;
        }
        let Some(oldest_live) = self.tree.oldest_window().map(|w| w.id) else {
            return 0;
        };
        let revocable: Vec<Arc<CgCell>> = revoked
            .iter()
            .filter(|c| c.window_id() >= oldest_live)
            .cloned()
            .collect();
        if revocable.is_empty() {
            return 0;
        }
        self.tree.revoke_completions(&revocable, factory)
    }
}

/// Spec-derived warm-up window-size estimate, used by the prediction input
/// `events_left` until the query's first window closes: exact for count
/// windows; for time windows the duration in ticks stands in for the event
/// count (the generators emit ~1 event per tick).
fn warmup_window_size(query: &Query) -> f64 {
    match query.window().close() {
        WindowClose::Count(ws) => (ws as f64).max(1.0),
        WindowClose::Time(duration) => (duration as f64).max(1.0),
    }
}

impl Splitter {
    /// Deploys a query for the default tenant — see
    /// [`deploy_query_for`](Self::deploy_query_for).
    pub fn deploy_query(&mut self, query: Arc<Query>) -> Result<QueryId, EngineError> {
        self.deploy_query_for(TenantId::DEFAULT, query)
    }

    /// Index of `tenant`'s registry entry, creating one (default quota)
    /// on first sight.
    fn tenant_entry(&mut self, tenant: TenantId) -> usize {
        match self.tenant_index.get(&tenant) {
            Some(&ti) => ti,
            None => {
                let ti = self.tenants.len();
                self.tenants.push(TenantState {
                    id: tenant,
                    quota: TenantQuota::default(),
                    queries: Vec::new(),
                    retired: MetricsSnapshot::default(),
                });
                self.tenant_index.insert(tenant, ti);
                ti
            }
        }
    }

    /// Sets (or replaces) `tenant`'s quota, registering the tenant if it
    /// has no queries yet.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] if the quota is degenerate or
    /// exceeds the session configuration's global caps (see
    /// [`TenantQuota::try_validate`]).
    pub fn set_tenant_quota(
        &mut self,
        tenant: TenantId,
        quota: TenantQuota,
    ) -> Result<(), EngineError> {
        if let Err(msg) = quota.try_validate(&self.config) {
            return Err(EngineError::InvalidConfig(msg));
        }
        let ti = self.tenant_entry(tenant);
        self.tenants[ti].quota = quota;
        Ok(())
    }

    /// Deploys a query owned by `tenant`: registers its `QueryState` and
    /// subscribes it to the spec group matching its window spec (creating
    /// one if no deployed query shares the spec). The query starts
    /// matching from the next window its group opens — windows already
    /// open at deploy time are not its.
    ///
    /// # Errors
    ///
    /// [`EngineError::QueryNotRunnable`] if the query allows more than one
    /// concurrently active partial match: the speculative runtime keeps one
    /// open consumption group per window version at a time (the paper's
    /// evaluation setting, §4.2), and the dependency-tree chain
    /// construction relies on a version's groups resolving in creation
    /// order — such queries run on the sequential engines;
    /// [`EngineError::QuotaExceeded`] if the tenant is at its
    /// [`TenantQuota::max_queries`] cap.
    pub fn deploy_query_for(
        &mut self,
        tenant: TenantId,
        query: Arc<Query>,
    ) -> Result<QueryId, EngineError> {
        if query.max_active() != 1 {
            return Err(EngineError::QueryNotRunnable {
                query: query.name().to_string(),
                reason: "the speculative runtime requires max_active = 1".to_string(),
            });
        }
        let ti = self.tenant_entry(tenant);
        if let Some(cap) = self.tenants[ti].quota.max_queries {
            if self.tenants[ti].queries.len() >= cap {
                return Err(EngineError::QuotaExceeded {
                    tenant,
                    max_queries: cap,
                });
            }
        }
        let id = QueryId(self.next_query);
        self.next_query += 1;
        let spec = query.window();
        let group = match self.groups.iter().position(|g| g.assigner.spec() == spec) {
            Some(gi) => gi,
            None => {
                self.groups.push(SpecGroup {
                    assigner: WindowAssigner::new(spec.clone()),
                    base_pos: self.next_pos,
                    members: Vec::new(),
                    open: Vec::new(),
                    refs: HashMap::new(),
                });
                self.groups.len() - 1
            }
        };
        let g = &mut self.groups[group];
        g.members.push(id);
        let offset = g.assigner.windows_opened();
        let predictor: Box<dyn CompletionPredictor> = match &self.config.predictor {
            PredictorKind::Markov(mc) => Box::new(MarkovPredictor::new(
                query.pattern().max_delta(),
                mc.clone(),
            )),
            PredictorKind::Fixed(p) => Box::new(FixedPredictor::new(*p)),
        };
        let avg_window_size = warmup_window_size(&query);
        let filter = EventFilter::for_query(&query);
        self.query_index.insert(id, self.queries.len());
        self.tenants[ti].queries.push(id);
        self.queries.push(QueryState {
            id,
            tenant,
            query,
            group,
            offset,
            tree: DependencyTree::new(),
            predictor,
            filter,
            deferred: VecDeque::new(),
            avg_window_size,
            closed_windows: 0,
            // Per-query views get worker blocks too: instances flush their
            // run counters into them, so without the split the per-query
            // lines would ping-pong between cores just like the aggregate.
            metrics: Arc::new(Metrics::with_workers(self.shared.instance_count())),
            nominations: Vec::new(),
            granted: 0,
            credit: 0.0,
        });
        Ok(id)
    }

    /// Retires a deployed query mid-session: drops its in-flight versions
    /// (instances abort them at the next run boundary), clears its
    /// scheduling slots, releases its window references (shared store
    /// buffers are freed when their last subscriber goes) and removes its
    /// registry entry. Returns the query's committed-but-undrained outputs,
    /// or `None` for an unknown (never deployed or already retired) id.
    /// The other queries are untouched.
    pub fn retire_query(&mut self, qid: QueryId) -> Option<Vec<ComplexEvent>> {
        let idx = self.query_index.remove(&qid)?;
        let qs = self.queries.remove(idx);
        // `Vec::remove` shifted everything behind the gap down one slot.
        for (i, q) in self.queries.iter().enumerate().skip(idx) {
            self.query_index.insert(q.id, i);
        }
        // The tenant keeps the retired query's counters as a residual so
        // its rollup stays exact across the retire.
        let ti = self.tenant_index[&qs.tenant];
        let tenant = &mut self.tenants[ti];
        tenant.queries.retain(|m| *m != qid);
        tenant.retired.accumulate(&qs.metrics.snapshot());
        // Speculative work in flight is discarded: instances observe the
        // dropped flag at the next step/run boundary and go idle. Queued
        // run-ahead versions leave their FIFO the same way.
        for v in qs.tree.versions() {
            v.mark_dropped();
        }
        for (i, cur) in self.sched_shadow.iter_mut().enumerate() {
            if cur.as_ref().is_some_and(|v| v.query_id() == qid) {
                *cur = None;
                self.shared.slots[i].publish(None);
            }
        }
        // Unsubscribe from the spec group; the group itself stays (it may
        // have other members, and an empty one is reusable).
        let g = &mut self.groups[qs.group];
        g.members.retain(|m| *m != qid);
        for ow in &mut g.open {
            ow.infos.retain(|(m, _)| *m != qid);
        }
        for w in qs.tree.windows().chain(qs.deferred.iter()) {
            g.release(w.store_id, &self.shared.store);
        }
        // Queued ops/stats still tagged with this id are dropped as stale
        // when drained. Hand back the outputs the session has not drained.
        let mut mine = Vec::new();
        let mut rest = Vec::with_capacity(self.outputs.len());
        for (q, ce) in self.outputs.drain(..) {
            if q == qid {
                mine.push(ce);
            } else {
                rest.push((q, ce));
            }
        }
        self.outputs = rest;
        Some(mine)
    }

    /// Adds a reorder-stage counter delta to the metrics. Attribution
    /// follows the `windows_retired` model: the stage is shared by the
    /// whole session, every deployed query's view of the stream saw the
    /// reordering, so each query's share grows by the delta and the
    /// aggregate grows by the sum of the shares — the aggregate still
    /// decomposes exactly. With no deployed queries there is no view to
    /// attribute and the delta is discarded.
    pub fn record_reorder(&mut self, stats: &ReorderStats) {
        let global = &self.shared.metrics;
        for qs in &self.queries {
            global.add_shared(&qs.metrics, |m| &m.events_reordered, stats.reordered);
            global.add_shared(&qs.metrics, |m| &m.late_events_dropped, stats.late_dropped);
            global.add_shared(
                &qs.metrics,
                |m| &m.late_events_admitted,
                stats.late_admitted,
            );
            global.add_shared(&qs.metrics, |m| &m.watermarks_advanced, stats.watermarks);
        }
    }

    /// Ids of the currently deployed queries, in deployment order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.queries.iter().map(|q| q.id).collect()
    }

    /// Owning tenant of `qid`, or `None` for an unknown (retired) id.
    pub fn query_tenant(&self, qid: QueryId) -> Option<TenantId> {
        let &qi = self.query_index.get(&qid)?;
        Some(self.queries[qi].tenant)
    }

    /// Per-tenant metric rollups, in first-deploy order: each tenant's
    /// retired-query residual plus its live queries' snapshots, combined
    /// with [`MetricsSnapshot::accumulate`]. Every summable counter
    /// decomposes exactly over these rollups the same way it decomposes
    /// over [`per_query_metrics`](Self::per_query_metrics).
    pub fn tenant_metrics(&self) -> Vec<(TenantId, MetricsSnapshot)> {
        self.tenants
            .iter()
            .map(|t| {
                let mut acc = t.retired;
                for qid in &t.queries {
                    if let Some(&qi) = self.query_index.get(qid) {
                        acc.accumulate(&self.queries[qi].metrics.snapshot());
                    }
                }
                (t.id, acc)
            })
            .collect()
    }

    /// Per-query metric snapshots (deployment order). Engine-scoped
    /// counters (`sched_cycles`, `idle_steps`, `stalled_steps`,
    /// `store_windows_opened`) are zero here — they have no per-query
    /// attribution; `max_tree_versions` is each query's own tree high-water
    /// mark, not a share of the aggregate.
    pub fn per_query_metrics(&self) -> Vec<(QueryId, MetricsSnapshot)> {
        self.queries
            .iter()
            .map(|q| (q.id, q.metrics.snapshot()))
            .collect()
    }

    pub(super) fn apply_ops(&mut self) {
        // One lock acquisition drains everything queued up to this point;
        // ops pushed while we process land in the next cycle's drain. The
        // drain order is push order, and instances push a version's ops
        // under its lock, so each version's ops arrive in processing order
        // — which retirement acks rely on.
        let mut ops = std::mem::take(&mut self.ops_scratch);
        self.shared.ops.pop_many(&mut ops, usize::MAX);
        let shared = Arc::clone(&self.shared);
        for (qid, op) in ops.drain(..) {
            self.progress = true;
            let Some(&qi) = self.query_index.get(&qid) else {
                // Retired query: the op is stale, its tree is gone.
                continue;
            };
            let qs = &mut self.queries[qi];
            let mut factory = SplitterFactory::for_query(&shared, qs);
            qs.apply_op(&shared.metrics, op, &mut factory);
        }
        self.ops_scratch = ops;
    }

    pub(super) fn apply_stats(&mut self) {
        while let Some((qid, batch)) = self.shared.stats.pop() {
            if let Some(&qi) = self.query_index.get(&qid) {
                self.queries[qi].predictor.observe_batch(&batch.transitions);
            }
        }
        for qs in &mut self.queries {
            // No clock reads on the (common) cycle with no ρ-window pending.
            if !qs.predictor.refresh_due() {
                continue;
            }
            let started = std::time::Instant::now();
            if qs.predictor.refresh() {
                let nanos = started.elapsed().as_nanos() as u64;
                let metrics = &self.shared.metrics;
                metrics.add_shared(&qs.metrics, |m| &m.predictor_refreshes, 1);
                metrics.add_shared(&qs.metrics, |m| &m.predictor_refresh_nanos, nanos);
            }
        }
    }
}

/// The splitter's [`VersionFactory`] for one query: allocates ids from the
/// shared counters, keeps the `versions_created` metrics (aggregate and
/// per-query) and stamps new versions with the owning query.
pub(super) struct SplitterFactory {
    shared: Arc<SharedState>,
    query: Arc<Query>,
    query_id: QueryId,
    qmetrics: Arc<Metrics>,
}

impl SplitterFactory {
    pub(super) fn for_query(shared: &Arc<SharedState>, qs: &QueryState) -> Self {
        SplitterFactory {
            shared: Arc::clone(shared),
            query: Arc::clone(&qs.query),
            query_id: qs.id,
            qmetrics: Arc::clone(&qs.metrics),
        }
    }
}

impl VersionFactory for SplitterFactory {
    fn fresh(
        &mut self,
        window: &Arc<WindowInfo>,
        suppressed: Vec<Arc<CgCell>>,
    ) -> Arc<VersionState> {
        let qmetrics = &self.qmetrics;
        self.shared
            .metrics
            .add_shared(qmetrics, |m| &m.versions_created, 1);
        VersionState::for_query(
            self.shared.alloc_wv_id(),
            Arc::clone(window),
            Arc::clone(&self.query),
            suppressed,
            self.query_id,
            Arc::clone(&self.qmetrics),
        )
    }

    fn clone_of(
        &mut self,
        source: &Arc<VersionState>,
        suppressed: Vec<Arc<CgCell>>,
        expected_open: &[CgId],
    ) -> Option<(Arc<VersionState>, Vec<(CgId, Arc<CgCell>)>)> {
        let shared = Arc::clone(&self.shared);
        let mut mk_twin = |cell: &CgCell| Arc::new(cell.twin(shared.alloc_cg_id()));
        let (version, twins) = VersionState::clone_speculative(
            source,
            self.shared.alloc_wv_id(),
            suppressed,
            expected_open,
            &mut mk_twin,
        )?;
        let qmetrics = &self.qmetrics;
        self.shared
            .metrics
            .add_shared(qmetrics, |m| &m.versions_created, 1);
        Some((version, twins))
    }
}
