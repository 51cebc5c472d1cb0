//! The splitter: ingestion, dependency-tree maintenance, completion-
//! probability prediction, top-k selection and scheduling (paper §3.2).
//!
//! One maintenance cycle performs, in order (paper §4.2.1's "cycle"):
//! (a) apply all buffered dependency-tree updates from the instances
//! (drained in one batch and routed to the owning query), (b) feed each
//! query's Markov model, (c) ingest input events in [`EventBatch`] units
//! (opening and closing windows, flushing each batch to the window store
//! with one write per touched window buffer), (d) retire finished,
//! confirmed root versions per query — emitting their buffered complex
//! events in window order — and (e) select and schedule the top-k window
//! versions across all queries.
//!
//! # Multi-query sessions
//!
//! The splitter hosts any number of concurrently deployed queries over the
//! one shared feed, store and instance pool. The split of state is strict:
//!
//! * **Per query** (`QueryState`, keyed by [`QueryId`]): window assigner
//!   membership, dependency tree, completion predictor, live-window
//!   bookkeeping, retirement acks, running window-size average, metric
//!   counters and committed outputs.
//! * **Shared** ([`SharedState`]): the feed queue, the sharded
//!   [`WindowStore`](crate::store::WindowStore), the scheduling slots, the
//!   op/stats queues and the aggregate metrics.
//!
//! Queries whose `WindowSpec`s compare equal share a `SpecGroup`: one
//! assigner drives their (identical) window boundaries, and each window's
//! events are stored **once** under a group-allocated `store_id` while every
//! member query gets its own [`WindowInfo`] cell (query-local `id`, shared
//! `store_id`). Deploying a query mid-stream subscribes it to windows from
//! the next boundary on; retiring one drops its versions, releases its
//! window references (buffers free when the last subscriber goes) and
//! leaves the other queries untouched.
//!
//! # Multi-tenant sessions
//!
//! Every query belongs to a [`TenantId`] (the default tenant when deployed
//! through [`deploy_query`](Splitter::deploy_query)). Tenancy is pure
//! policy on top of the mechanisms above:
//!
//! * **Scheduling** — one deficit round robin per cycle grants the k
//!   instance slots query by query: each tenant's weighted fair share is
//!   split evenly among its queries with work, and unspent share carries
//!   over, so no query starves behind a sibling of its own tenant.
//! * **Speculation** — a tenant's [`TenantQuota::max_versions`] caps how
//!   many window versions its queries may materialize, so one speculative
//!   tenant cannot monopolize the shared version budget.
//! * **Ingestion filters** — each query derives a conservative
//!   [`EventFilter`] from its pattern at deploy time; windows whose events
//!   the filter all rejects are never attached to the query's tree
//!   (counted as `windows_skipped`), while the shared store buffers stay
//!   byte-identical for every other subscriber.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use spectre_events::Event;
use spectre_query::window::{WindowAssigner, WindowBounds};
use spectre_query::{ComplexEvent, EventFilter, Query, WindowClose};

use crate::cg::{CgCell, CgId};
use crate::config::{PredictorKind, SpectreConfig, TenantQuota};
use crate::engine::EngineError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::predictor::{CompletionPredictor, FixedPredictor, MarkovPredictor};
use crate::reorder::ReorderStats;
use crate::shared::{QueryId, SharedState, TenantId, TreeOp, RUN_AHEAD_DEPTH};
use crate::store::WindowInfo;
use crate::tree::{DependencyTree, VersionFactory};
use crate::version::{VersionState, WvId};

/// A probability-ranked nomination list, as produced per query by the
/// schedule.
type RankedNominations = Vec<(f64, Arc<VersionState>)>;

/// One splitter→store hand-off unit: a run of consecutive stream events
/// starting at stream position [`first_pos`](Self::first_pos).
///
/// The splitter accumulates up to
/// [`SpectreConfig::batch_size`](crate::SpectreConfig::batch_size) events
/// per batch, wraps the batch in *one* `Arc`, and hands each window its
/// slice of it with a single
/// [`WindowStore::extend`](crate::store::WindowStore::extend) call — so
/// allocation, reference-count and lock traffic all scale with batches,
/// not events, and overlapping windows share the event payloads through
/// the batch. A batch size of 1 reproduces the original event-at-a-time
/// hand-off exactly.
///
/// # Example
///
/// ```
/// use spectre_core::splitter::EventBatch;
/// use spectre_events::{Event, EventType};
///
/// let mut batch = EventBatch::with_capacity(100, 64);
/// for seq in 100..104 {
///     batch.push(Event::builder(EventType::new(0)).seq(seq).ts(seq).build());
/// }
/// assert_eq!(batch.len(), 4);
/// assert_eq!(batch.first_pos(), 100);
/// // A window that opened at the batch's third event owns the slice
/// // from index 2 on:
/// assert_eq!(batch.events()[2..].len(), 2);
/// assert_eq!(batch.events()[2].seq(), 102);
/// ```
#[derive(Debug, Default)]
pub struct EventBatch {
    first_pos: u64,
    events: Vec<Event>,
}

impl EventBatch {
    /// Creates an empty batch starting at stream position `first_pos` with
    /// room for `cap` events.
    pub fn with_capacity(first_pos: u64, cap: usize) -> Self {
        EventBatch {
            first_pos,
            events: Vec::with_capacity(cap),
        }
    }

    /// Appends the next event (stream position `first_pos() + len()`).
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Stream position of the batch's first event.
    pub fn first_pos(&self) -> u64 {
        self.first_pos
    }

    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events accumulated so far.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

/// A not-yet-closed window of one spec group: the shared store buffer, the
/// batch-relative index of its first pending event, and the subscribed
/// members' window cells.
struct GroupOpenWindow {
    /// Group-local window id (the assigner's numbering), for close matching.
    group_id: u64,
    /// Shared store buffer id.
    store_id: u64,
    /// Batch-relative index of the first batch event belonging to the
    /// window (reset to 0 at each flush).
    pending: usize,
    /// Each subscribed member's own `WindowInfo` cell for this window.
    infos: Vec<(QueryId, Arc<WindowInfo>)>,
}

/// One window-spec equivalence class: the queries whose specs compare
/// equal, the single assigner driving their shared window boundaries, and
/// the reference counts that keep each shared store buffer alive until its
/// last subscriber retires the window.
struct SpecGroup {
    assigner: WindowAssigner,
    /// Stream position at group creation; the assigner's positions are
    /// relative to it (a group deployed mid-stream starts counting at its
    /// own first event).
    base_pos: u64,
    /// Member queries (in deployment order). May be empty after retires;
    /// an empty group opens no windows but stays reusable for later
    /// same-spec deploys.
    members: Vec<QueryId>,
    /// Not-yet-closed windows, mirroring the assigner's open set.
    open: Vec<GroupOpenWindow>,
    /// Live subscriber count per store buffer; the buffer is removed from
    /// the store when the count hits zero.
    refs: HashMap<u64, usize>,
}

/// Per-tenant policy and bookkeeping (see the [module docs](self)):
/// quota, owned queries, and the metric residual of retired queries that
/// keeps [`tenant_metrics`](Splitter::tenant_metrics) summing exactly to
/// the aggregate across the tenant's whole lifetime.
struct TenantState {
    id: TenantId,
    quota: TenantQuota,
    /// Queries owned by this tenant (deployment order).
    queries: Vec<QueryId>,
    /// Accumulated snapshots of this tenant's retired queries.
    retired: MetricsSnapshot,
}

/// Per-query runtime state — everything that was hard-wired to the single
/// query before the registry existed (see the [module docs](self)).
struct QueryState {
    id: QueryId,
    /// Owning tenant (scheduling share, quotas, metric rollups).
    tenant: TenantId,
    query: Arc<Query>,
    /// Index of the query's [`SpecGroup`] in the splitter's group list.
    group: usize,
    /// Group-window-id offset: this query's local window id is
    /// `group_id - offset`, so a query deployed mid-stream numbers its own
    /// windows 0, 1, 2, … exactly like a freshly started session would.
    offset: u64,
    tree: DependencyTree,
    predictor: Box<dyn CompletionPredictor>,
    /// Pattern-derived event prefilter, or `None` when the pattern admits
    /// unconstrained events (then every window attaches eagerly, exactly
    /// the pre-filter behavior).
    filter: Option<EventFilter>,
    /// Open windows not yet attached to the tree (which owns the sequence
    /// of attached, unretired ones — [`DependencyTree::windows`]): no
    /// event of theirs has passed the filter. Always a suffix of the
    /// window sequence (a relevant event attaches *all* deferred windows
    /// at once — it is in every open window — so attached windows are
    /// strictly older than deferred ones). A window still deferred at
    /// close is skipped entirely.
    deferred: VecDeque<Arc<WindowInfo>>,
    /// Versions whose `WvFinished` op has been applied. Retirement requires
    /// the ack: an instance pushes every op about a version while it holds
    /// the version's lock, so the shared queue orders each version's ops
    /// as its processing happened, even when the splitter moved the
    /// version between instances; `WvFinished` comes after all of them,
    /// so the ack guarantees the dependency tree reflects every group the
    /// version created or resolved.
    finished_acked: HashSet<WvId>,
    /// Running average window length (events), for the prediction input `n`.
    avg_window_size: f64,
    closed_windows: u64,
    /// This query's share of the session counters (see
    /// [`MetricsSnapshot`]); the engine-global aggregate is updated at the
    /// same sites.
    metrics: Arc<Metrics>,
    /// This cycle's ranked nominations (see [`Splitter::schedule`]).
    nominations: RankedNominations,
    /// How many of [`nominations`](Self::nominations), a prefix, got a
    /// head slot this cycle.
    granted: usize,
    /// Deficit-round-robin carryover, in instance slots: the fractional
    /// share the query was owed but not granted in earlier cycles. Bounded
    /// by k and reset to zero whenever the query has nothing to schedule.
    credit: f64,
}

impl QueryState {
    /// Applies one buffered instance op to this query's tree.
    fn apply_op(&mut self, global: &Metrics, op: TreeOp, factory: &mut SplitterFactory) {
        match op {
            TreeOp::CgCreated { creator, cell } => {
                self.tree.cg_created(creator, cell, factory);
            }
            TreeOp::CgResolved { cg, completed } => {
                let dropped = self.tree.cg_resolved(cg, completed, factory) as u64;
                if dropped > 0 {
                    global
                        .versions_dropped
                        .fetch_add(dropped, Ordering::Relaxed);
                    self.metrics
                        .versions_dropped
                        .fetch_add(dropped, Ordering::Relaxed);
                }
            }
            TreeOp::WvFinished { wv } => {
                self.finished_acked.insert(wv);
            }
            TreeOp::WvRolledBack { wv, revoked } => {
                // The version restarted; a previous finish ack is void.
                self.finished_acked.remove(&wv);
                let dropped = self.tree.rollback_rebuild(wv, factory) as u64;
                if dropped > 0 {
                    global
                        .versions_dropped
                        .fetch_add(dropped, Ordering::Relaxed);
                    self.metrics
                        .versions_dropped
                        .fetch_add(dropped, Ordering::Relaxed);
                }
                // Even when the version itself is already gone (stale op),
                // its discarded completions may survive in state copies
                // under other branches; revoke them.
                self.revoke(global, &revoked, factory);
            }
        }
    }

    /// Revokes void consumption-group completions across this query's tree
    /// (see [`DependencyTree::revoke_completions`]). Completions of already-
    /// retired windows are confirmed by the final validation and are never
    /// revoked.
    fn revoke(&mut self, global: &Metrics, revoked: &[Arc<CgCell>], factory: &mut SplitterFactory) {
        if revoked.is_empty() {
            return;
        }
        let Some(oldest_live) = self.tree.oldest_window().map(|w| w.id) else {
            return;
        };
        let revocable: Vec<Arc<CgCell>> = revoked
            .iter()
            .filter(|c| c.window_id() >= oldest_live)
            .cloned()
            .collect();
        if revocable.is_empty() {
            return;
        }
        let dropped = self.tree.revoke_completions(&revocable, factory) as u64;
        if dropped > 0 {
            global
                .versions_dropped
                .fetch_add(dropped, Ordering::Relaxed);
            self.metrics
                .versions_dropped
                .fetch_add(dropped, Ordering::Relaxed);
            // Acks of replaced versions are dead.
            let tree = &self.tree;
            self.finished_acked.retain(|id| tree.version(*id).is_some());
        }
    }
}

/// Why [`Splitter::fill_batch`] stopped collecting events.
enum FillOutcome {
    /// The batch reached its size cap.
    Full,
    /// Speculative back-pressure: some query's dependency tree is oversized
    /// and its root window is fully ingested; stop ingesting for this cycle.
    BackPressure,
    /// The feed queue is empty but end-of-stream has not been signalled;
    /// stop ingesting until the session feeds more events.
    SourceDry,
    /// The feed queue is empty and [`Splitter::end_of_stream`] was called.
    SourceExhausted,
}

/// The splitter's state; driven by [`cycle`](Splitter::cycle).
///
/// The splitter is *feed-driven*: it owns no input iterator. A session
/// (normally [`SpectreEngine`](crate::SpectreEngine)) pushes events into
/// the feed queue with [`feed`](Self::feed) and signals the end of the
/// stream explicitly with [`end_of_stream`](Self::end_of_stream); each
/// [`cycle`](Self::cycle) then ingests from the queue under the usual
/// per-cycle budget and speculative back-pressure. A queue that runs dry
/// mid-stream simply pauses ingestion — maintenance, retirement and
/// scheduling keep running — until more events arrive.
///
/// Queries are deployed and retired through
/// [`deploy_query`](Self::deploy_query) / [`retire_query`](Self::retire_query)
/// (see the [module docs](self) for the state split).
pub struct Splitter {
    config: SpectreConfig,
    shared: Arc<SharedState>,
    /// Events fed by the session, not yet ingested.
    feed: VecDeque<Event>,
    /// `true` once the session signalled end-of-stream.
    eos: bool,
    /// Window-spec equivalence classes (shared assigners + store buffers).
    groups: Vec<SpecGroup>,
    /// The query registry, ascending by id (commit order is id order).
    queries: Vec<QueryState>,
    /// Registry index: query id → position in [`queries`](Self::queries).
    /// Keeps the hot paths (op routing, window open/close, stats) O(1)
    /// instead of scanning the registry per touch.
    query_index: HashMap<QueryId, usize>,
    /// Tenant registry, in first-deploy order.
    tenants: Vec<TenantState>,
    /// Tenant id → position in [`tenants`](Self::tenants).
    tenant_index: HashMap<TenantId, usize>,
    next_query: u32,
    /// Next shared store-buffer id (engine-global, never reused).
    next_store_id: u64,
    /// The in-flight hand-off batch (sealed into an `Arc` at flush).
    batch: EventBatch,
    /// Store buffers whose window closed while the current batch was
    /// filling, with the batch-relative ranges they own (distributed at
    /// flush).
    batch_closed: Vec<(u64, std::ops::Range<usize>)>,
    /// Reusable buffer for per-event window closes.
    closed_buf: Vec<WindowBounds>,
    /// Reusable buffer for draining the shared op queue.
    ops_scratch: Vec<(QueryId, TreeOp)>,
    /// Next stream position to assign (= events ingested so far).
    next_pos: u64,
    /// `true` when a reorder stage feeds this splitter: the feed is then
    /// contractually timestamp-monotone (the window assigners and the
    /// warm-up window sizing assume it), and [`feed`](Self::feed) verifies
    /// the contract in debug builds. Admitted late events enter through
    /// [`feed_late`](Self::feed_late), which bypasses the check.
    expect_monotone: bool,
    /// Timestamp of the last regularly fed event (tracked only under
    /// `expect_monotone`).
    last_fed_ts: Option<u64>,
    /// Committed complex events, tagged with their query, in commit order.
    outputs: Vec<(QueryId, ComplexEvent)>,
    ingest_done: bool,
    progress: bool,
    /// Splitter-local mirror of the instance scheduling slots. The splitter
    /// is the only publisher, so this shadow is authoritative: the kept-set
    /// check in [`schedule`](Self::schedule) and the slot sweep in
    /// [`retire_query`](Self::retire_query) read it instead of locking the
    /// shared [`SlotCell`](crate::shared::SlotCell)s, and a slot is only
    /// published (and its watchers woken) when its assignment changes.
    sched_shadow: Vec<Option<Arc<VersionState>>>,
    /// Splitter-local mirror of the instances' run-ahead FIFOs: the
    /// versions queued per slot that are not finished yet. Only the
    /// splitter enqueues and entries leave only once finished or dropped,
    /// so after pruning those this is exactly the set of versions the
    /// FIFOs still hold — which head placement skips.
    ahead_shadow: Vec<Vec<Arc<VersionState>>>,
    /// Reusable schedule order: (owning tenant, registry index) of every
    /// query, ascending — tenant id first, then deployment order.
    sched_order: Vec<(TenantId, usize)>,
}

/// Scheduler credit resolution, in steps per instance slot.
const CREDIT_GRID: f64 = (1u64 << 32) as f64;

/// Dead retirement acks tolerated beyond twice the live version count
/// before [`Splitter`] sweeps a query's ack set (see `retire_root_of`).
const ACK_PRUNE_SLACK: usize = 16;

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
    /// Creates a splitter hosting no queries yet, with an empty feed queue.
    /// Deploy queries with [`deploy_query`](Self::deploy_query).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn multi(config: SpectreConfig, shared: Arc<SharedState>) -> Self {
        config.validate();
        let batch = EventBatch::with_capacity(0, config.batch_size);
        let sched_shadow = (0..shared.instance_count()).map(|_| None).collect();
        let ahead_shadow = (0..shared.instance_count()).map(|_| Vec::new()).collect();
        Splitter {
            config,
            shared,
            feed: VecDeque::new(),
            eos: false,
            groups: Vec::new(),
            queries: Vec::new(),
            query_index: HashMap::new(),
            tenants: Vec::new(),
            tenant_index: HashMap::new(),
            next_query: 0,
            next_store_id: 0,
            batch,
            batch_closed: Vec::new(),
            closed_buf: Vec::new(),
            ops_scratch: Vec::new(),
            next_pos: 0,
            expect_monotone: false,
            last_fed_ts: None,
            outputs: Vec::new(),
            ingest_done: false,
            progress: false,
            sched_shadow,
            ahead_shadow,
            sched_order: Vec::new(),
        }
    }

    /// Creates a splitter hosting exactly `query` (the legacy single-query
    /// constructor — [`multi`](Self::multi) plus one deploy).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the query allows more than
    /// one concurrently active partial match. The speculative runtime keeps
    /// one open consumption group per window version at a time (the paper's
    /// evaluation setting, §4.2); a version's groups resolve strictly in
    /// creation order, which the dependency-tree chain construction relies
    /// on. Queries with `max_active > 1` run on the sequential engines.
    pub fn new(query: Arc<Query>, config: SpectreConfig, shared: Arc<SharedState>) -> Self {
        let mut splitter = Self::multi(config, shared);
        if let Err(e) = splitter.deploy_query(query) {
            panic!("{e}");
        }
        splitter
    }

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
    /// concurrently active partial match (see [`new`](Self::new));
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
            finished_acked: HashSet::new(),
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
            if let Some(r) = g.refs.get_mut(&w.store_id) {
                *r -= 1;
                if *r == 0 {
                    g.refs.remove(&w.store_id);
                    self.shared.store.remove_window(w.store_id);
                }
            }
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

    /// Queues one event for ingestion. The event is not touched until a
    /// [`cycle`](Self::cycle) ingests it under the per-cycle budget and the
    /// speculative back-pressure bound.
    ///
    /// # Panics
    ///
    /// Panics if [`end_of_stream`](Self::end_of_stream) was already called.
    pub fn feed(&mut self, event: Event) {
        assert!(!self.eos, "event fed after end_of_stream");
        if self.expect_monotone {
            debug_assert!(
                self.last_fed_ts.is_none_or(|last| event.ts() >= last),
                "post-reorder stream must be timestamp-monotone: ts {} after ts {}",
                event.ts(),
                self.last_fed_ts.unwrap_or(0),
            );
            self.last_fed_ts = Some(event.ts());
        }
        self.feed.push_back(event);
    }

    /// Queues an *admitted late* event — one the reorder stage's
    /// `LatePolicy::Admit` routed past the watermark. It enters the feed
    /// like any other event (reaching exactly the windows still open when
    /// it is ingested) but is exempt from the timestamp-monotonicity
    /// contract of [`feed`](Self::feed).
    ///
    /// # Panics
    ///
    /// Panics if [`end_of_stream`](Self::end_of_stream) was already called.
    pub fn feed_late(&mut self, event: Event) {
        assert!(!self.eos, "event fed after end_of_stream");
        self.feed.push_back(event);
    }

    /// Declares whether the feed is expected to be timestamp-monotone
    /// (set by the engine when a reorder stage is configured). In debug
    /// builds, [`feed`](Self::feed) then asserts the contract so a policy
    /// bug fails loudly instead of silently corrupting time windows.
    pub fn expect_monotone(&mut self, on: bool) {
        self.expect_monotone = on;
    }

    /// Adds a reorder-stage counter delta to the metrics. Attribution
    /// follows the `windows_retired` model: the stage is shared by the
    /// whole session, every deployed query's view of the stream saw the
    /// reordering, so each query's share grows by the delta and the
    /// aggregate grows by the sum of the shares — the aggregate still
    /// decomposes exactly. With no deployed queries there is no view to
    /// attribute and the delta is discarded.
    pub fn record_reorder(&mut self, stats: &ReorderStats) {
        if stats.is_empty() || self.queries.is_empty() {
            return;
        }
        let n = self.queries.len() as u64;
        let global = &self.shared.metrics;
        global
            .events_reordered
            .fetch_add(stats.reordered * n, Ordering::Relaxed);
        global
            .late_events_dropped
            .fetch_add(stats.late_dropped * n, Ordering::Relaxed);
        global
            .late_events_admitted
            .fetch_add(stats.late_admitted * n, Ordering::Relaxed);
        global
            .watermarks_advanced
            .fetch_add(stats.watermarks * n, Ordering::Relaxed);
        for qs in &self.queries {
            qs.metrics
                .events_reordered
                .fetch_add(stats.reordered, Ordering::Relaxed);
            qs.metrics
                .late_events_dropped
                .fetch_add(stats.late_dropped, Ordering::Relaxed);
            qs.metrics
                .late_events_admitted
                .fetch_add(stats.late_admitted, Ordering::Relaxed);
            qs.metrics
                .watermarks_advanced
                .fetch_add(stats.watermarks, Ordering::Relaxed);
        }
    }

    /// Signals that no further events will be fed. Idempotent. Once the
    /// feed queue drains, the next cycle closes the remaining windows and
    /// the run winds down to completion.
    pub fn end_of_stream(&mut self) {
        self.eos = true;
    }

    /// Number of fed events not yet ingested.
    pub fn feed_len(&self) -> usize {
        self.feed.len()
    }

    /// Number of events ingested from the feed so far (the stream position
    /// of the next event). This is the authoritative input count: under
    /// streaming the total length is unknown up front, so reports take it
    /// from here at end of run.
    pub fn events_ingested(&self) -> u64 {
        self.next_pos
    }

    /// Complex events committed so far and not yet taken, tagged with their
    /// query (commit order; within one query: window order, detection order
    /// within a window).
    pub fn outputs(&self) -> &[(QueryId, ComplexEvent)] {
        &self.outputs
    }

    /// Takes the complex events committed since the last call, tagged with
    /// their query — the incremental output path of the engine session.
    /// Each query's subsequence is in its window order (detection order
    /// within a window).
    pub fn take_outputs(&mut self) -> Vec<(QueryId, ComplexEvent)> {
        std::mem::take(&mut self.outputs)
    }

    /// Consumes the splitter, returning all committed (undrained) complex
    /// events, tagged with their query.
    pub fn into_outputs(self) -> Vec<(QueryId, ComplexEvent)> {
        self.outputs
    }

    /// `true` if the last [`cycle`](Self::cycle) applied an op, ingested an
    /// event or retired a window. Threaded drivers yield when a cycle made
    /// no progress so operator instances are not starved of CPU time.
    pub fn made_progress(&self) -> bool {
        self.progress
    }

    /// Current dependency-tree size in window versions, summed over all
    /// deployed queries.
    pub fn tree_versions(&self) -> usize {
        self.queries.iter().map(|q| q.tree.version_count()).sum()
    }

    /// Ids of the currently deployed queries, in deployment order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.queries.iter().map(|q| q.id).collect()
    }

    /// `true` while `qid` is deployed.
    pub fn has_query(&self, qid: QueryId) -> bool {
        self.query_index.contains_key(&qid)
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

    /// One maintenance + scheduling cycle. Returns `true` once all input is
    /// ingested and every deployed query's windows retired (the shared
    /// `done` flag is set).
    pub fn cycle(&mut self) -> bool {
        self.progress = false;
        self.apply_ops();
        self.apply_stats();
        self.ingest();
        self.retire();
        self.schedule();
        let metrics = &self.shared.metrics;
        let mut total_versions = 0u64;
        for qs in &mut self.queries {
            let (materialized, lazy_dropped) = qs.tree.take_lazy_stats();
            if materialized > 0 {
                metrics
                    .versions_materialized
                    .fetch_add(materialized, Ordering::Relaxed);
                qs.metrics
                    .versions_materialized
                    .fetch_add(materialized, Ordering::Relaxed);
            }
            if lazy_dropped > 0 {
                metrics
                    .lazy_versions_dropped
                    .fetch_add(lazy_dropped, Ordering::Relaxed);
                qs.metrics
                    .lazy_versions_dropped
                    .fetch_add(lazy_dropped, Ordering::Relaxed);
            }
            let size = qs.tree.version_count() as u64;
            qs.metrics.observe_tree_size(size);
            total_versions += size;
        }
        metrics.sched_cycles.fetch_add(1, Ordering::Relaxed);
        metrics.observe_tree_size(total_versions);
        let finished = if self.ingest_done && self.queries.iter().all(|q| q.tree.is_empty()) {
            self.shared.done.store(true, Ordering::Release);
            true
        } else {
            false
        };
        // Wake parked workers: this cycle may have published slots, flushed
        // fresh events into the store, or set the done flag. Free when
        // nobody is parked (one atomic load).
        self.shared.unpark_workers();
        finished
    }

    fn apply_ops(&mut self) {
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
            qs.finished_acked.extend(factory.acked_clones);
        }
        self.ops_scratch = ops;
    }

    fn apply_stats(&mut self) {
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
                metrics.predictor_refreshes.fetch_add(1, Ordering::Relaxed);
                metrics
                    .predictor_refresh_nanos
                    .fetch_add(nanos, Ordering::Relaxed);
                qs.metrics
                    .predictor_refreshes
                    .fetch_add(1, Ordering::Relaxed);
                qs.metrics
                    .predictor_refresh_nanos
                    .fetch_add(nanos, Ordering::Relaxed);
            }
        }
    }

    fn ingest(&mut self) {
        if self.ingest_done {
            return;
        }
        let mut budget = self.config.ingest_per_cycle;
        while budget > 0 {
            let cap = budget.min(self.config.batch_size);
            let outcome = self.fill_batch(cap);
            budget -= self.batch.len();
            self.flush_batch();
            match outcome {
                FillOutcome::Full => {}
                FillOutcome::BackPressure | FillOutcome::SourceDry => return,
                FillOutcome::SourceExhausted => {
                    self.finish_ingest();
                    return;
                }
            }
        }
    }

    /// Speculative back-pressure (paper §3.2.2): stall ingestion while any
    /// query's tree is oversized — but never starve a root window of its
    /// remaining events (it must be able to finish so the tree can shrink).
    /// One slow query therefore throttles the whole shared feed; that is
    /// the deliberate semantics of a shared-stream session (all queries see
    /// the same prefix).
    fn backpressured(&self) -> bool {
        self.queries.iter().any(|q| {
            q.tree.speculative_load() >= self.config.max_tree_versions
                && q.tree.oldest_window().is_none_or(|w| w.end_pos().is_some())
        })
    }

    /// Collects up to `cap` source events into the hand-off batch, applying
    /// window opens/closes of every spec group as they are discovered. The
    /// batch's event slices are distributed to their store buffers by
    /// [`flush_batch`](Self::flush_batch).
    fn fill_batch(&mut self, cap: usize) -> FillOutcome {
        debug_assert_eq!(
            self.batch.first_pos() + self.batch.len() as u64,
            self.next_pos,
            "batch continues the stream"
        );
        while self.batch.len() < cap {
            // The load counts windows pending on attach markers alongside
            // live versions: lazy attach keeps the version count low while
            // windows accumulate, and each holds its buffered events, so
            // unbounded pending windows are unbounded memory.
            if self.backpressured() {
                return FillOutcome::BackPressure;
            }
            let Some(event) = self.feed.pop_front() else {
                return if self.eos {
                    FillOutcome::SourceExhausted
                } else {
                    FillOutcome::SourceDry
                };
            };
            self.progress = true;
            let pos = self.next_pos;
            self.next_pos += 1;
            for gi in 0..self.groups.len() {
                let mut closed = std::mem::take(&mut self.closed_buf);
                let opened = self.groups[gi].assigner.ingest(&event, &mut closed);
                // Closes exclude the current event, which is not yet in
                // the batch, so the closing window's slice is exactly the
                // batch tail so far.
                for bounds in closed.drain(..) {
                    self.close_group_window(gi, bounds.id, pos);
                }
                self.closed_buf = closed;
                // The current event proves relevance for the group's
                // deferred windows — all still open (a window closing
                // while deferred was just skipped above), so all of them
                // contain it. Attach before any window opening *on* this
                // event so each tree's window sequence stays ascending.
                self.flush_deferred(gi, &event);
                if let Some(opened) = opened {
                    // The window contains its start event — the one about
                    // to be pushed, at batch-relative index `batch.len()`.
                    self.open_group_window(gi, opened, &event);
                }
            }
            self.batch.push(event);
        }
        FillOutcome::Full
    }

    /// Attaches every deferred window of group `gi`'s members for which
    /// `event` is relevant. Deferral is all-or-nothing per query: the
    /// event is in every open window, so one relevant event attaches the
    /// query's whole deferred suffix (oldest first, keeping the tree's
    /// window ids ascending). The per-query fast path is one
    /// `VecDeque::is_empty` check.
    fn flush_deferred(&mut self, gi: usize, event: &Event) {
        let shared = Arc::clone(&self.shared);
        for mi in 0..self.groups[gi].members.len() {
            let qid = self.groups[gi].members[mi];
            let qi = *self
                .query_index
                .get(&qid)
                .expect("group member is registered");
            let qs = &mut self.queries[qi];
            if qs.deferred.is_empty() {
                continue;
            }
            if qs.filter.as_ref().is_some_and(|f| !f.relevant(event)) {
                continue;
            }
            let mut factory = SplitterFactory::for_query(&shared, qs);
            while let Some(info) = qs.deferred.pop_front() {
                qs.tree.new_window(&info, &mut factory);
            }
            qs.finished_acked.extend(factory.acked_clones);
        }
    }

    /// Opens group `gi`'s next window: allocates the shared store buffer
    /// (once) and subscribes every current member with its own
    /// query-local [`WindowInfo`] cell. A group without members opens
    /// nothing — no buffer, no subscriptions. `event` is the window's
    /// start event: a member whose filter rejects it defers the attach
    /// (the buffer and close bookkeeping are shared and unaffected).
    fn open_group_window(&mut self, gi: usize, bounds: WindowBounds, event: &Event) {
        let g = &mut self.groups[gi];
        if g.members.is_empty() {
            return;
        }
        let store_id = self.next_store_id;
        self.next_store_id += 1;
        let start_pos = g.base_pos + bounds.start_pos;
        let members = g.members.clone();
        g.refs.insert(store_id, members.len());
        g.open.push(GroupOpenWindow {
            group_id: bounds.id,
            store_id,
            pending: self.batch.len(),
            infos: Vec::with_capacity(members.len()),
        });
        let ow = g.open.len() - 1;
        self.shared.store.open_window(store_id, start_pos);
        self.shared
            .metrics
            .store_windows_opened
            .fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&self.shared);
        for qid in members {
            let qi = *self
                .query_index
                .get(&qid)
                .expect("group member is registered");
            let qs = &mut self.queries[qi];
            let info = Arc::new(WindowInfo::with_store(
                bounds.id - qs.offset,
                store_id,
                start_pos,
                bounds.start_seq,
                bounds.start_ts,
            ));
            if qs.filter.as_ref().is_some_and(|f| !f.relevant(event)) {
                // The start event is irrelevant to this member: defer the
                // attach until a relevant event arrives (or skip the
                // window outright if none does before it closes).
                qs.deferred.push_back(Arc::clone(&info));
            } else {
                let mut factory = SplitterFactory::for_query(&shared, qs);
                qs.tree.new_window(&info, &mut factory);
                qs.finished_acked.extend(factory.acked_clones);
            }
            self.groups[gi].open[ow].infos.push((qid, info));
        }
    }

    /// Closes group `gi`'s window `group_id` at exclusive end `end_pos`:
    /// records the buffer's final batch slice (distributed at the next
    /// flush), publishes the end position to every subscriber's cell and
    /// feeds each subscriber's running window-size average (paper Fig. 5:
    /// `Splitter.avgWindowSize`).
    fn close_group_window(&mut self, gi: usize, group_id: u64, end_pos: u64) {
        let batch_len = self.batch.len();
        let g = &mut self.groups[gi];
        let Some(i) = g.open.iter().position(|ow| ow.group_id == group_id) else {
            return;
        };
        let ow = g.open.remove(i);
        if ow.pending < batch_len {
            self.batch_closed.push((ow.store_id, ow.pending..batch_len));
        }
        let mut skips = 0u64;
        for (qid, info) in &ow.infos {
            info.set_end_pos(end_pos);
            let len = (end_pos - info.start_pos) as f64;
            let Some(&qi) = self.query_index.get(qid) else {
                continue;
            };
            let qs = &mut self.queries[qi];
            qs.closed_windows += 1;
            let n = qs.closed_windows as f64;
            qs.avg_window_size += (len - qs.avg_window_size) / n;
            // Still deferred at close: no event of the window passed the
            // filter, so the query can never match in it — skip it
            // entirely (no versions, no retirement, buffer ref released).
            if let Some(di) = qs.deferred.iter().position(|w| Arc::ptr_eq(w, info)) {
                qs.deferred.remove(di);
                qs.metrics.windows_skipped.fetch_add(1, Ordering::Relaxed);
                skips += 1;
            }
        }
        if skips > 0 {
            self.shared
                .metrics
                .windows_skipped
                .fetch_add(skips, Ordering::Relaxed);
            let g = &mut self.groups[gi];
            for _ in 0..skips {
                if let Some(r) = g.refs.get_mut(&ow.store_id) {
                    *r -= 1;
                    if *r == 0 {
                        g.refs.remove(&ow.store_id);
                        // A batch slice may still be queued for this
                        // buffer; `WindowStore::extend` drops slices for
                        // removed windows, so the flush stays correct.
                        self.shared.store.remove_window(ow.store_id);
                    }
                }
            }
        }
    }

    /// Seals the batch into one shared `Arc`, hands every touched store
    /// buffer its slice (one store write and one `Arc` clone per buffer —
    /// not per subscribing query), and publishes the ingestion watermark
    /// once.
    fn flush_batch(&mut self) {
        let len = self.batch.len();
        if len == 0 {
            debug_assert!(self.batch_closed.is_empty());
            return;
        }
        let next = EventBatch::with_capacity(self.next_pos, self.config.batch_size);
        let sealed = Arc::new(std::mem::replace(&mut self.batch, next));
        for (store_id, range) in self.batch_closed.drain(..) {
            self.shared.store.extend(store_id, &sealed, range);
        }
        for g in &mut self.groups {
            for ow in &mut g.open {
                self.shared
                    .store
                    .extend(ow.store_id, &sealed, ow.pending..len);
                ow.pending = 0; // relative to the next batch
            }
        }
        self.shared.ingested.store(self.next_pos, Ordering::Release);
    }

    fn finish_ingest(&mut self) {
        let total = self.next_pos;
        for gi in 0..self.groups.len() {
            let closed = self.groups[gi].assigner.finish();
            for bounds in closed {
                self.close_group_window(gi, bounds.id, total);
            }
        }
        self.ingest_done = true;
        self.shared.ingest_done.store(true, Ordering::Release);
    }

    /// Retires finished, confirmed root windows of every query, in query-id
    /// order (the deterministic commit order of one cycle).
    fn retire(&mut self) {
        for qi in 0..self.queries.len() {
            while self.retire_root_of(qi) {}
        }
    }

    /// Tries to retire query `qi`'s root window. Returns `true` when a
    /// window retired (there may be more behind it), `false` when the root
    /// is not ready — or was rolled back by the final validation.
    fn retire_root_of(&mut self, qi: usize) -> bool {
        let shared = Arc::clone(&self.shared);
        let qs = &mut self.queries[qi];
        let Some(root) = qs.tree.root_version() else {
            return false;
        };
        if !root.is_finished()
            || !qs.finished_acked.contains(&root.id())
            || qs.tree.root_blocked_by_cg()
        {
            return false;
        }
        let root = Arc::clone(root);
        // Final validation: the surviving version must never have processed
        // an event a suppressed (now final) group consumed.
        if !root.is_consistent() {
            shared.metrics.rollbacks.fetch_add(1, Ordering::Relaxed);
            qs.metrics.rollbacks.fetch_add(1, Ordering::Relaxed);
            qs.finished_acked.remove(&root.id());
            let revoked = root.rollback_state();
            let mut factory = SplitterFactory::for_query(&shared, qs);
            let dropped = qs.tree.rollback_rebuild(root.id(), &mut factory) as u64;
            qs.revoke(&shared.metrics, &revoked, &mut factory);
            qs.finished_acked.extend(factory.acked_clones);
            if dropped > 0 {
                shared
                    .metrics
                    .versions_dropped
                    .fetch_add(dropped, Ordering::Relaxed);
                qs.metrics
                    .versions_dropped
                    .fetch_add(dropped, Ordering::Relaxed);
            }
            return false;
        }
        // Emit buffered complex events in detection order (paper §3.3).
        let emitted = {
            let mut inner = root.lock();
            std::mem::take(&mut inner.outputs)
        };
        self.progress = true;
        // Retirement materializes a pending-attach child, so it takes the
        // factory too.
        let mut factory = SplitterFactory::for_query(&shared, qs);
        let retired = qs.tree.retire_root(&mut factory);
        qs.finished_acked.extend(factory.acked_clones);
        qs.finished_acked.remove(&retired.id());
        // Acks of versions dropped from the tree are dead. They are harmless
        // — version ids come from a monotone counter and are never reused,
        // so a stale ack can never match — and are pruned only once they
        // outnumber the live versions twice over, which keeps the sweep
        // amortized O(1) per retirement.
        let tree = &qs.tree;
        if qs.finished_acked.len() > 2 * tree.version_count() + ACK_PRUNE_SLACK {
            qs.finished_acked.retain(|id| tree.version(*id).is_some());
        }
        shared
            .metrics
            .windows_retired
            .fetch_add(1, Ordering::Relaxed);
        qs.metrics.windows_retired.fetch_add(1, Ordering::Relaxed);
        let emitted_n = emitted.len() as u64;
        if emitted_n > 0 {
            shared
                .metrics
                .outputs_emitted
                .fetch_add(emitted_n, Ordering::Relaxed);
            qs.metrics
                .outputs_emitted
                .fetch_add(emitted_n, Ordering::Relaxed);
        }
        let qid = qs.id;
        let group = qs.group;
        let store_id = retired.window().store_id;
        self.outputs.extend(emitted.into_iter().map(|ce| (qid, ce)));
        // Release the window's shared buffer reference; the buffer dies
        // with its last subscriber (payloads shared with younger windows
        // stay alive through their own buffers).
        let g = &mut self.groups[group];
        if let Some(r) = g.refs.get_mut(&store_id) {
            *r -= 1;
            if *r == 0 {
                g.refs.remove(&store_id);
                self.shared.store.remove_window(store_id);
            }
        }
        true
    }

    /// Running average window length in events of the first deployed query
    /// (`0.0` with no queries) — the prediction input's window-size term
    /// (paper Fig. 5: `Splitter.avgWindowSize`). Seeded from the query's
    /// window spec until its first window closes.
    pub fn avg_window_size(&self) -> f64 {
        self.queries.first().map_or(0.0, |q| q.avg_window_size)
    }

    /// Prediction input `n` for a consumption group at `pos_in_window`:
    /// the expected further events in its window under the running average
    /// window size, clamped to ≥ 1 — a stale or short estimate (e.g. a
    /// group already past the average) must never feed the predictor a
    /// non-positive horizon.
    fn events_left(avg_window_size: f64, pos_in_window: u64) -> i64 {
        (avg_window_size as i64 - pos_in_window as i64).max(1)
    }

    /// Query `qi`'s tree nominates its top versions with survival
    /// probabilities (materializing lazy branches on first schedule) into
    /// the query's ranked [`nominations`](QueryState::nominations),
    /// decrementing `budget` by every version the nomination materialized
    /// — the per-tenant speculation budget's enforcement point (an
    /// exhausted budget leaves lazy branches unmaterialized instead of
    /// creating version state).
    ///
    /// The width is k under a consumption policy and k·(1 +
    /// [`RUN_AHEAD_DEPTH`]) without one — enough for every head plus a full
    /// run-ahead FIFO per instance, since queued versions are nominated
    /// again until they finish. Versions already queued in a run-ahead FIFO
    /// are left out: each version is in exactly one place.
    fn nominate(&mut self, qi: usize, k: usize, budget: &mut usize) {
        let qs = &mut self.queries[qi];
        let mut factory = SplitterFactory::for_query(&self.shared, qs);
        let width = if qs.query.consumption().is_none() {
            k * (1 + RUN_AHEAD_DEPTH)
        } else {
            k
        };
        let avg = qs.avg_window_size;
        let predictor = &*qs.predictor;
        let prob = move |cell: &CgCell| -> f64 {
            let events_left = Self::events_left(avg, cell.pos_in_window());
            predictor.predict(cell.delta(), events_left)
        };
        qs.nominations = qs
            .tree
            .top_k_scored_budgeted(width, &prob, &mut factory, budget);
        qs.finished_acked.extend(factory.acked_clones);
        if self.ahead_shadow.iter().any(|q| !q.is_empty()) {
            let queued = self.ahead_shadow.iter().flatten();
            qs.nominations
                .retain(|(_, v)| !queued.clone().any(|q| Arc::ptr_eq(q, v)));
        }
        qs.nominations.sort_by(|a, b| b.0.total_cmp(&a.0));
        qs.granted = 0;
    }

    /// Remaining per-cycle speculation budget of tenant `ti`: its
    /// [`TenantQuota::max_versions`] cap minus the versions its queries'
    /// trees already hold (`usize::MAX` when uncapped).
    fn tenant_budget(&self, ti: usize) -> usize {
        let t = &self.tenants[ti];
        let Some(cap) = t.quota.max_versions else {
            return usize::MAX;
        };
        let used: usize = t
            .queries
            .iter()
            .filter_map(|qid| self.query_index.get(qid))
            .map(|&qi| self.queries[qi].tree.version_count())
            .sum();
        cap.saturating_sub(used)
    }

    /// The weight of the tenant owning a run of [`schedule`](Self::schedule)
    /// order, and how many of the run's queries have nominations.
    fn busy_weight(&self, run: &[(TenantId, usize)]) -> (f64, usize) {
        let weight = self.tenants[self.tenant_index[&run[0].0]].quota.weight;
        let busy = run
            .iter()
            .filter(|&&(_, qi)| !self.queries[qi].nominations.is_empty())
            .count();
        (f64::from(weight), busy)
    }

    /// Selects and schedules the top-k window versions across all deployed
    /// queries by one deficit round robin (DRR) over per-query lists.
    ///
    /// Every query nominates its own ranked list
    /// ([`nominate`](Self::nominate)) in schedule order — ascending tenant
    /// id, then deployment order — and a tenant's members draw on the
    /// tenant's one speculation budget. A query with nominations accrues
    /// `k · w_t / Σ w / n_t` credit per cycle: its tenant's weighted fair
    /// share (Σ over the tenants with nominations), split evenly among the
    /// tenant's `n_t` members with nominations, clamped to k. A query
    /// without nominations resets to zero, so the share is
    /// work-conserving and idle stretches bank no debt. Slots then go one
    /// at a time to the highest-credit query with nominations left —
    /// earliest in schedule order on ties — each grant costing one credit,
    /// so among n busy peers none waits more than ⌈n/k⌉ cycles for a
    /// slot. With one query this is the plain probability top-k (paper
    /// Fig. 7); with one query per tenant, the weighted tenant split. The
    /// granted versions are ranked on probability again so slot
    /// assignment stays probability-ordered.
    ///
    /// Versions already queued in a run-ahead FIFO are not head
    /// candidates. After the heads are placed, each list's ungranted tail
    /// fills the FIFOs (see [`fill_run_ahead`](Self::fill_run_ahead)); only
    /// consumption-free queries nominate beyond k, so only they ever get
    /// FIFO entries.
    fn schedule(&mut self) {
        let k = self.config.instances;
        // Entries leave a FIFO once finished (or dropped).
        for queued in &mut self.ahead_shadow {
            queued.retain(|v| !v.is_finished() && !v.is_dropped());
        }
        let mut order = std::mem::take(&mut self.sched_order);
        order.clear();
        order.extend(
            self.queries
                .iter()
                .enumerate()
                .map(|(qi, q)| (q.tenant, qi)),
        );
        order.sort_unstable();
        // One run of `order` per tenant.
        let runs = || order.chunk_by(|a, b| a.0 == b.0);
        for run in runs() {
            let mut budget = self.tenant_budget(self.tenant_index[&run[0].0]);
            for &(_, qi) in run {
                self.nominate(qi, k, &mut budget);
            }
        }
        let total_weight: f64 = runs()
            .map(|run| self.busy_weight(run))
            .filter(|&(_, busy)| busy > 0)
            .map(|(weight, _)| weight)
            .sum();
        for run in runs() {
            let (weight, busy) = self.busy_weight(run);
            for &(_, qi) in run {
                let qs = &mut self.queries[qi];
                qs.credit = if qs.nominations.is_empty() {
                    0.0
                } else {
                    // On a 2^-32 grid, so credit sums are exact and equal
                    // peers tie exactly (and break ties by order).
                    let share = k as f64 * weight / total_weight / busy as f64;
                    let share = (share * CREDIT_GRID).round() / CREDIT_GRID;
                    (qs.credit + share).min(k as f64)
                };
            }
        }
        // Grant loop: one slot at a time to the highest-credit query with
        // nominations left (strict comparison keeps the earliest on ties).
        let mut cands: RankedNominations = Vec::with_capacity(k);
        while cands.len() < k {
            let mut best: Option<(usize, f64)> = None;
            for &(_, qi) in &order {
                let qs = &self.queries[qi];
                if qs.granted < qs.nominations.len() && best.is_none_or(|(_, c)| qs.credit > c) {
                    best = Some((qi, qs.credit));
                }
            }
            let Some((qi, _)) = best else {
                break;
            };
            let qs = &mut self.queries[qi];
            cands.push(qs.nominations[qs.granted].clone());
            qs.granted += 1;
            qs.credit -= 1.0;
        }
        cands.sort_by(|a, b| b.0.total_cmp(&a.0));

        // Two-pass assignment (paper Fig. 7): keep already-placed versions,
        // hand the rest to free instances. Both passes run against the
        // splitter-local shadow — no slot locks — and only slots whose
        // assignment actually changes are published.
        let mut to_place: Vec<Arc<VersionState>> = Vec::new();
        let mut kept: Vec<bool> = vec![false; self.sched_shadow.len()];
        'version: for (_, v) in &cands {
            for (i, cur) in self.sched_shadow.iter().enumerate() {
                if kept[i] {
                    continue;
                }
                if cur.as_ref().is_some_and(|s| Arc::ptr_eq(s, v)) {
                    kept[i] = true;
                    continue 'version;
                }
            }
            to_place.push(Arc::clone(v));
        }
        let mut to_place = to_place.into_iter();
        // Heads replaced this cycle: their instance may still be inside a
        // step on them, so they wait a cycle before they may be queued.
        let mut unseated: Vec<Arc<VersionState>> = Vec::new();
        for (i, kept) in kept.iter().enumerate() {
            if *kept {
                continue;
            }
            let next = to_place.next();
            let unchanged = match (&self.sched_shadow[i], &next) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            };
            if !unchanged {
                self.shared.slots[i].publish(next.clone());
                unseated.extend(std::mem::replace(&mut self.sched_shadow[i], next));
            }
        }
        self.fill_run_ahead(&order, &unseated);
        self.sched_order = order;
    }

    /// Queues the **final** versions among the nominations that did not
    /// become heads (each query's ungranted tail, in schedule order) into
    /// the instances' run-ahead FIFOs, each to the shortest FIFO with room
    /// (lowest slot on ties).
    ///
    /// Final means the query has no consumption policy — no group can ever
    /// suppress, roll back or replace the version — and its window is
    /// closed and fully ingested, so a queued version can never stall. The
    /// second half is a liveness condition: an unclosed window queued
    /// behind a stalled head could be the root that back-pressured
    /// ingestion waits for. Consumption queries are excluded because
    /// "certain now" is not final for them: an older window can still
    /// open a group that suppresses events of this one.
    fn fill_run_ahead(&mut self, order: &[(TenantId, usize)], unseated: &[Arc<VersionState>]) {
        let mut spare = order
            .iter()
            .flat_map(|&(_, qi)| {
                let qs = &self.queries[qi];
                &qs.nominations[qs.granted..]
            })
            .peekable();
        if spare.peek().is_none() {
            return;
        }
        let ingested = self.shared.ingested.load(Ordering::Acquire);
        let before: Vec<usize> = self.ahead_shadow.iter().map(Vec::len).collect();
        for (_, v) in spare {
            let is_final = v.query().consumption().is_none()
                && v.window().end_pos().is_some_and(|end| end <= ingested);
            if !is_final || unseated.iter().any(|u| Arc::ptr_eq(u, v)) {
                continue;
            }
            let Some(i) = (0..self.ahead_shadow.len())
                .filter(|&i| self.ahead_shadow[i].len() < RUN_AHEAD_DEPTH)
                .min_by_key(|&i| self.ahead_shadow[i].len())
            else {
                break;
            };
            self.ahead_shadow[i].push(Arc::clone(v));
        }
        for (i, &from) in before.iter().enumerate() {
            if self.ahead_shadow[i].len() > from {
                self.shared.slots[i].enqueue_ahead(self.ahead_shadow[i][from..].iter().cloned());
            }
        }
    }
}

/// The splitter's [`VersionFactory`] for one query: allocates ids from the
/// shared counters, keeps the `versions_created` metrics (aggregate and
/// per-query), stamps new versions with the owning query, and records
/// clones of already-finished versions so they can retire without a fresh
/// `WvFinished` op.
struct SplitterFactory {
    shared: Arc<SharedState>,
    query: Arc<Query>,
    query_id: QueryId,
    qmetrics: Arc<Metrics>,
    acked_clones: Vec<WvId>,
}

impl SplitterFactory {
    fn for_query(shared: &Arc<SharedState>, qs: &QueryState) -> Self {
        SplitterFactory {
            shared: Arc::clone(shared),
            query: Arc::clone(&qs.query),
            query_id: qs.id,
            qmetrics: Arc::clone(&qs.metrics),
            acked_clones: Vec::new(),
        }
    }
}

impl VersionFactory for SplitterFactory {
    fn fresh(
        &mut self,
        window: &Arc<WindowInfo>,
        suppressed: Vec<Arc<CgCell>>,
    ) -> Arc<VersionState> {
        self.shared
            .metrics
            .versions_created
            .fetch_add(1, Ordering::Relaxed);
        self.qmetrics
            .versions_created
            .fetch_add(1, Ordering::Relaxed);
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
        self.shared
            .metrics
            .versions_created
            .fetch_add(1, Ordering::Relaxed);
        self.qmetrics
            .versions_created
            .fetch_add(1, Ordering::Relaxed);
        if version.is_finished() {
            self.acked_clones.push(version.id());
        }
        Some((version, twins))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceCore, StepOutcome};
    use spectre_events::{AttrKey, EventType, Schema};
    use spectre_query::{ConsumptionPolicy, Expr, Pattern, WindowSpec};

    fn ev(seq: u64, x: f64) -> Event {
        Event::builder(EventType::new(0))
            .seq(seq)
            .ts(seq)
            .attr(AttrKey::new(0), x)
            .build()
    }

    fn ab_query() -> Arc<Query> {
        let x = AttrKey::new(0);
        Arc::new(
            Query::builder("t")
                .pattern(
                    Pattern::builder()
                        .one("A", Expr::current(x).eq_(Expr::value(1.0)))
                        .one("B", Expr::current(x).eq_(Expr::value(2.0)))
                        .build()
                        .unwrap(),
                )
                .window(WindowSpec::count_sliding(4, 2).unwrap())
                .consumption(ConsumptionPolicy::All)
                .build()
                .unwrap(),
        )
    }

    fn untag(tagged: Vec<(QueryId, ComplexEvent)>) -> Vec<ComplexEvent> {
        tagged.into_iter().map(|(_, ce)| ce).collect()
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "timestamp-monotone")]
    fn non_monotone_feed_is_caught_behind_a_reorder_stage() {
        let config = SpectreConfig::with_instances(1);
        let shared = SharedState::for_config(&config);
        let mut splitter = Splitter::new(ab_query(), config, shared);
        splitter.expect_monotone(true);
        splitter.feed(ev(0, 1.0)); // ts 0
        splitter.feed(ev(5, 2.0)); // ts 5
        splitter.feed(ev(3, 1.0)); // ts 3 regresses — contract violation
    }

    #[test]
    fn feed_late_bypasses_the_monotone_contract() {
        let config = SpectreConfig::with_instances(1);
        let shared = SharedState::for_config(&config);
        let mut splitter = Splitter::new(ab_query(), config, shared);
        splitter.expect_monotone(true);
        splitter.feed(ev(5, 1.0));
        splitter.feed_late(ev(3, 2.0)); // admitted late: exempt
        splitter.feed(ev(5, 1.0)); // equal ts is fine
    }

    #[test]
    fn reorder_stats_decompose_over_deployed_queries() {
        let config = SpectreConfig::with_instances(1);
        let shared = SharedState::for_config(&config);
        let mut splitter = Splitter::multi(config, Arc::clone(&shared));
        let stats = crate::reorder::ReorderStats {
            reordered: 3,
            late_dropped: 2,
            late_admitted: 1,
            watermarks: 7,
        };
        // No queries deployed: nothing to attribute the delta to.
        splitter.record_reorder(&stats);
        assert_eq!(shared.metrics.snapshot().events_reordered, 0);
        splitter.deploy_query(ab_query()).unwrap();
        splitter.deploy_query(ab_query()).unwrap();
        splitter.record_reorder(&stats);
        let global = shared.metrics.snapshot();
        assert_eq!(global.events_reordered, 6);
        assert_eq!(global.late_events_dropped, 4);
        assert_eq!(global.late_events_admitted, 2);
        assert_eq!(global.watermarks_advanced, 14);
        for (_, per) in splitter.per_query_metrics() {
            assert_eq!(per.events_reordered, 3);
            assert_eq!(per.late_events_dropped, 2);
            assert_eq!(per.late_events_admitted, 1);
            assert_eq!(per.watermarks_advanced, 7);
        }
    }

    /// Drives splitter + instances single-threadedly until done.
    fn drive_config(
        query: Arc<Query>,
        events: Vec<Event>,
        config: SpectreConfig,
    ) -> Vec<ComplexEvent> {
        let shared = SharedState::for_config(&config);
        let k = config.instances;
        let check_freq = config.consistency_check_freq;
        let batch = config.batch_size;
        let mut splitter = Splitter::new(query, config, Arc::clone(&shared));
        for event in events {
            splitter.feed(event);
        }
        splitter.end_of_stream();
        let mut instances: Vec<_> = (0..k)
            .map(|i| InstanceCore::new(i, check_freq).with_batch(batch))
            .collect();
        for round in 0..1_000_000u64 {
            if splitter.cycle() {
                return untag(splitter.into_outputs());
            }
            for inst in &mut instances {
                let _ = inst.step(&shared);
            }
            let _ = round;
        }
        panic!("did not converge");
    }

    fn drive(query: Arc<Query>, events: Vec<Event>, k: usize) -> Vec<ComplexEvent> {
        drive_config(query, events, SpectreConfig::with_instances(k))
    }

    #[test]
    fn small_stream_matches_sequential_reference() {
        let _ = Schema::new();
        let query = ab_query();
        let events: Vec<Event> = vec![
            ev(0, 1.0),
            ev(1, 2.0),
            ev(2, 1.0),
            ev(3, 9.0),
            ev(4, 2.0),
            ev(5, 1.0),
            ev(6, 2.0),
            ev(7, 9.0),
        ];
        let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
        for k in [1usize, 2, 4] {
            let got = drive(Arc::clone(&query), events.clone(), k);
            assert_eq!(got, expected, "k = {k}");
        }
    }

    #[test]
    fn empty_stream_terminates() {
        let query = ab_query();
        let got = drive(query, vec![], 2);
        assert!(got.is_empty());
    }

    #[test]
    fn stream_without_matches_terminates() {
        let query = ab_query();
        let events: Vec<Event> = (0..50).map(|i| ev(i, 9.0)).collect();
        let got = drive(query, events, 3);
        assert!(got.is_empty());
    }

    #[test]
    fn outputs_identical_across_batch_sizes_and_shard_counts() {
        // The batched hand-off and store sharding are pure mechanics: for
        // any batch size (including the degenerate 1 = the original
        // event-at-a-time path) and any shard count, the emitted complex
        // events are identical.
        let query = ab_query();
        let events: Vec<Event> = (0..200)
            .map(|i| ev(i, [1.0, 9.0, 2.0, 1.0, 2.0, 9.0][i as usize % 6]))
            .collect();
        let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
        assert!(!expected.is_empty());
        for batch in [1usize, 7, 64, 1024] {
            for shards in [1usize, 8] {
                let config = SpectreConfig::with_batching(3, batch, shards);
                let got = drive_config(Arc::clone(&query), events.clone(), config);
                assert_eq!(got, expected, "batch = {batch}, shards = {shards}");
            }
        }
    }

    #[test]
    fn single_instance_behaves_like_sequential() {
        let query = ab_query();
        let events: Vec<Event> = (0..100)
            .map(|i| ev(i, [1.0, 9.0, 2.0, 9.0][i as usize % 4]))
            .collect();
        let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
        let got = drive(query, events, 1);
        assert_eq!(got, expected);
    }

    /// Checks the run-ahead invariants after a cycle and returns how many
    /// versions are queued: every queued version is final (consumption-free
    /// query, closed and fully ingested window), no FIFO is over capacity,
    /// and every version is in exactly one place.
    fn check_run_ahead(splitter: &Splitter) -> usize {
        let ingested = splitter.shared.ingested.load(Ordering::Acquire);
        let mut seen: Vec<&Arc<VersionState>> = Vec::new();
        for (i, queued) in splitter.ahead_shadow.iter().enumerate() {
            assert!(queued.len() <= RUN_AHEAD_DEPTH);
            assert!(splitter.shared.slots[i].ahead_len() >= queued.len());
            for v in queued {
                assert!(v.query().consumption().is_none());
                assert!(v.window().end_pos().is_some_and(|end| end <= ingested));
                let head = splitter.sched_shadow.iter().flatten();
                assert!(!head.chain(seen.iter().copied()).any(|h| Arc::ptr_eq(h, v)));
                seen.push(v);
            }
        }
        seen.len()
    }

    #[test]
    fn run_ahead_queues_only_final_versions_each_in_one_place() {
        let events: Vec<Event> = (0..240)
            .map(|i| ev(i, [1.0, 9.0, 2.0, 1.0, 2.0, 9.0][i as usize % 6]))
            .collect();
        let consuming = ab_query();
        let free = Arc::new(
            Query::builder("t-nc")
                .pattern_arc(Arc::clone(consuming.pattern()))
                .window(consuming.window().clone())
                .consumption(ConsumptionPolicy::None)
                .build()
                .unwrap(),
        );
        for query in [free, consuming] {
            let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
            let config = SpectreConfig {
                ingest_per_cycle: 16,
                ..SpectreConfig::with_instances(2)
            };
            let shared = SharedState::for_config(&config);
            let mut splitter = Splitter::new(Arc::clone(&query), config, Arc::clone(&shared));
            for event in events.iter().cloned() {
                splitter.feed(event);
            }
            splitter.end_of_stream();
            let mut instances: Vec<_> = (0..2).map(|i| InstanceCore::new(i, 4)).collect();
            let mut peak_queued = 0;
            while !splitter.cycle() {
                peak_queued = peak_queued.max(check_run_ahead(&splitter));
                for inst in &mut instances {
                    let _ = inst.step(&shared);
                }
            }
            assert_eq!(untag(splitter.into_outputs()), expected);
            let m = shared.metrics.snapshot();
            if query.consumption().is_none() {
                assert_eq!(
                    m.versions_created, m.windows_retired,
                    "one version per window"
                );
                assert!(peak_queued > 0 && m.versions_run_ahead > 0, "{m:?}");
            } else {
                assert_eq!((peak_queued, m.versions_run_ahead), (0, 0));
            }
        }
    }

    /// Runs `cycles` scheduling cycles of a splitter hosting, per
    /// `(tenant weight, query count)` entry, a tenant with that many
    /// `ab_query` deployments, and returns each cycle's slot holders. No
    /// instance ever steps, so no version finishes: every query keeps
    /// nominations, and who holds the slots is pure scheduler policy.
    fn slot_holders(
        k: usize,
        tenants: &[(u32, usize)],
        cycles: usize,
    ) -> (Splitter, Vec<Vec<QueryId>>) {
        let config = SpectreConfig::with_instances(k);
        let shared = SharedState::for_config(&config);
        let mut splitter = Splitter::multi(config, shared);
        for (t, &(weight, members)) in (0u32..).zip(tenants) {
            let quota = TenantQuota::default().with_weight(weight);
            splitter.set_tenant_quota(TenantId(t), quota).unwrap();
            for _ in 0..members {
                splitter.deploy_query_for(TenantId(t), ab_query()).unwrap();
            }
        }
        for i in 0..40 {
            splitter.feed(ev(i, 1.0));
        }
        let holders = (0..cycles)
            .map(|_| {
                splitter.cycle();
                let slots = splitter.sched_shadow.iter().flatten();
                slots.map(|v| v.query_id()).collect()
            })
            .collect();
        (splitter, holders)
    }

    #[test]
    fn every_query_of_one_tenant_gets_a_slot_within_n_over_k_cycles() {
        // In every run of ⌈n/k⌉ consecutive cycles, not only the first.
        for n in 1..=6usize {
            for k in 1..=4usize {
                let (splitter, holders) = slot_holders(k, &[(1, n)], 60);
                let wait = n.div_ceil(k);
                for (c, window) in holders.windows(wait).enumerate() {
                    assert!(window.iter().all(|h| h.len() == k), "every slot is granted");
                    for qid in splitter.query_ids() {
                        assert!(
                            window.iter().any(|h| h.contains(&qid)),
                            "n={n} k={k}: {qid} had no slot in cycles {c}..{}",
                            c + wait,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tenant_weights_split_slots_across_a_tenants_queries() {
        // Tenant 0 (weight 3) hosts two queries, tenant 1 (weight 1) one.
        for k in [2usize, 4] {
            let (splitter, holders) = slot_holders(k, &[(3, 2), (1, 1)], 40);
            let mut per_query: HashMap<QueryId, usize> = HashMap::new();
            for qid in holders.iter().flatten() {
                *per_query.entry(*qid).or_default() += 1;
            }
            let per_tenant = |t: u32| -> usize {
                per_query
                    .iter()
                    .filter(|(q, _)| splitter.query_tenant(**q) == Some(TenantId(t)))
                    .map(|(_, n)| n)
                    .sum()
            };
            assert_eq!(per_tenant(0) + per_tenant(1), 40 * k);
            assert_eq!(per_tenant(0), 3 * per_tenant(1), "k={k}: {per_query:?}");
            let ids = splitter.query_ids();
            assert_eq!(per_query[&ids[0]], per_query[&ids[1]], "k={k}");
        }
    }

    #[test]
    fn two_same_spec_queries_share_store_buffers() {
        // Two queries with equal window specs: every window is stored once
        // (one store buffer per group window), each query still gets its
        // own outputs with its own local window ids.
        let query_a = ab_query();
        let query_b = ab_query();
        let events: Vec<Event> = (0..60)
            .map(|i| ev(i, [1.0, 9.0, 2.0, 1.0, 2.0, 9.0][i as usize % 6]))
            .collect();
        let expected = spectre_baselines::run_sequential(&query_a, &events).complex_events;
        assert!(!expected.is_empty());

        let config = SpectreConfig::with_instances(2);
        let shared = SharedState::for_config(&config);
        let mut splitter = Splitter::multi(config.clone(), Arc::clone(&shared));
        let qa = splitter.deploy_query(Arc::clone(&query_a)).unwrap();
        let qb = splitter.deploy_query(Arc::clone(&query_b)).unwrap();
        assert_ne!(qa, qb);
        for event in &events {
            splitter.feed(event.clone());
        }
        splitter.end_of_stream();
        let mut instances: Vec<_> = (0..2)
            .map(|i| InstanceCore::new(i, config.consistency_check_freq))
            .collect();
        for _ in 0..1_000_000u64 {
            if splitter.cycle() {
                let outputs = splitter.into_outputs();
                let a: Vec<ComplexEvent> = outputs
                    .iter()
                    .filter(|(q, _)| *q == qa)
                    .map(|(_, ce)| ce.clone())
                    .collect();
                let b: Vec<ComplexEvent> = outputs
                    .iter()
                    .filter(|(q, _)| *q == qb)
                    .map(|(_, ce)| ce.clone())
                    .collect();
                assert_eq!(a, expected, "query A");
                assert_eq!(b, expected, "query B");
                // Dedup: the session opened exactly as many store buffers
                // as one query alone would have (windows stored once).
                let snap = shared.metrics.snapshot();
                assert_eq!(snap.store_windows_opened * 2, snap.windows_retired);
                return;
            }
            for inst in &mut instances {
                let _ = inst.step(&shared);
            }
        }
        panic!("did not converge");
    }

    #[test]
    fn retire_unknown_query_is_none() {
        let mut splitter = Splitter::multi(SpectreConfig::with_instances(1), SharedState::new(1));
        assert!(splitter.retire_query(QueryId(3)).is_none());
        let qid = splitter.deploy_query(ab_query()).unwrap();
        assert!(splitter.has_query(qid));
        assert!(splitter.retire_query(qid).is_some());
        assert!(!splitter.has_query(qid));
        assert!(splitter.retire_query(qid).is_none(), "ids are not reused");
    }

    #[test]
    fn warmup_window_size_estimate_derives_from_spec() {
        use spectre_query::window::{WindowClose, WindowOpen};

        // Count windows: the estimate is exact before the first close.
        let shared = SharedState::new(1);
        let splitter = Splitter::new(
            ab_query(), // ws = 4
            SpectreConfig::with_instances(1),
            shared,
        );
        assert_eq!(splitter.avg_window_size(), 4.0);

        // Time windows: the duration in ticks stands in for the event
        // count — derived from the spec, not a hardcoded constant.
        let x = AttrKey::new(0);
        let time_query = Arc::new(
            Query::builder("t")
                .pattern(
                    Pattern::builder()
                        .one("A", Expr::current(x).eq_(Expr::value(1.0)))
                        .build()
                        .unwrap(),
                )
                .window(WindowSpec::new(WindowOpen::EverySlide(5), WindowClose::Time(250)).unwrap())
                .build()
                .unwrap(),
        );
        let shared = SharedState::new(1);
        let mut splitter = Splitter::new(time_query, SpectreConfig::with_instances(1), shared);
        for i in 0..4 {
            splitter.feed(ev(i, 9.0));
        }
        splitter.end_of_stream();
        assert_eq!(splitter.avg_window_size(), 250.0);
        // The first cycle ingests the whole (short) stream and the final
        // flush closes the only window at 4 events: the measured length
        // replaces the warm-up estimate.
        splitter.cycle();
        assert_eq!(splitter.avg_window_size(), 4.0);
    }

    #[test]
    fn prediction_events_left_clamps_to_at_least_one() {
        assert_eq!(Splitter::events_left(200.0, 10), 190);
        // At or past the average the horizon floors at one expected
        // event, matching the model's own clamp.
        assert_eq!(Splitter::events_left(200.0, 200), 1);
        assert_eq!(Splitter::events_left(200.0, 5000), 1);
        // A degenerate (zero) average must not produce a zero horizon.
        assert_eq!(Splitter::events_left(0.0, 0), 1);
    }

    #[test]
    fn dry_feed_pauses_ingestion_until_end_of_stream() {
        // A feed that runs dry mid-stream pauses ingestion — cycles keep
        // doing maintenance without terminating — and ingestion resumes
        // seamlessly when more events arrive; explicit end-of-stream is
        // what lets the run wind down.
        let query = ab_query();
        let events: Vec<Event> = (0..40)
            .map(|i| ev(i, [1.0, 9.0, 2.0, 1.0, 2.0, 9.0][i as usize % 6]))
            .collect();
        let expected = spectre_baselines::run_sequential(&query, &events).complex_events;

        let shared = SharedState::new(1);
        let mut splitter = Splitter::new(
            Arc::clone(&query),
            SpectreConfig::with_instances(1),
            Arc::clone(&shared),
        );
        let mut inst = InstanceCore::new(0, 64);
        let (head, tail) = events.split_at(7);
        for event in head {
            splitter.feed(event.clone());
        }
        for _ in 0..20 {
            assert!(!splitter.cycle(), "dry feed must not terminate the run");
            let _ = inst.step(&shared);
        }
        assert_eq!(splitter.events_ingested(), 7);
        for event in tail {
            splitter.feed(event.clone());
        }
        splitter.end_of_stream();
        for _ in 0..1_000_000u64 {
            if splitter.cycle() {
                assert_eq!(splitter.events_ingested(), 40);
                assert_eq!(untag(splitter.into_outputs()), expected);
                return;
            }
            let _ = inst.step(&shared);
        }
        panic!("did not converge");
    }

    #[test]
    fn instance_outcomes_cover_stall() {
        // A splitter that ingests slowly: instances must stall, not skip.
        let query = ab_query();
        let shared = SharedState::new(1);
        let config = SpectreConfig {
            instances: 1,
            ingest_per_cycle: 1,
            ..Default::default()
        };
        let events: Vec<Event> = vec![ev(0, 1.0), ev(1, 2.0), ev(2, 9.0), ev(3, 9.0)];
        let mut splitter = Splitter::new(query, config, Arc::clone(&shared));
        for event in events {
            splitter.feed(event);
        }
        splitter.end_of_stream();
        let mut inst = InstanceCore::new(0, 64);
        splitter.cycle();
        // one event ingested; process it, then stall
        assert_eq!(inst.step(&shared), StepOutcome::Worked);
        assert_eq!(inst.step(&shared), StepOutcome::Stalled);
        for _ in 0..100 {
            if splitter.cycle() {
                break;
            }
            let _ = inst.step(&shared);
        }
        assert!(shared.is_done());
    }
}
