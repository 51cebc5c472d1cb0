//! The incremental engine session: SPECTRE as a push/pull streaming engine.
//!
//! [`SpectreEngine`] is the one way to run the engine: a session the
//! caller feeds incrementally — the standard source/engine split of
//! streaming systems. A session is constructed with a builder
//! ([`try_build`](SpectreEngineBuilder::try_build)), fed with
//! [`try_push`](SpectreEngine::try_push) / [`ingest`](SpectreEngine::ingest),
//! queried with
//! [`try_drain_outputs`](SpectreEngine::try_drain_outputs) (complex events
//! as they are committed, not only at end of run) and
//! [`metrics`](SpectreEngine::metrics), and closed with
//! [`try_finish`](SpectreEngine::try_finish), which signals end-of-stream,
//! drives the run to completion and returns the [`Report`].
//! [`run`](SpectreEngine::run) is `ingest` followed by `try_finish`.
//!
//! Two execution modes share the session surface:
//!
//! * [`simulated`](SpectreEngineBuilder::simulated) — the deterministic
//!   virtual-time scheduler (splitter cycles and instance steps interleaved
//!   on the calling thread; the mode behind the paper's scalability
//!   figures), and
//! * [`threaded`](SpectreEngineBuilder::threaded) — real OS threads: the
//!   session holds `instances` worker threads for its whole lifetime, and
//!   the calling thread acts as the splitter whenever it calls into the
//!   session.
//!
//! Back-pressure is part of the API: the splitter's speculative bound
//! ([`SpectreConfig::max_tree_versions`] over
//! `DependencyTree::speculative_load`) propagates to the caller —
//! [`try_push`](SpectreEngine::try_push) returns [`PushResult::Full`]
//! (handing the event back) instead of buffering without bound, so a source
//! can throttle while total memory stays bounded by the engine's feed
//! capacity plus the speculative load cap, never by the stream length.
//! That is what opens the paper's 24 M-event workload: a generator or a
//! socket streams through a session in constant space.
//!
//! # Multi-query sessions
//!
//! One session hosts any number of concurrent queries over the shared
//! splitter, store and instance pool: add queries up front with
//! [`SpectreEngineBuilder::add_query`], or on a live session with
//! [`deploy_query`](SpectreEngine::deploy_query) (matching starts at the
//! next window boundary) and [`retire_query`](SpectreEngine::retire_query)
//! (in-flight state is freed; the other queries are untouched).
//! [`try_drain_outputs`](SpectreEngine::try_drain_outputs) tags each
//! complex event with its [`QueryId`], and
//! [`try_finish`](SpectreEngine::try_finish) reports both the aggregate and
//! a per-query breakdown ([`Report::queries`]). Queries with equal window
//! specs share their window buffers in the store: each window's events are
//! stored once, no matter how many queries consume them.
//!
//! Misuse of the session is a value, never a panic: every call that can
//! meet a finished session, an unknown query or an invalid configuration
//! returns [`EngineError`].
//!
//! # Multi-tenant sessions
//!
//! Queries can be owned by tenants
//! ([`add_query_for`](SpectreEngineBuilder::add_query_for) /
//! [`deploy_query_for`](SpectreEngine::deploy_query_for)), with per-tenant
//! [`TenantQuota`]s (scheduling weight, speculation cap, query cap) set via
//! [`set_quota`](SpectreEngineBuilder::set_quota) /
//! [`set_tenant_quota`](SpectreEngine::set_tenant_quota). The splitter
//! splits instance slots between tenants by weighted fair share, and a
//! tenant's share evenly among its queries with work (see [`Splitter`]);
//! sessions that never name a tenant run entirely under
//! [`TenantId::DEFAULT`] and behave
//! bit-identically to the untenanted engine. Rollups per tenant come from
//! [`tenant_metrics`](SpectreEngine::tenant_metrics) and
//! [`Report::tenants`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use spectre_events::Schema;
//! use spectre_datasets::{NyseConfig, NyseGenerator};
//! use spectre_query::queries;
//! use spectre_core::{EngineError, SpectreConfig, SpectreEngine};
//!
//! # fn main() -> Result<(), EngineError> {
//! let mut schema = Schema::new();
//! let query = Arc::new(queries::q1(&mut schema, 2, 100, Default::default()));
//! let mut engine = SpectreEngine::builder(&query)
//!     .config(SpectreConfig::with_instances(4))
//!     .simulated()
//!     .try_build()?;
//! // Feed the generator straight into the session — no Vec in between.
//! engine.ingest(NyseGenerator::new(NyseConfig::small(500, 1), &mut schema))?;
//! let early = engine.try_drain_outputs()?; // whatever is committed so far
//! let report = engine.try_finish()?;
//! assert_eq!(report.input_events, 500);
//! println!("{} + {} complex events", early.len(), report.complex_events.len());
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spectre_events::Event;
use spectre_query::{ComplexEvent, Query};

use crate::config::{SpectreConfig, TenantQuota};
use crate::instance::{InstanceCore, StepOutcome};
use crate::metrics::{MetricsSnapshot, WorkerSnapshot};
use crate::reorder::{Offer, ReorderBuffer};
use crate::shared::{QueryId, SharedState, TenantId};
use crate::splitter::Splitter;

/// A misuse of the engine session surface, reported by every session call
/// that can meet it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The session was already finished ([`SpectreEngine::try_finish`]):
    /// no further events can be pushed or ingested, watermarks advanced,
    /// outputs drained or queries deployed/retired.
    SessionFinished,
    /// The [`QueryId`] names no currently deployed query — it was never
    /// deployed in this session, or was already retired (ids are not
    /// reused).
    UnknownQuery(QueryId),
    /// The query cannot run on the speculative runtime (e.g. it allows
    /// more than one concurrently active partial match, where the runtime
    /// requires `max_active = 1`).
    QueryNotRunnable {
        /// The query's name.
        query: String,
        /// Why the speculative runtime rejects it.
        reason: String,
    },
    /// Deploying the query would exceed the owning tenant's
    /// [`TenantQuota::max_queries`] cap.
    QuotaExceeded {
        /// The tenant at its cap.
        tenant: TenantId,
        /// The cap that would be exceeded.
        max_queries: usize,
    },
    /// The session configuration or a tenant quota violates a constraint
    /// (the message is the constraint; see [`SpectreConfig::try_validate`]
    /// and [`TenantQuota::try_validate`]).
    InvalidConfig(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::SessionFinished => {
                write!(f, "the engine session is already finished")
            }
            EngineError::UnknownQuery(qid) => {
                write!(
                    f,
                    "no deployed query {qid} (never deployed, or already retired)"
                )
            }
            EngineError::QueryNotRunnable { query, reason } => {
                write!(f, "query {query:?} is not runnable: {reason}")
            }
            EngineError::QuotaExceeded {
                tenant,
                max_queries,
            } => {
                write!(f, "tenant {tenant} is at its query quota ({max_queries})")
            }
            EngineError::InvalidConfig(msg) => {
                write!(f, "invalid configuration: {msg}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Outcome of a [`SpectreEngine::try_push`].
#[derive(Debug)]
#[must_use = "a Full result hands the event back; dropping it loses the event"]
pub enum PushResult {
    /// The event was queued for ingestion.
    Accepted,
    /// Speculative back-pressure: the feed is at capacity and the last
    /// maintenance round could not drain it (the dependency tree is at its
    /// [`SpectreConfig::max_tree_versions`] load bound). The event is
    /// handed back; retry after more processing — e.g. another `try_push`
    /// (each attempt runs a maintenance round) or a
    /// [`try_drain_outputs`](SpectreEngine::try_drain_outputs) call.
    Full(Event),
}

impl PushResult {
    /// `true` if the event was queued.
    pub fn is_accepted(&self) -> bool {
        matches!(self, PushResult::Accepted)
    }
}

/// One query's share of a session [`Report`].
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// The tenant that owned the query.
    pub tenant: TenantId,
    /// This query's complex events committed since the last
    /// [`try_drain_outputs`](SpectreEngine::try_drain_outputs), in its window
    /// order (detection order within a window).
    pub complex_events: Vec<ComplexEvent>,
    /// This query's share of the metric counters. Engine-scoped counters
    /// (`sched_cycles`, `idle_steps`, `stalled_steps`,
    /// `store_windows_opened`) are zero here; for the summable counters the
    /// aggregate [`Report::metrics`] equals the sum over queries.
    pub metrics: MetricsSnapshot,
}

/// End-of-run report of an engine session in either mode, returned by
/// [`SpectreEngine::try_finish`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Complex events committed since the last
    /// [`try_drain_outputs`](SpectreEngine::try_drain_outputs) (all of
    /// them, if the session never drained), across all queries in commit
    /// order. With a single deployed query this is exactly that query's
    /// stream in window order.
    pub complex_events: Vec<ComplexEvent>,
    /// Final metric counters, aggregated over the whole session.
    pub metrics: MetricsSnapshot,
    /// Per-query breakdown (outputs and metric shares) for the queries
    /// still deployed at finish. Queries retired mid-session are absent —
    /// their remaining outputs were handed back by
    /// [`retire_query`](SpectreEngine::retire_query).
    pub queries: BTreeMap<QueryId, QueryReport>,
    /// Per-tenant metric rollups for every tenant the session ever saw,
    /// including tenants whose queries all retired (their counters live
    /// on in the rollup). For the summable counters the aggregate
    /// [`metrics`](Self::metrics) equals the sum over tenants whenever no
    /// query was retired mid-session; retired queries' shares stay in
    /// their tenant's rollup, so the tenant decomposition is exact even
    /// then (up to counters still in flight on worker threads at the
    /// moment of a mid-stream retire).
    pub tenants: BTreeMap<TenantId, MetricsSnapshot>,
    /// Events ingested over the whole session, counted by the splitter —
    /// under streaming the stream length is unknown up front.
    pub input_events: u64,
    /// Wall-clock duration from session build to finish.
    pub wall: Duration,
    /// Virtual rounds until completion (simulated mode only).
    pub rounds: Option<u64>,
    /// Wall-clock time spent inside splitter maintenance cycles
    /// (simulated mode only; basis of the Fig. 10(c) measurement).
    pub splitter_wall: Option<Duration>,
}

impl Report {
    /// Measured wall-clock throughput in events per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.input_events as f64 / secs
        }
    }

    /// Renders the report as a single-line JSON summary — counts and core
    /// counters, not the complex events themselves. This is what a server
    /// front-end flushes on graceful drain; hand-rolled (the workspace has
    /// no JSON dependency) and stable enough for scripts to parse.
    pub fn summary_json(&self) -> String {
        use std::fmt::Write as _;
        let m = &self.metrics;
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"input_events\":{},\"complex_events\":{},\"wall_ms\":{},\
             \"events_per_sec\":{:.1},\"events_processed\":{},\
             \"outputs_emitted\":{},\"versions_created\":{},\"rollbacks\":{},\
             \"windows_retired\":{},\"watermarks_advanced\":{},\"queries\":[",
            self.input_events,
            self.complex_events.len(),
            self.wall.as_millis(),
            self.throughput(),
            m.events_processed,
            m.outputs_emitted,
            m.versions_created,
            m.rollbacks,
            m.windows_retired,
            m.watermarks_advanced,
        );
        for (i, (qid, qr)) in self.queries.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"query\":{},\"tenant\":{},\"complex_events\":{},\
                 \"events_processed\":{}}}",
                if i == 0 { "" } else { "," },
                qid.0,
                qr.tenant.0,
                qr.complex_events.len(),
                qr.metrics.events_processed,
            );
        }
        s.push_str("],\"tenants\":[");
        for (i, (tid, tm)) in self.tenants.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"tenant\":{},\"events_processed\":{},\"outputs_emitted\":{}}}",
                if i == 0 { "" } else { "," },
                tid.0,
                tm.events_processed,
                tm.outputs_emitted,
            );
        }
        s.push_str("]}");
        s
    }
}

/// Builder for a [`SpectreEngine`] session; see
/// [`SpectreEngine::builder`] (single query) and
/// [`SpectreEngine::multi_builder`] (start empty, add queries).
#[derive(Debug, Clone)]
pub struct SpectreEngineBuilder {
    queries: Vec<(TenantId, Arc<Query>)>,
    quotas: Vec<(TenantId, TenantQuota)>,
    config: SpectreConfig,
    threaded: bool,
}

impl SpectreEngineBuilder {
    /// Adds a query (owned by the default tenant) to be deployed when the
    /// session is built, returning the [`QueryId`] it will carry (ids are
    /// assigned densely in add order; a session built from `builder(&q)`
    /// already holds `q` as `QueryId(0)`).
    pub fn add_query(&mut self, query: &Arc<Query>) -> QueryId {
        self.add_query_for(TenantId::DEFAULT, query)
    }

    /// Adds a query owned by `tenant` to be deployed when the session is
    /// built. Id assignment is the same dense add order as
    /// [`add_query`](Self::add_query) regardless of tenant.
    pub fn add_query_for(&mut self, tenant: TenantId, query: &Arc<Query>) -> QueryId {
        self.queries.push((tenant, Arc::clone(query)));
        QueryId((self.queries.len() - 1) as u32)
    }

    /// Sets `tenant`'s [`TenantQuota`] (validated and applied at build
    /// time, before any query deploys). The last call per tenant wins.
    pub fn set_quota(&mut self, tenant: TenantId, quota: TenantQuota) -> &mut Self {
        self.quotas.push((tenant, quota));
        self
    }

    /// Sets the runtime configuration (defaults to
    /// [`SpectreConfig::default`]).
    #[must_use]
    pub fn config(mut self, config: SpectreConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the threaded mode: `instances` worker threads are spawned
    /// at [`try_build`](Self::try_build) and held by the session; the
    /// calling thread runs splitter work inside `try_push`/`ingest`/
    /// `try_finish`.
    #[must_use]
    pub fn threaded(mut self) -> Self {
        self.threaded = true;
        self
    }

    /// Selects the deterministic virtual-time simulation mode (the
    /// default), which reproduces the paper's figures on arbitrary
    /// hardware.
    ///
    /// The paper evaluates SPECTRE on a 2×10-core machine; this mode runs
    /// the real splitter and instance logic under a virtual-time scheduler
    /// on the calling thread: per round, the splitter runs one maintenance
    /// cycle and each of the k operator instances performs at most one
    /// step — one batch of up to [`SpectreConfig::batch_size`] events
    /// (`batch_size: 1` gives the original one-event-per-round model). A
    /// round therefore models the time slice in which one instance handles
    /// one batch, and
    ///
    /// ```text
    /// throughput(k) = input_events / rounds × per_instance_event_rate
    /// ```
    ///
    /// Speculation waste — rounds spent on window versions that are later
    /// dropped — and scheduling breadth/depth are exactly the effects the
    /// paper's scalability curves measure (§4.2.1), and they are captured
    /// faithfully because the *same* tree, predictor, scheduler and
    /// consistency machinery run underneath. Everything is single-threaded
    /// and seed-free, so runs are bit-for-bit reproducible. Lazy branch
    /// materialization happens inside the splitter's maintenance cycle, so
    /// the virtual-time model is unchanged; the `versions_materialized` /
    /// `lazy_versions_dropped` counters expose how much cloning the
    /// predictor's ranking avoided. [`Report::rounds`] and
    /// [`Report::splitter_wall`] are set in this mode only.
    #[must_use]
    pub fn simulated(mut self) -> Self {
        self.threaded = false;
        self
    }

    /// Builds the session (threaded mode spawns the worker threads here).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] for a configuration or quota that
    /// violates a constraint, [`EngineError::QueryNotRunnable`] for a
    /// query the speculative runtime rejects, and
    /// [`EngineError::QuotaExceeded`] when the added queries overrun a
    /// tenant's [`TenantQuota::max_queries`].
    pub fn try_build(self) -> Result<SpectreEngine, EngineError> {
        let SpectreEngineBuilder {
            queries,
            quotas,
            config,
            threaded,
        } = self;
        if let Err(msg) = config.try_validate() {
            return Err(EngineError::InvalidConfig(msg));
        }
        let start = Instant::now();
        let shared = SharedState::for_config(&config);
        let mut splitter = Splitter::multi(config.clone(), Arc::clone(&shared));
        for (tenant, quota) in quotas {
            splitter.set_tenant_quota(tenant, quota)?;
        }
        for (tenant, query) in &queries {
            splitter.deploy_query_for(*tenant, Arc::clone(query))?;
        }
        let driver = if threaded {
            Driver::Threaded {
                workers: spawn_workers(&shared, &config),
            }
        } else {
            Driver::Simulated {
                instances: (0..config.instances)
                    .map(|i| {
                        InstanceCore::new(i, config.consistency_check_freq)
                            .with_batch(config.batch_size)
                    })
                    .collect(),
                rounds: 0,
                splitter_wall: Duration::ZERO,
            }
        };
        // One maintenance cycle consumes at most `ingest_per_cycle` events,
        // so a feed of that size never starves a cycle: a session fed
        // incrementally cycles exactly like one handed the whole stream.
        // Anything beyond it is pure buffering.
        let capacity = config.ingest_per_cycle.max(config.batch_size);
        let reorder = config
            .reorder
            .as_ref()
            .map(|rc| ReorderBuffer::new(rc.clone()));
        // Behind a reorder stage the splitter's feed is contractually
        // timestamp-monotone; have it verify that in debug builds.
        splitter.expect_monotone(reorder.is_some());
        Ok(SpectreEngine {
            config,
            shared,
            splitter,
            reorder,
            driver,
            capacity,
            start,
            finished: false,
        })
    }
}

/// Mode-specific execution state of a session.
enum Driver {
    /// Virtual-time scheduler state (see
    /// [`SpectreEngineBuilder::simulated`]), suspended between calls into
    /// the session.
    Simulated {
        instances: Vec<InstanceCore>,
        rounds: u64,
        splitter_wall: Duration,
    },
    /// Worker threads running [`instance_worker`]; joined at finish (or
    /// drop).
    Threaded { workers: Vec<JoinHandle<()>> },
}

/// An incremental SPECTRE session: push events in, pull complex events
/// out. See the [module docs](self) for the lifecycle and the example.
pub struct SpectreEngine {
    config: SpectreConfig,
    shared: Arc<SharedState>,
    splitter: Splitter,
    /// The watermark-driven reorder stage ahead of the splitter
    /// ([`SpectreConfig::reorder`]); `None` feeds the splitter directly.
    reorder: Option<ReorderBuffer>,
    driver: Driver,
    /// Feed-queue capacity before a push runs (or waits for) maintenance.
    capacity: usize,
    start: Instant,
    /// Set by [`try_finish`](Self::try_finish); further session calls
    /// return [`EngineError::SessionFinished`].
    finished: bool,
}

impl std::fmt::Debug for SpectreEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpectreEngine")
            .field("mode", &self.mode_name())
            .field("instances", &self.config.instances)
            .field("events_ingested", &self.splitter.events_ingested())
            .field("feed_len", &self.splitter.feed_len())
            .finish_non_exhaustive()
    }
}

impl SpectreEngine {
    /// Starts building a session over the single query `query` (deployed
    /// as `QueryId(0)`): [`multi_builder`](Self::multi_builder) plus one
    /// [`add_query`](SpectreEngineBuilder::add_query).
    pub fn builder(query: &Arc<Query>) -> SpectreEngineBuilder {
        let mut builder = Self::multi_builder();
        builder.add_query(query);
        builder
    }

    /// Starts building a session hosting any number of queries: add them
    /// with [`SpectreEngineBuilder::add_query`] before
    /// [`try_build`](SpectreEngineBuilder::try_build), or deploy onto the live
    /// session with [`deploy_query`](Self::deploy_query).
    pub fn multi_builder() -> SpectreEngineBuilder {
        SpectreEngineBuilder {
            queries: Vec::new(),
            quotas: Vec::new(),
            config: SpectreConfig::default(),
            threaded: false,
        }
    }

    fn mode_name(&self) -> &'static str {
        match self.driver {
            Driver::Simulated { .. } => "simulated",
            Driver::Threaded { .. } => "threaded",
        }
    }

    /// Offers one event to the session. Returns [`PushResult::Full`] —
    /// handing the event back — when the feed is at capacity and the
    /// maintenance round this call ran could not drain it (speculative
    /// back-pressure); every retry runs another round, so a plain retry
    /// loop always terminates.
    ///
    /// # Errors
    ///
    /// [`EngineError::SessionFinished`] if the session already finished.
    pub fn try_push(&mut self, event: Event) -> Result<PushResult, EngineError> {
        if self.finished {
            return Err(EngineError::SessionFinished);
        }
        if self.reorder.is_some() {
            return Ok(self.push_reordered(event));
        }
        if self.splitter.feed_len() >= self.capacity {
            self.pump();
            if self.splitter.feed_len() >= self.capacity {
                return Ok(PushResult::Full(event));
            }
        }
        self.splitter.feed(event);
        Ok(PushResult::Accepted)
    }

    /// The push path behind a reorder stage: release whatever the
    /// watermark already covers, make room if the buffer is at capacity
    /// (one maintenance round, like the direct path), then offer the event
    /// to the buffer. Buffer-cap back-pressure surfaces as the same
    /// [`PushResult::Full`] as splitter back-pressure.
    fn push_reordered(&mut self, event: Event) -> PushResult {
        self.drain_reorder();
        if self.reorder.as_ref().is_some_and(ReorderBuffer::is_full) {
            self.pump();
            self.drain_reorder();
        }
        let offer = self
            .reorder
            .as_mut()
            .expect("push_reordered without a reorder stage")
            .offer(event);
        let result = match offer {
            Offer::Buffered | Offer::DroppedLate => PushResult::Accepted,
            Offer::AdmittedLate(late) => {
                self.splitter.feed_late(late);
                PushResult::Accepted
            }
            Offer::Rejected(back) => PushResult::Full(back),
        };
        self.flush_reorder_stats();
        self.drain_reorder();
        result
    }

    /// Moves watermark-released events from the reorder buffer into the
    /// splitter feed, up to the feed capacity. No-op without a reorder
    /// stage.
    fn drain_reorder(&mut self) {
        let Some(rb) = self.reorder.as_mut() else {
            return;
        };
        while self.splitter.feed_len() < self.capacity {
            match rb.pop_ready() {
                Some(event) => self.splitter.feed(event),
                None => break,
            }
        }
    }

    /// Publishes the reorder stage's counter deltas into the metrics (per
    /// query view — see [`Splitter::record_reorder`]).
    fn flush_reorder_stats(&mut self) {
        if let Some(rb) = self.reorder.as_mut() {
            let stats = rb.take_stats();
            self.splitter.record_reorder(&stats);
        }
    }

    /// Advances the reorder stage's watermark from an external punctuation:
    /// the source asserts it will send no event with a timestamp below
    /// `stream_ts`, so everything up to `stream_ts - max_delay` becomes
    /// releasable. This is how
    /// [`WatermarkPolicy::Punctuated`](crate::reorder::WatermarkPolicy::Punctuated)
    /// streams make progress; under a periodic policy it is a way to flush
    /// ahead of the
    /// per-arrival cadence. No-op without a reorder stage.
    ///
    /// # Errors
    ///
    /// [`EngineError::SessionFinished`] if the session already finished.
    pub fn advance_watermark(&mut self, stream_ts: u64) -> Result<(), EngineError> {
        if self.finished {
            return Err(EngineError::SessionFinished);
        }
        if let Some(rb) = self.reorder.as_mut() {
            rb.advance_watermark(stream_ts);
            self.flush_reorder_stats();
            self.drain_reorder();
        }
        Ok(())
    }

    /// Deploys an additional query onto the live session. The query starts
    /// matching at the next window boundary its spec group opens — events
    /// already ingested (and windows already open) are not its. If an
    /// already-deployed query has an equal window spec, the new query
    /// shares its window buffers in the store from the start.
    pub fn deploy_query(&mut self, query: &Arc<Query>) -> Result<QueryId, EngineError> {
        self.deploy_query_for(TenantId::DEFAULT, query)
    }

    /// [`deploy_query`](Self::deploy_query) with an explicit owning
    /// tenant. Fails with [`EngineError::QuotaExceeded`] when the tenant
    /// is at its [`TenantQuota::max_queries`] cap.
    pub fn deploy_query_for(
        &mut self,
        tenant: TenantId,
        query: &Arc<Query>,
    ) -> Result<QueryId, EngineError> {
        if self.finished {
            return Err(EngineError::SessionFinished);
        }
        self.splitter.deploy_query_for(tenant, Arc::clone(query))
    }

    /// Sets (or replaces) `tenant`'s quota on the live session. The new
    /// weight and speculation cap take effect at the next scheduling
    /// cycle; the query cap applies to subsequent deploys (queries over a
    /// newly lowered cap stay deployed).
    pub fn set_tenant_quota(
        &mut self,
        tenant: TenantId,
        quota: TenantQuota,
    ) -> Result<(), EngineError> {
        if self.finished {
            return Err(EngineError::SessionFinished);
        }
        self.splitter.set_tenant_quota(tenant, quota)
    }

    /// Live per-tenant metric rollups, in first-deploy order: each
    /// tenant's live queries' shares plus the residual of its retired
    /// queries. See [`Report::tenants`] for the decomposition guarantee.
    pub fn tenant_metrics(&self) -> Vec<(TenantId, MetricsSnapshot)> {
        self.splitter.tenant_metrics()
    }

    /// Retires a deployed query mid-session: its in-flight speculative
    /// versions are discarded, its scheduling slots freed and its window
    /// state released (shared window buffers live on for other
    /// subscribers), without disturbing the other queries' outputs or
    /// back-pressure. Returns the query's committed-but-undrained complex
    /// events.
    pub fn retire_query(&mut self, qid: QueryId) -> Result<Vec<ComplexEvent>, EngineError> {
        if self.finished {
            return Err(EngineError::SessionFinished);
        }
        self.splitter
            .retire_query(qid)
            .ok_or(EngineError::UnknownQuery(qid))
    }

    /// Ids of the currently deployed queries, in deployment order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.splitter.query_ids()
    }

    /// Feeds everything a source yields, blocking (i.e. running engine
    /// work) until every event is accepted: any `Iterator<Item = Event>`
    /// (a batch, a dataset generator, a decoded file) plugs in directly and
    /// is consumed incrementally, so memory stays bounded regardless of
    /// stream length. Returns the number of events fed.
    ///
    /// # Errors
    ///
    /// [`EngineError::SessionFinished`] if the session already finished.
    pub fn ingest(&mut self, source: impl IntoIterator<Item = Event>) -> Result<u64, EngineError> {
        if self.finished {
            return Err(EngineError::SessionFinished);
        }
        let mut fed = 0u64;
        for mut event in source {
            // Every retry runs another maintenance round, so this
            // terminates.
            while let PushResult::Full(back) = self.try_push(event)? {
                event = back;
            }
            fed += 1;
        }
        Ok(fed)
    }

    /// Takes the complex events committed since the last call, each tagged
    /// with the query that produced it. The tagged stream is in commit
    /// order; each query's subsequence is in its window order (detection
    /// order within a window). Runs one maintenance round first, so
    /// repeated calls make progress even without further pushes.
    ///
    /// # Errors
    ///
    /// [`EngineError::SessionFinished`] if the session already finished
    /// (a finished session's remaining outputs are in its [`Report`]).
    pub fn try_drain_outputs(&mut self) -> Result<Vec<(QueryId, ComplexEvent)>, EngineError> {
        if self.finished {
            return Err(EngineError::SessionFinished);
        }
        self.pump();
        Ok(self.splitter.take_outputs())
    }

    /// A live snapshot of the shared metric counters, aggregated over all
    /// queries.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Live per-worker snapshots of the instance-hot counters (events
    /// processed/suppressed, idle and stalled steps), in instance order.
    /// The aggregate [`metrics`](Self::metrics) equals the base residual
    /// plus the sum of these blocks — see
    /// [`Metrics::with_workers`](crate::metrics::Metrics::with_workers).
    pub fn worker_metrics(&self) -> Vec<WorkerSnapshot> {
        self.shared.metrics.worker_snapshots()
    }

    /// Live per-query metric snapshots, in deployment order. See
    /// [`QueryReport::metrics`] for which counters have per-query shares.
    pub fn per_query_metrics(&self) -> Vec<(QueryId, MetricsSnapshot)> {
        self.splitter.per_query_metrics()
    }

    /// Events ingested so far (excludes events still in the feed queue).
    pub fn events_ingested(&self) -> u64 {
        self.splitter.events_ingested()
    }

    /// The tenant owning a deployed query, or `None` for an unknown or
    /// retired id.
    pub fn query_tenant(&self, qid: QueryId) -> Option<TenantId> {
        self.splitter.query_tenant(qid)
    }

    /// `true` once [`try_finish`](Self::try_finish) succeeded; every
    /// further session call errors with [`EngineError::SessionFinished`].
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Runs one unit of engine work (a virtual-time round or a splitter
    /// maintenance cycle) without pushing or draining — how an idle driver
    /// (e.g. a server feed thread with no pending frames) keeps the session
    /// progressing between arrivals.
    ///
    /// # Errors
    ///
    /// [`EngineError::SessionFinished`] if the session already finished.
    pub fn maintain(&mut self) -> Result<(), EngineError> {
        if self.finished {
            return Err(EngineError::SessionFinished);
        }
        self.pump();
        Ok(())
    }

    /// Signals end-of-stream, drives the run to completion, shuts the
    /// session down (threaded mode joins its workers) and returns the
    /// [`Report`]. After `Ok`, every further session call errors; dropping
    /// the session is then a no-op.
    ///
    /// # Errors
    ///
    /// [`EngineError::SessionFinished`] if the session already finished.
    ///
    /// # Panics
    ///
    /// Simulated mode panics if the run exceeds
    /// `200 × input_events + 1_000_000` virtual rounds — a liveness guard;
    /// a correct configuration always terminates far below it.
    pub fn try_finish(&mut self) -> Result<Report, EngineError> {
        if self.finished {
            return Err(EngineError::SessionFinished);
        }
        self.finished = true;
        // End-of-stream closes the reorder stage: the final watermark
        // releases everything still buffered, in timestamp order, before
        // the splitter learns the stream is over.
        if let Some(rb) = self.reorder.as_mut() {
            rb.finish();
            loop {
                self.drain_reorder();
                if self.reorder.as_ref().is_none_or(ReorderBuffer::is_empty) {
                    break;
                }
                // Feed at capacity with events still buffered: run engine
                // work to make room, exactly like a blocked push.
                self.pump();
            }
            self.flush_reorder_stats();
        }
        self.splitter.end_of_stream();
        let total = self.splitter.events_ingested() + self.splitter.feed_len() as u64;
        match &mut self.driver {
            Driver::Simulated { rounds, .. } => {
                let limit = 200u64.saturating_mul(total) + 1_000_000;
                let mut r = *rounds;
                while !self.sim_round() {
                    r += 1;
                    assert!(r < limit, "simulation exceeded liveness bound");
                }
            }
            Driver::Threaded { .. } => {
                // The calling thread becomes the splitter, as in the legacy
                // driver: yield whenever a cycle made no progress so the
                // worker threads are not starved on small machines.
                while !self.splitter.cycle() {
                    if self.splitter.made_progress() {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
        // A worker that panicked mid-run must fail the session loudly, as
        // the scoped threads of the old driver did — its statistics were
        // never flushed and its processing cannot be trusted.
        if let Some(payload) = self.join_workers().into_iter().next() {
            std::panic::resume_unwind(payload);
        }
        let (rounds, splitter_wall) = match &self.driver {
            Driver::Simulated {
                rounds,
                splitter_wall,
                ..
            } => (Some(*rounds), Some(*splitter_wall)),
            Driver::Threaded { .. } => (None, None),
        };
        let mut queries: BTreeMap<QueryId, QueryReport> = self
            .splitter
            .per_query_metrics()
            .into_iter()
            .map(|(qid, metrics)| {
                let tenant = self
                    .splitter
                    .query_tenant(qid)
                    .expect("per_query_metrics lists only deployed queries");
                (
                    qid,
                    QueryReport {
                        tenant,
                        complex_events: Vec::new(),
                        metrics,
                    },
                )
            })
            .collect();
        let tenants: BTreeMap<TenantId, MetricsSnapshot> =
            self.splitter.tenant_metrics().into_iter().collect();
        let tagged = self.splitter.take_outputs();
        let mut complex_events = Vec::with_capacity(tagged.len());
        for (qid, ce) in tagged {
            if let Some(qr) = queries.get_mut(&qid) {
                qr.complex_events.push(ce.clone());
            }
            complex_events.push(ce);
        }
        Ok(Report {
            complex_events,
            metrics: self.shared.metrics.snapshot(),
            input_events: self.splitter.events_ingested(),
            wall: self.start.elapsed(),
            rounds,
            splitter_wall,
            queries,
            tenants,
        })
    }

    /// One-shot run: [`ingest`](Self::ingest) everything, then
    /// [`try_finish`](Self::try_finish).
    ///
    /// # Errors
    ///
    /// [`EngineError::SessionFinished`] if the session already finished.
    pub fn run(mut self, source: impl IntoIterator<Item = Event>) -> Result<Report, EngineError> {
        self.ingest(source)?;
        self.try_finish()
    }

    /// One unit of engine work on the calling thread: a virtual-time round
    /// (simulated) or a splitter maintenance cycle (threaded). Returns
    /// `true` once the run is complete (only possible after end-of-stream).
    fn pump(&mut self) -> bool {
        match &mut self.driver {
            Driver::Simulated { .. } => self.sim_round(),
            Driver::Threaded { .. } => {
                let done = self.splitter.cycle();
                if !done && !self.splitter.made_progress() {
                    std::thread::yield_now();
                }
                done
            }
        }
    }

    /// One virtual-time round: a splitter cycle, then one step per
    /// instance. The final cycle (run complete) ends the round early,
    /// before any instance steps.
    fn sim_round(&mut self) -> bool {
        let Driver::Simulated {
            instances,
            rounds,
            splitter_wall,
        } = &mut self.driver
        else {
            unreachable!("sim_round on a threaded session");
        };
        let t = Instant::now();
        let done = self.splitter.cycle();
        *splitter_wall += t.elapsed();
        if done {
            return true;
        }
        for inst in instances.iter_mut() {
            let _ = inst.step(&self.shared);
        }
        *rounds += 1;
        false
    }

    /// Joins the worker threads (threaded mode; no-op otherwise),
    /// returning the panic payloads of any that died. The shared `done`
    /// flag must already be (or concurrently become) set.
    fn join_workers(&mut self) -> Vec<Box<dyn std::any::Any + Send>> {
        let mut panics = Vec::new();
        if let Driver::Threaded { workers } = &mut self.driver {
            for worker in workers.drain(..) {
                if let Err(payload) = worker.join() {
                    panics.push(payload);
                }
            }
        }
        panics
    }
}

impl Drop for SpectreEngine {
    /// Dropping an unfinished threaded session aborts it: the `done` flag
    /// is raised so the workers exit their poll loop, and they are joined
    /// (panic payloads are swallowed here — a drop must not panic).
    /// A finished session already joined them; this is a no-op then.
    fn drop(&mut self) {
        if let Driver::Threaded { workers } = &self.driver {
            if workers.is_empty() {
                return;
            }
            self.shared.done.store(true, Ordering::Release);
            self.shared.unpark_workers();
            let _ = self.join_workers();
        }
    }
}

/// Spawns the operator-instance worker threads for a threaded session.
fn spawn_workers(shared: &Arc<SharedState>, config: &SpectreConfig) -> Vec<JoinHandle<()>> {
    (0..config.instances)
        .map(|i| {
            let shared = Arc::clone(shared);
            let check_freq = config.consistency_check_freq;
            let batch_size = config.batch_size;
            std::thread::spawn(move || {
                // Register for unparking before the first step: the worker
                // may enter the parking tier before ever doing useful work.
                shared.register_worker(i);
                let mut inst = InstanceCore::new(i, check_freq).with_batch(batch_size);
                instance_worker(&mut inst, &shared);
            })
        })
        .collect()
}

/// The operator-instance worker loop of a threaded session and its idle
/// back-off policy. A step only reports idle or stalled when the worker's
/// run-ahead FIFO is empty too: with final windows queued behind its head
/// (see [`SlotCell`](crate::shared::SlotCell)), a worker that finishes a
/// window starts the next one itself instead of waiting out these tiers
/// for the splitter's next cycle. Three tiers on idle/stalled steps:
///
/// 1. **Spin** (first 32 fruitless steps): a new assignment or fresh
///    ingestion usually lands within microseconds mid-stream.
/// 2. **Yield** (up to 64): give the splitter and the other workers the
///    core — the path that keeps oversubscribed machines live.
/// 3. **Park** (beyond 64): `park_timeout` with exponential back-off
///    (50 µs doubling to ~1.6 ms), so an idle worker costs no CPU. The
///    splitter unparks everyone whenever a cycle publishes slots, flushes
///    events or sets `done` ([`SharedState::unpark_workers`]); the bounded
///    timeout caps the cost of a lost wake-up at one period instead of a
///    hang. Without this tier, an idle k=8 session pins 8 cores.
///
/// Statistics are flushed on shutdown.
fn instance_worker(inst: &mut InstanceCore, shared: &SharedState) {
    const SPIN_STEPS: u32 = 32;
    const YIELD_STEPS: u32 = 64;
    const PARK_MIN: Duration = Duration::from_micros(50);
    const PARK_MAX: Duration = Duration::from_micros(1_600);
    let mut idle_spins = 0u32;
    let mut park_for = PARK_MIN;
    while !shared.is_done() {
        match inst.step(shared) {
            StepOutcome::Idle | StepOutcome::Stalled => {
                idle_spins = idle_spins.saturating_add(1);
                if idle_spins <= SPIN_STEPS {
                    std::hint::spin_loop();
                } else if idle_spins <= YIELD_STEPS {
                    std::thread::yield_now();
                } else {
                    // Re-check the shutdown flag after joining the parked
                    // set: unpark_workers only wakes registered threads it
                    // sees parked, so the order here (count up, re-check,
                    // park) closes the race with a concurrent `done`.
                    shared.note_parked();
                    if !shared.is_done() {
                        std::thread::park_timeout(park_for);
                    }
                    shared.note_unparked();
                    park_for = (park_for * 2).min(PARK_MAX);
                }
            }
            _ => {
                idle_spins = 0;
                park_for = PARK_MIN;
            }
        }
    }
    inst.flush_stats(shared);
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectre_baselines::run_sequential;
    use spectre_datasets::{NyseConfig, NyseGenerator};
    use spectre_events::Schema;
    use spectre_query::queries::{self, Direction};

    /// A single-query session in either mode.
    fn session(query: &Arc<Query>, config: SpectreConfig, threaded: bool) -> SpectreEngine {
        let builder = SpectreEngine::builder(query).config(config);
        let builder = if threaded {
            builder.threaded()
        } else {
            builder.simulated()
        };
        builder.try_build().unwrap()
    }

    fn fixture(events: usize, seed: u64) -> (Arc<Query>, Vec<Event>) {
        let mut schema = Schema::new();
        let events: Vec<_> =
            NyseGenerator::new(NyseConfig::small(events, seed), &mut schema).collect();
        let query = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
        (query, events)
    }

    #[test]
    fn simulated_session_matches_sequential() {
        let (query, events) = fixture(1500, 17);
        let expected = run_sequential(&query, &events).complex_events;
        let report = session(&query, SpectreConfig::with_instances(4), false)
            .run(events)
            .unwrap();
        assert_eq!(report.complex_events, expected);
        assert_eq!(report.input_events, 1500);
        assert!(report.rounds.is_some(), "simulated mode reports rounds");
        assert!(report.splitter_wall.is_some());
    }

    #[test]
    fn threaded_session_matches_sequential() {
        let (query, events) = fixture(1500, 17);
        let expected = run_sequential(&query, &events).complex_events;
        let report = session(&query, SpectreConfig::with_instances(2), true)
            .run(events)
            .unwrap();
        assert_eq!(report.complex_events, expected);
        assert_eq!(report.input_events, 1500);
        assert!(report.rounds.is_none(), "threaded mode has no rounds");
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn drained_outputs_plus_final_report_cover_everything_once() {
        let (query, events) = fixture(2000, 23);
        let expected = run_sequential(&query, &events).complex_events;
        assert!(!expected.is_empty());
        let mut engine = session(&query, SpectreConfig::with_instances(2), false);
        let mut collected = Vec::new();
        for chunk in events.chunks(97) {
            engine.ingest(chunk.to_vec()).unwrap();
            let drained = engine.try_drain_outputs().unwrap();
            collected.extend(drained.into_iter().map(|(_, ce)| ce));
        }
        let streamed_before_finish = collected.len();
        let report = engine.try_finish().unwrap();
        collected.extend(report.complex_events);
        assert_eq!(collected, expected);
        assert!(
            streamed_before_finish > 0,
            "outputs must be committed incrementally, not only at end of run"
        );
    }

    #[test]
    fn zero_version_cap_is_rejected_at_build() {
        // A zero cap back-pressures from the first event (every load is
        // ≥ 0 and an empty tree has no root to finish), so ingest would
        // spin forever; the builder must refuse it up front.
        let (query, _) = fixture(0, 1);
        let config = SpectreConfig {
            max_tree_versions: 0,
            ..SpectreConfig::with_instances(1)
        };
        match SpectreEngine::builder(&query)
            .config(config)
            .simulated()
            .try_build()
        {
            Err(EngineError::InvalidConfig(msg)) => assert!(msg.contains("version cap")),
            other => panic!("expected InvalidConfig, got {:?}", other.err()),
        }
    }

    #[test]
    fn push_retry_loop_survives_backpressure() {
        // A tiny speculative-load cap forces Full results mid-stream; a
        // plain retry loop (each push attempt runs a maintenance round)
        // must still terminate with the exact output.
        let (query, events) = fixture(1200, 29);
        let expected = run_sequential(&query, &events).complex_events;
        let config = SpectreConfig {
            max_tree_versions: 2,
            ..SpectreConfig::with_instances(1)
        };
        let mut engine = session(&query, config, false);
        let mut rejected = 0u64;
        for mut event in events {
            loop {
                match engine.try_push(event).unwrap() {
                    PushResult::Accepted => break,
                    PushResult::Full(back) => {
                        rejected += 1;
                        event = back;
                    }
                }
            }
        }
        let report = engine.try_finish().unwrap();
        assert_eq!(report.complex_events, expected);
        assert!(
            rejected > 0,
            "a cap of 2 versions must exert visible back-pressure"
        );
    }

    #[test]
    fn reordered_session_matches_sequential_in_both_modes() {
        // NYSE-small timestamps advance in fixed steps; reversing chunks of
        // four bounds the disorder by three steps, within max_delay.
        let (query, events) = fixture(1500, 17);
        let step = events[1].ts() - events[0].ts();
        let mut shuffled = events.clone();
        for chunk in shuffled.chunks_mut(4) {
            chunk.reverse();
        }
        let expected = run_sequential(&query, &events).complex_events;
        for threaded in [false, true] {
            let config = SpectreConfig::with_instances(2).with_reorder(3 * step);
            let report = session(&query, config, threaded)
                .run(shuffled.clone())
                .unwrap();
            assert_eq!(report.complex_events, expected);
            assert_eq!(report.input_events, 1500);
            assert_eq!(report.metrics.late_events_dropped, 0);
            assert!(report.metrics.events_reordered > 0);
            assert!(report.metrics.watermarks_advanced > 0);
        }
    }

    #[test]
    fn punctuated_stream_holds_events_until_the_watermark() {
        let (query, events) = fixture(600, 17);
        let config = SpectreConfig::with_instances(1);
        let reorder = crate::reorder::ReorderConfig::bounded(0)
            .with_watermark(crate::reorder::WatermarkPolicy::Punctuated)
            .with_capacity(1024);
        let expected = run_sequential(&query, &events).complex_events;
        let mut engine = session(
            &query,
            SpectreConfig {
                reorder: Some(reorder),
                ..config
            },
            false,
        );
        engine.ingest(events[..500].to_vec()).unwrap();
        assert_eq!(
            engine.events_ingested(),
            0,
            "without a punctuation nothing may pass the reorder stage"
        );
        engine.advance_watermark(events[499].ts()).unwrap();
        engine.try_drain_outputs().unwrap(); // run a maintenance round
        assert!(engine.events_ingested() > 0);
        engine.ingest(events[500..].to_vec()).unwrap();
        let report = engine.try_finish().unwrap(); // final watermark releases the rest
        assert_eq!(report.complex_events, expected);
        assert_eq!(report.input_events, 600);
    }

    #[test]
    fn reorder_buffer_backpressure_hands_the_event_back() {
        let (query, events) = fixture(32, 7);
        let reorder = crate::reorder::ReorderConfig::bounded(0)
            .with_watermark(crate::reorder::WatermarkPolicy::Punctuated)
            .with_capacity(4);
        let mut engine = session(
            &query,
            SpectreConfig {
                reorder: Some(reorder),
                ..SpectreConfig::with_instances(1)
            },
            false,
        );
        let mut accepted = 0usize;
        let mut rejected = None;
        for event in events {
            match engine.try_push(event).unwrap() {
                PushResult::Accepted => accepted += 1,
                PushResult::Full(back) => {
                    rejected = Some(back);
                    break;
                }
            }
        }
        assert_eq!(accepted, 4, "a 4-slot buffer accepts exactly 4 events");
        let back = rejected.expect("the fifth push must be rejected");
        // A watermark at the rejected event's own timestamp unblocks the
        // stream without making the re-offer late, so nothing is lost.
        engine.advance_watermark(back.ts()).unwrap();
        assert!(matches!(
            engine.try_push(back).unwrap(),
            PushResult::Accepted
        ));
        let report = engine.try_finish().unwrap();
        assert_eq!(report.input_events, 5);
    }

    #[test]
    fn empty_session_finishes_cleanly_in_both_modes() {
        let (query, _) = fixture(1, 1);
        for threaded in [false, true] {
            let mut engine = session(&query, SpectreConfig::with_instances(2), threaded);
            let report = engine.try_finish().unwrap();
            assert!(report.complex_events.is_empty());
            assert_eq!(report.input_events, 0);
        }
    }

    #[test]
    fn dropping_an_unfinished_threaded_session_joins_workers() {
        let (query, events) = fixture(300, 31);
        let mut engine = session(&query, SpectreConfig::with_instances(2), true);
        engine.ingest(events).unwrap();
        drop(engine); // must not hang or leave threads spinning
    }

    #[test]
    fn finished_session_surfaces_errors_instead_of_panicking() {
        let (query, events) = fixture(200, 41);
        let mut engine = session(&query, SpectreConfig::with_instances(1), false);
        engine.ingest(events.clone()).unwrap();
        let report = engine.try_finish().expect("first finish succeeds");
        assert_eq!(report.input_events, 200);
        assert_eq!(report.queries.len(), 1);
        let q0 = &report.queries[&QueryId(0)];
        assert_eq!(q0.complex_events, report.complex_events);
        // Every further session call reports the misuse as a value.
        assert_eq!(
            engine.try_finish().unwrap_err(),
            EngineError::SessionFinished
        );
        assert_eq!(
            engine.try_push(events[0].clone()).unwrap_err(),
            EngineError::SessionFinished
        );
        assert_eq!(
            engine.try_drain_outputs().unwrap_err(),
            EngineError::SessionFinished
        );
        assert_eq!(
            engine.deploy_query(&query).unwrap_err(),
            EngineError::SessionFinished
        );
        assert_eq!(
            engine.retire_query(QueryId(0)).unwrap_err(),
            EngineError::SessionFinished
        );
    }

    #[test]
    fn finished_session_rejects_watermarks_ingest_and_run() {
        // A finished session is an error for these three as for every
        // other session call — ingest of an empty source included.
        let (query, events) = fixture(200, 41);
        let reorder = crate::reorder::ReorderConfig::bounded(0)
            .with_watermark(crate::reorder::WatermarkPolicy::Punctuated);
        let mut engine = session(
            &query,
            SpectreConfig {
                reorder: Some(reorder),
                ..SpectreConfig::with_instances(1)
            },
            false,
        );
        engine.ingest(events.clone()).unwrap();
        engine.try_finish().unwrap();
        assert_eq!(
            engine.advance_watermark(events[0].ts()),
            Err(EngineError::SessionFinished)
        );
        assert_eq!(
            engine.ingest(events.clone()),
            Err(EngineError::SessionFinished)
        );
        assert_eq!(engine.ingest(None), Err(EngineError::SessionFinished));
        assert_eq!(
            engine.run(events).unwrap_err(),
            EngineError::SessionFinished
        );
    }

    #[test]
    fn retiring_an_unknown_query_is_an_error() {
        let (query, _) = fixture(1, 1);
        let mut engine = session(&query, SpectreConfig::with_instances(1), false);
        assert_eq!(
            engine.retire_query(QueryId(9)).unwrap_err(),
            EngineError::UnknownQuery(QueryId(9))
        );
        let drained = engine.retire_query(QueryId(0)).unwrap();
        assert!(drained.is_empty());
        // Ids are never reused: the retired id stays unknown.
        assert_eq!(
            engine.retire_query(QueryId(0)).unwrap_err(),
            EngineError::UnknownQuery(QueryId(0))
        );
        let report = engine.try_finish().unwrap();
        assert!(report.queries.is_empty());
    }

    #[test]
    fn maintain_and_report_summary_support_a_server_driver() {
        let (query, events) = fixture(400, 19);
        let mut engine = session(&query, SpectreConfig::with_instances(1), false);
        assert_eq!(engine.query_tenant(QueryId(0)), Some(TenantId::DEFAULT));
        assert_eq!(engine.query_tenant(QueryId(7)), None);
        assert!(!engine.is_finished());
        engine.ingest(events).unwrap();
        // Idle maintenance (no pushes) still makes engine progress.
        let before = engine.metrics().sched_cycles;
        for _ in 0..64 {
            engine.maintain().unwrap();
        }
        assert!(engine.metrics().sched_cycles >= before);
        let report = engine.try_finish().unwrap();
        assert!(engine.is_finished());
        assert_eq!(engine.maintain().unwrap_err(), EngineError::SessionFinished);
        let json = report.summary_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"input_events\":400"), "{json}");
        assert!(
            json.contains("\"queries\":[{\"query\":0,\"tenant\":0,"),
            "{json}"
        );
    }

    #[test]
    fn live_metrics_reflect_progress() {
        let (query, events) = fixture(800, 37);
        let mut engine = session(&query, SpectreConfig::with_instances(2), false);
        engine.ingest(events).unwrap();
        let mid = engine.metrics();
        assert!(mid.sched_cycles > 0, "cycles ran during ingestion");
        let report = engine.try_finish().unwrap();
        assert!(report.metrics.sched_cycles >= mid.sched_cycles);
        assert!(report.metrics.windows_retired > 0);
    }
}
