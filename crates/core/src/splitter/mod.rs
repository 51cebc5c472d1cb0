//! The splitter: ingestion, dependency-tree maintenance, completion-
//! probability prediction, top-k selection and scheduling (paper §3.2).
//!
//! One maintenance cycle performs, in order (paper §4.2.1's "cycle"):
//! (a) apply all buffered dependency-tree updates from the instances
//! (drained in one batch and routed to the owning query), (b) feed each
//! query's Markov model, (c) ingest input events in place from the
//! [`EventBatch`] chunks the feed sealed them into (opening and closing
//! windows, flushing each chunk run with one write per touched window
//! buffer), (d) retire finished,
//! confirmed root versions per query — emitting their buffered complex
//! events in window order — and (e) select and schedule the top-k window
//! versions across all queries.
//!
//! A query without a consumption policy skips the tree and the predictor:
//! its windows are cells of its [`Lane`](crate::shared::Lane), which
//! instances claim themselves, and (d) pops the done ones in order.
//!
//! # Multi-query sessions
//!
//! The splitter hosts any number of concurrently deployed queries over the
//! one shared feed, window buffers and instance pool. The split of state is strict:
//!
//! * **Per query** (`QueryState`, keyed by [`QueryId`]): window assigner
//!   membership, dependency tree and completion predictor (or lane),
//!   live-window bookkeeping, running window-size average, metric
//!   counters and committed outputs.
//! * **Shared** (the splitter and [`SharedState`]): the feed, the
//!   scheduling slots, the op/stats queues and the aggregate metrics.
//!
//! Queries whose `WindowSpec`s compare equal share a `SpecGroup`: one
//! assigner drives their (identical) window boundaries, and each window's
//! events are buffered **once**, in a [`WindowBuf`] the group creates
//! when the window opens, while every member query gets its own
//! [`WindowInfo`](crate::store::WindowInfo) cell (query-local `id`, shared
//! buffer). Deploying a query mid-stream subscribes it to windows from the
//! next boundary on; retiring one drops its versions, releases its window
//! subscriptions (a buffer frees its events when its last subscriber goes)
//! and leaves the other queries untouched.
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
//! * **Speculation** — a tenant's
//!   [`TenantQuota::max_versions`](crate::TenantQuota::max_versions) caps
//!   how many window versions its queries may materialize, so one
//!   speculative tenant cannot monopolize the shared version budget.
//! * **Ingestion filters** — each query derives a conservative
//!   [`EventFilter`](spectre_query::EventFilter) from its pattern at deploy
//!   time; windows whose events the filter all rejects are never attached
//!   to the query's tree
//!   (counted as `windows_skipped`), while the shared window buffers stay
//!   byte-identical for every other subscriber.
//!
//! The phases live in files of their own: `registry.rs` holds the tenants
//! and queries, deploy and retire, the metric rollups and phases (a) and
//! (b); `ingest.rs` phase (c), `retire.rs` (d) and `schedule.rs` (e).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use spectre_events::Event;
use spectre_query::window::WindowBounds;
use spectre_query::ComplexEvent;

use crate::config::SpectreConfig;
use crate::shared::{Grant, QueryId, SharedState, TenantId, TreeOp};
use crate::store::WindowBuf;

mod ingest;
mod registry;
mod retire;
mod schedule;

pub use ingest::EventBatch;
use ingest::SpecGroup;
use registry::{QueryState, TenantState};

/// The splitter's state; driven by [`cycle`](Splitter::cycle).
///
/// The splitter is *feed-driven*: it owns no input iterator. A session
/// (normally [`SpectreEngine`](crate::SpectreEngine)) pushes events into
/// the feed with [`feed`](Self::feed) and signals the end of the stream
/// explicitly with [`end_of_stream`](Self::end_of_stream); each
/// [`cycle`](Self::cycle) then ingests from the feed under the usual
/// per-cycle budget and speculative back-pressure. The feed is a staging
/// `Vec` that `feed` seals into an [`EventBatch`] chunk every
/// `batch_size` events, plus the queue of sealed chunks, which ingestion
/// reads in place from a cursor and windows share: each event is written
/// once, by `feed`. A feed that runs dry mid-stream simply pauses
/// ingestion — maintenance, retirement and scheduling keep running —
/// until more events arrive.
///
/// Queries are deployed and retired through
/// [`deploy_query`](Self::deploy_query) / [`retire_query`](Self::retire_query)
/// (see the [module docs](self) for the state split).
pub struct Splitter {
    config: SpectreConfig,
    shared: Arc<SharedState>,
    /// Fed events not yet sealed into a chunk (at most `batch_size`).
    staging: Vec<Event>,
    /// Sealed chunks not yet fully ingested, oldest first.
    chunks: VecDeque<Arc<EventBatch>>,
    /// Offset in the front chunk of the next event to ingest.
    cursor: usize,
    /// Events fed so far (`fed - next_pos` wait in the feed).
    fed: u64,
    /// `true` once the session signalled end-of-stream.
    eos: bool,
    /// Window-spec equivalence classes (shared assigners + window buffers).
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
    /// Buffers whose window closed since the last flush, with the ranges
    /// of the front chunk they own (distributed at flush).
    batch_closed: Vec<(Arc<WindowBuf>, std::ops::Range<usize>)>,
    /// Reusable buffer for per-event window closes.
    closed_buf: Vec<WindowBounds>,
    /// Reusable buffer for draining the shared op queue.
    ops_scratch: Vec<(QueryId, TreeOp)>,
    /// Next stream position to assign (= events ingested so far).
    next_pos: u64,
    /// `true` when a reorder stage feeds this splitter: the feed is then
    /// contractually timestamp-monotone (the window assigners and the
    /// warm-up window sizing assume it), and [`feed`](Self::feed) verifies
    /// the contract in debug builds.
    expect_monotone: bool,
    /// Timestamp of the last fed event (tracked only under
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
    /// published (and its watchers woken) when its grant changes.
    sched_shadow: Vec<Option<Grant>>,
    /// Reusable schedule order: (owning tenant, registry index) of every
    /// query, ascending — tenant id first, then deployment order.
    sched_order: Vec<(TenantId, usize)>,
    /// Reusable grant candidates of one schedule, ranked on probability.
    sched_cands: schedule::RankedNominations,
    /// Reusable per-slot "grant kept" flags of one schedule.
    sched_kept: Vec<bool>,
}

impl Splitter {
    /// Creates a splitter hosting no queries yet, with an empty feed.
    /// Deploy queries with [`deploy_query`](Self::deploy_query).
    ///
    /// # Panics
    ///
    /// Panics with [`SpectreConfig::try_validate`]'s message if the
    /// configuration is invalid.
    pub fn multi(config: SpectreConfig, shared: Arc<SharedState>) -> Self {
        if let Err(msg) = config.try_validate() {
            panic!("{msg}");
        }
        let staging = Vec::with_capacity(config.batch_size);
        let sched_shadow = (0..shared.instance_count()).map(|_| None).collect();
        Splitter {
            config,
            shared,
            staging,
            chunks: VecDeque::new(),
            cursor: 0,
            fed: 0,
            eos: false,
            groups: Vec::new(),
            queries: Vec::new(),
            query_index: HashMap::new(),
            tenants: Vec::new(),
            tenant_index: HashMap::new(),
            next_query: 0,
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
            sched_order: Vec::new(),
            sched_cands: Vec::new(),
            sched_kept: Vec::new(),
        }
    }

    /// Queues one event for ingestion by writing it into the staging
    /// chunk, which is sealed into a shared [`EventBatch`] once it holds
    /// `batch_size` events; windows later read the event where it was
    /// written. The event is not looked at until a [`cycle`](Self::cycle)
    /// ingests it under the per-cycle budget and the speculative
    /// back-pressure bound.
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
        self.staging.push(event);
        self.fed += 1;
        if self.staging.len() == self.config.batch_size {
            self.seal();
        }
    }

    /// Declares whether the feed is expected to be timestamp-monotone
    /// (set by the engine when a reorder stage is configured). In debug
    /// builds, [`feed`](Self::feed) then asserts the contract so a policy
    /// bug fails loudly instead of silently corrupting time windows.
    pub fn expect_monotone(&mut self, on: bool) {
        self.expect_monotone = on;
    }

    /// Signals that no further events will be fed. Idempotent. Once the
    /// feed drains, the next cycle closes the remaining windows and
    /// the run winds down to completion.
    pub fn end_of_stream(&mut self) {
        self.eos = true;
    }

    /// Number of fed events not yet ingested, staged or sealed (O(1)).
    pub fn feed_len(&self) -> usize {
        (self.fed - self.next_pos) as usize
    }

    /// Number of events ingested from the feed so far (the stream position
    /// of the next event). This is the authoritative input count: under
    /// streaming the total length is unknown up front, so reports take it
    /// from here at end of run.
    pub fn events_ingested(&self) -> u64 {
        self.next_pos
    }

    /// Takes the complex events committed since the last call, tagged with
    /// their query — the incremental output path of the engine session.
    /// Each query's subsequence is in its window order (detection order
    /// within a window).
    pub fn take_outputs(&mut self) -> Vec<(QueryId, ComplexEvent)> {
        std::mem::take(&mut self.outputs)
    }

    /// `true` if the last [`cycle`](Self::cycle) applied an op, ingested an
    /// event or retired a window. Threaded drivers yield when a cycle made
    /// no progress so operator instances are not starved of CPU time.
    pub fn made_progress(&self) -> bool {
        self.progress
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
            metrics.add_shared(&qs.metrics, |m| &m.versions_materialized, materialized);
            metrics.add_shared(&qs.metrics, |m| &m.lazy_versions_dropped, lazy_dropped);
            let discarded = qs.tree.take_cgs_discarded();
            metrics.add_shared(&qs.metrics, |m| &m.cgs_discarded, discarded);
            let size = qs.tree.version_count() as u64;
            qs.metrics.observe_tree_size(size);
            total_versions += size;
        }
        metrics.sched_cycles.fetch_add(1, Ordering::Relaxed);
        metrics.observe_tree_size(total_versions);
        let finished = self.ingest_done
            && self
                .queries
                .iter()
                .all(|q| q.tree.is_empty() && q.cells.is_empty());
        if finished {
            self.shared.done.store(true, Ordering::Release);
            self.shared.wake_all();
        } else {
            // Wake the parked workers this cycle gave work: a grant to run,
            // or events past a stalled worker's frontier.
            self.shared.wake_workers(&self.sched_shadow);
        }
        finished
    }
}

#[cfg(test)]
mod tests;
