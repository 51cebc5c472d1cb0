//! Operator-instance event processing (paper Fig. 8).
//!
//! Each instance repeatedly: checks its scheduling slot, fetches a *run* of
//! its current window version's next events from the sharded window store
//! (up to [`SpectreConfig::batch_size`](crate::SpectreConfig::batch_size)
//! under one shard-lock acquisition), and processes the run while holding
//! the version lock once: each event is suppressed if an assumed-completed
//! consumption group contains it, otherwise fed to the version's pattern
//! detector, with the feedback translated into consumption-group updates
//! and dependency-tree operations. The tree operations are buffered locally
//! and flushed to the shared queue in one `push_many` per step, *before*
//! the version lock is released: the splitter may move a version to
//! another instance at any step boundary, and the lock is what keeps the
//! queue's order of one version's ops equal to the order of its
//! processing. Periodic consistency checks (still per event) detect late
//! consumption-group updates and roll the version back.
//!
//! Scheduling granularity is the step: a slot change or version drop takes
//! effect at the next step (drops are additionally honoured between the
//! events of a run), so a larger batch size trades scheduling latency for
//! amortized lock and queue traffic. The output is identical for every
//! batch size.
//!
//! Each step works on the slot's scheduled *head* while the head can make
//! progress. When the head is finished, absent or stalled on ingestion,
//! the step instead takes the front of the slot's run-ahead FIFO (see
//! [`SlotCell`](crate::shared::SlotCell)): final versions of
//! consumption-free queries the splitter queued there, which the instance
//! works through on its own — a finished window no longer waits for the
//! next splitter cycle to be replaced. The head is re-checked first at
//! every step, so it resumes as soon as it has events again.
//!
//! Instances are oblivious to lazy branch materialization: the splitter's
//! top-k selection materializes an unmaterialized completion branch
//! *before* writing it to a scheduling slot, so a slot only ever holds a
//! fully materialized [`VersionState`]. A late clone that inherited
//! processing the new suppression invalidates is caught here by the same
//! periodic consistency check that catches late group updates.

use std::sync::Arc;

use spectre_events::Event;
use spectre_query::{DetectorAction, MatchId, SelectionPolicy};

use crate::cg::CgCell;
use crate::metrics::Metrics;
use crate::shared::{QueryId, SharedState, StatsBatch, TreeOp};
use crate::store::{EventRun, WindowBuf};
use crate::version::{VersionInner, VersionState};

/// Outcome of one instance step (used by the drivers for accounting and
/// back-off decisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An event was processed (or suppressed) — useful work.
    Worked,
    /// The current version finished its window.
    Finished,
    /// No version scheduled, or the scheduled version is finished/dropped.
    Idle,
    /// The version's next event has not been ingested yet.
    Stalled,
    /// A consistency violation was detected; the version was reset.
    RolledBack,
}

/// One operator instance's local state.
#[derive(Debug)]
pub struct InstanceCore {
    index: usize,
    check_freq: u32,
    batch: usize,
    current: Option<Arc<VersionState>>,
    /// The run-ahead version being worked through: the front of this
    /// instance's FIFO, cached so the FIFO lock is taken only when the
    /// front changes.
    ahead: Option<Arc<VersionState>>,
    /// Last observed publication sequence of this instance's scheduling
    /// slot; lets the per-step pickup skip the slot lock while the
    /// assignment is unchanged (see [`SlotCell`](crate::shared::SlotCell)).
    slot_seq: u64,
    actions: Vec<DetectorAction>,
    stats: Vec<(u32, u32)>,
    /// Query whose versions produced the buffered `stats` (one batch never
    /// mixes queries; a version of another query forces a flush first).
    stats_query: Option<QueryId>,
    ops_buf: Vec<(QueryId, TreeOp)>,
    fetch: Vec<EventRun>,
    run_processed: u64,
    run_suppressed: u64,
    /// Per-query counters of the version the run counters belong to.
    run_qmetrics: Option<Arc<Metrics>>,
    /// The scheduled window's store buffer, cached by `store_id` across
    /// steps so the run-read path skips the store's shard-map lookup.
    /// Cleared whenever the assignment changes or goes idle, so a retired
    /// window's buffer is not pinned while the instance waits.
    run_buf: Option<(u64, Arc<WindowBuf>)>,
    /// [`run_buf`](Self::run_buf)'s counterpart for the run-ahead version,
    /// so alternating between head and FIFO front keeps both cached.
    ahead_buf: Option<(u64, Arc<WindowBuf>)>,
}

impl InstanceCore {
    /// Creates the instance for scheduling slot `index`, processing one
    /// event per step (see [`with_batch`](Self::with_batch)).
    pub fn new(index: usize, check_freq: u32) -> Self {
        assert!(check_freq > 0, "check frequency must be positive");
        InstanceCore {
            index,
            check_freq,
            batch: 1,
            current: None,
            ahead: None,
            slot_seq: 0,
            actions: Vec::new(),
            stats: Vec::new(),
            stats_query: None,
            ops_buf: Vec::new(),
            fetch: Vec::new(),
            run_processed: 0,
            run_suppressed: 0,
            run_qmetrics: None,
            run_buf: None,
            ahead_buf: None,
        }
    }

    /// Sets the maximum events processed per [`step`](Self::step) (the
    /// consume side of the batched hand-off,
    /// [`SpectreConfig::batch_size`](crate::SpectreConfig::batch_size)).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        self.batch = batch;
        self
    }

    /// The instance's slot index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Performs one processing step — up to [`with_batch`](Self::with_batch)
    /// events of the scheduled window version (or, when it cannot progress,
    /// of the run-ahead FIFO's front), fetched as one run and processed
    /// under one version-lock acquisition — per paper Fig. 8.
    pub fn step(&mut self, shared: &SharedState) -> StepOutcome {
        let outcome = self.step_inner(shared);
        match outcome {
            StepOutcome::Idle => shared.metrics.add_idle_step(self.index),
            StepOutcome::Stalled => shared.metrics.add_stalled_step(self.index),
            _ => {}
        }
        self.flush_run_counters(shared);
        outcome
    }

    /// Publishes the run's event counters with one atomic update each
    /// (amortizing per-event metric traffic over the batch), routed to this
    /// worker's cache-padded counter block.
    fn flush_run_counters(&mut self, shared: &SharedState) {
        let qmetrics = self.run_qmetrics.take();
        if self.run_processed > 0 {
            shared
                .metrics
                .add_events_processed(self.index, self.run_processed);
            if let Some(qm) = &qmetrics {
                qm.add_events_processed(self.index, self.run_processed);
            }
            self.run_processed = 0;
        }
        if self.run_suppressed > 0 {
            shared
                .metrics
                .add_events_suppressed(self.index, self.run_suppressed);
            if let Some(qm) = &qmetrics {
                qm.add_events_suppressed(self.index, self.run_suppressed);
            }
            self.run_suppressed = 0;
        }
    }

    fn step_inner(&mut self, shared: &SharedState) -> StepOutcome {
        // Pick up a scheduling change (Fig. 8 lines 7–9). Seq-gated: while
        // the splitter hasn't republished this slot, the check is a single
        // atomic load and the lock is never touched.
        if let Some(update) = shared.slots[self.index].observe(&mut self.slot_seq) {
            self.current = update;
            self.run_buf = None;
        }
        // The head goes first while it can make progress. It is taken out
        // of `current` for the step rather than cloned, so a stalled step
        // writes to no reference count the splitter shares.
        let head = match self.current.take() {
            Some(wv) if !wv.is_dropped() && !wv.is_finished() => {
                let outcome = self.process(&wv, false, shared);
                self.current = Some(wv);
                match outcome {
                    StepOutcome::Idle | StepOutcome::Stalled => outcome,
                    _ => return outcome,
                }
            }
            other => {
                self.current = other;
                self.run_buf = None;
                StepOutcome::Idle
            }
        };
        // Head finished, absent or stalled: run ahead on the FIFO front.
        let Some(wv) = self.ahead_version(shared) else {
            return head;
        };
        let outcome = self.process(&wv, true, shared);
        if outcome == StepOutcome::Finished {
            // The head may keep this instance busy for a while; do not pin
            // the finished window's buffer meanwhile.
            self.ahead_buf = None;
        }
        outcome
    }

    /// The run-ahead version to work on: the cached FIFO front while it is
    /// live, else the slot's next live front (counted as a version run
    /// ahead). Lock-free while the FIFO is empty.
    fn ahead_version(&mut self, shared: &SharedState) -> Option<Arc<VersionState>> {
        if let Some(wv) = &self.ahead {
            if !wv.is_finished() && !wv.is_dropped() {
                return Some(Arc::clone(wv));
            }
            self.ahead = None;
            self.ahead_buf = None;
        }
        let wv = shared.slots[self.index].ahead_front()?;
        shared.metrics.add_version_run_ahead(self.index);
        wv.query_metrics().add_version_run_ahead(self.index);
        self.ahead = Some(Arc::clone(&wv));
        Some(wv)
    }

    /// Processes the next run of `wv` — the head, or with `ahead` the
    /// run-ahead version, each with its own cached store buffer.
    fn process(
        &mut self,
        wv: &Arc<VersionState>,
        ahead: bool,
        shared: &SharedState,
    ) -> StepOutcome {
        let window = wv.window();
        let mut inner = wv.lock();
        // Re-checked under the version lock (which `finish` holds): a
        // version another instance finished meanwhile is never finished
        // twice.
        if wv.is_finished() {
            return StepOutcome::Idle;
        }

        // Window end already reached?
        if let Some(end) = window.end_pos() {
            if window.start_pos + inner.pos >= end {
                self.finish(wv, &mut inner, shared);
                return StepOutcome::Finished;
            }
        }

        // Fetch the next run under one window-buffer lock acquisition,
        // through the cached buffer handle when the instance is still on
        // the same window. The per-window buffer only ever holds the
        // window's own events, so the run can never overshoot the window
        // end.
        let cache = if ahead {
            &mut self.ahead_buf
        } else {
            &mut self.run_buf
        };
        let buf = match cache {
            Some((id, buf)) if *id == window.store_id => buf,
            _ => match shared.store.window_buf(window.store_id) {
                Some(buf) => &cache.insert((window.store_id, buf)).1,
                None => {
                    // Unknown buffer: the window is racing retirement; the
                    // dropped flag resolves it at a later step.
                    return StepOutcome::Stalled;
                }
            },
        };
        self.fetch.clear();
        let n = buf.read_run(inner.pos, self.batch, &mut self.fetch);
        if n == 0 {
            // Not yet ingested (or the window is racing retirement, which a
            // later step resolves via the dropped flag): stall.
            return StepOutcome::Stalled;
        }
        self.run_qmetrics = Some(Arc::clone(wv.query_metrics()));
        let runs = std::mem::take(&mut self.fetch);
        let mut inconsistent = false;
        'runs: for run in &runs {
            for ev in run.events() {
                // A drop mid-run aborts the rest: the splitter discarded
                // this version, further work on it would be wasted.
                if wv.is_dropped() {
                    break 'runs;
                }
                if !self.process_event(wv, &mut inner, shared, ev) {
                    inconsistent = true;
                    break 'runs;
                }
            }
        }
        // Reclaim the vec's allocation but drop the runs now: holding them
        // across steps would pin their batches (and every event in them)
        // while the instance sits idle or unscheduled.
        self.fetch = runs;
        self.fetch.clear();
        let outcome = if inconsistent {
            self.rollback(wv, &mut inner, shared);
            StepOutcome::RolledBack
        } else if window
            .end_pos()
            .is_some_and(|end| window.start_pos + inner.pos >= end)
        {
            // The run consumed the window's last event.
            self.finish(wv, &mut inner, shared);
            StepOutcome::Finished
        } else {
            StepOutcome::Worked
        };
        // Still under the version lock (see the module docs).
        self.flush_ops(shared);
        outcome
    }

    /// Processes one event of `wv` (suppression, detection, consumption
    /// groups, statistics, consistency check). Returns
    /// `false` when a consistency violation demands a rollback.
    fn process_event(
        &mut self,
        wv: &Arc<VersionState>,
        inner: &mut VersionInner,
        shared: &SharedState,
        ev: &Event,
    ) -> bool {
        inner.pos += 1;

        // Suppression (Fig. 8 line 13).
        let suppressed = wv.suppressed().iter().any(|cg| cg.contains(ev.seq()));
        if suppressed {
            inner.detector.on_suppressed();
            self.run_suppressed += 1;
        } else {
            let prev_delta = inner.open_cgs.first().map(|(_, cg)| cg.delta());
            let max_delta = wv.query().pattern().max_delta();

            debug_assert!(
                inner.used.last().is_none_or(|&last| last < ev.seq()),
                "input stream must be seq-ordered"
            );
            inner.used.push(ev.seq());
            self.actions.clear();
            let mut actions = std::mem::take(&mut self.actions);
            inner.detector.on_event(ev, &mut actions);
            let consuming = !wv.query().consumption().is_none();
            let mut abandoned_any = false;
            let mut started_any = false;
            for action in actions.drain(..) {
                match action {
                    DetectorAction::MatchStarted { match_id } => {
                        started_any = true;
                        if consuming {
                            self.create_cg(wv, inner, shared, match_id, max_delta);
                        }
                    }
                    DetectorAction::EventAdded {
                        match_id,
                        seq,
                        consumable,
                        delta,
                    } => {
                        if !consuming {
                            continue;
                        }
                        // EachLast: a completed match keeps matching; its
                        // next event opens a new consumption group.
                        if let Some(i) = inner.needs_new_cg.iter().position(|m| *m == match_id) {
                            inner.needs_new_cg.swap_remove(i);
                            self.create_cg(wv, inner, shared, match_id, delta);
                        }
                        if let Some((_, cg)) = inner.open_cgs.iter().find(|(m, _)| *m == match_id) {
                            if consumable {
                                cg.add_event(seq, delta, inner.pos);
                            } else {
                                cg.touch(delta, inner.pos);
                            }
                        }
                    }
                    DetectorAction::Completed {
                        match_id, complex, ..
                    } => {
                        inner.outputs.push(complex);
                        if !consuming {
                            continue;
                        }
                        if let Some(i) = inner.open_cgs.iter().position(|(m, _)| *m == match_id) {
                            let (_, cg) = inner.open_cgs.swap_remove(i);
                            cg.complete();
                            self.ops_buf.push((
                                wv.query_id(),
                                TreeOp::CgResolved {
                                    cg: cg.id(),
                                    completed: true,
                                },
                            ));
                            shared
                                .metrics
                                .add_shared(wv.query_metrics(), |m| &m.cgs_completed, 1);
                            // Remember the completion: a rollback revokes
                            // it from the dependency tree.
                            inner.completed_cells.push(cg);
                        }
                        if wv.query().selection() == SelectionPolicy::EachLast {
                            inner.needs_new_cg.push(match_id);
                        }
                    }
                    DetectorAction::Abandoned { match_id } => {
                        abandoned_any = true;
                        if !consuming {
                            continue;
                        }
                        if let Some(i) = inner.open_cgs.iter().position(|(m, _)| *m == match_id) {
                            let (_, cg) = inner.open_cgs.swap_remove(i);
                            cg.abandon();
                            self.ops_buf.push((
                                wv.query_id(),
                                TreeOp::CgResolved {
                                    cg: cg.id(),
                                    completed: false,
                                },
                            ));
                            shared
                                .metrics
                                .add_shared(wv.query_metrics(), |m| &m.cgs_abandoned, 1);
                        }
                        if let Some(i) = inner.needs_new_cg.iter().position(|m| *m == match_id) {
                            inner.needs_new_cg.swap_remove(i);
                        }
                    }
                }
            }
            self.actions = actions;

            // Markov statistics: observed δ transition of this event, taken
            // from non-speculative versions only (paper §3.2.1: statistics
            // are gathered by versions of independent windows — a
            // creation-time property, see `VersionState::stats_eligible`).
            if wv.stats_eligible() && !abandoned_any {
                let qid = wv.query_id();
                let new_delta = inner.open_cgs.first().map(|(_, cg)| cg.delta());
                match (prev_delta, new_delta) {
                    (Some(from), Some(to)) => self.record(shared, qid, from, to),
                    (Some(from), None) => self.record(shared, qid, from, 0), // completed
                    (None, Some(to)) if started_any => self.record(shared, qid, max_delta, to),
                    _ => {}
                }
            }
            self.run_processed += 1;
        }

        // Periodic consistency check (Fig. 8 lines 31–45).
        inner.steps_since_check += 1;
        if inner.steps_since_check >= self.check_freq {
            inner.steps_since_check = 0;
            if !consistency_check(wv, inner) {
                return false;
            }
        }
        true
    }

    fn create_cg(
        &mut self,
        wv: &Arc<VersionState>,
        inner: &mut VersionInner,
        shared: &SharedState,
        match_id: MatchId,
        initial_delta: usize,
    ) {
        let cell = Arc::new(CgCell::new(
            shared.alloc_cg_id(),
            wv.window().id,
            initial_delta,
        ));
        inner.open_cgs.push((match_id, Arc::clone(&cell)));
        self.ops_buf.push((
            wv.query_id(),
            TreeOp::CgCreated {
                creator: wv.id(),
                cell,
            },
        ));
        shared
            .metrics
            .add_shared(wv.query_metrics(), |m| &m.cgs_created, 1);
    }

    fn record(&mut self, shared: &SharedState, qid: QueryId, from: usize, to: usize) {
        if self.stats_query != Some(qid) {
            self.flush_stats(shared);
            self.stats_query = Some(qid);
        }
        self.stats
            .push((from.min(u32::MAX as usize) as u32, to as u32));
        if self.stats.len() >= 256 {
            self.flush_stats(shared);
        }
    }

    /// Flushes buffered Markov observations.
    pub fn flush_stats(&mut self, shared: &SharedState) {
        if !self.stats.is_empty() {
            let qid = self.stats_query.expect("buffered stats have an owner");
            shared.stats.push((
                qid,
                StatsBatch {
                    transitions: std::mem::take(&mut self.stats),
                },
            ));
        }
    }

    /// Flushes buffered dependency-tree operations to the shared queue in
    /// one lock acquisition, preserving their order. Called with the
    /// version lock held, so one version's ops reach the queue in
    /// processing order whichever instances ran it — what retirement acks
    /// rely on.
    fn flush_ops(&mut self, shared: &SharedState) {
        if !self.ops_buf.is_empty() {
            shared.ops.push_many(self.ops_buf.drain(..));
        }
    }

    fn finish(&mut self, wv: &Arc<VersionState>, inner: &mut VersionInner, shared: &SharedState) {
        self.actions.clear();
        let mut actions = std::mem::take(&mut self.actions);
        inner.detector.on_window_end(&mut actions);
        for action in actions.drain(..) {
            if let DetectorAction::Abandoned { match_id } = action {
                if let Some(i) = inner.open_cgs.iter().position(|(m, _)| *m == match_id) {
                    let (_, cg) = inner.open_cgs.swap_remove(i);
                    cg.abandon();
                    self.ops_buf.push((
                        wv.query_id(),
                        TreeOp::CgResolved {
                            cg: cg.id(),
                            completed: false,
                        },
                    ));
                    shared
                        .metrics
                        .add_shared(wv.query_metrics(), |m| &m.cgs_abandoned, 1);
                }
            }
        }
        self.actions = actions;
        // Defensive: no group may stay open past its window (paper §3.1).
        for (_, cg) in inner.open_cgs.drain(..) {
            cg.abandon();
            self.ops_buf.push((
                wv.query_id(),
                TreeOp::CgResolved {
                    cg: cg.id(),
                    completed: false,
                },
            ));
        }
        inner.needs_new_cg.clear();
        wv.mark_finished();
        self.ops_buf
            .push((wv.query_id(), TreeOp::WvFinished { wv: wv.id() }));
        self.flush_ops(shared);
        self.flush_stats(shared);
    }

    fn rollback(&mut self, wv: &Arc<VersionState>, inner: &mut VersionInner, shared: &SharedState) {
        shared
            .metrics
            .add_shared(wv.query_metrics(), |m| &m.rollbacks, 1);
        let revoked = wv.rollback_locked(inner);
        self.ops_buf.push((
            wv.query_id(),
            TreeOp::WvRolledBack {
                wv: wv.id(),
                revoked,
            },
        ));
    }
}

/// The consistency check of paper Fig. 8 (lines 31–45): for every suppressed
/// group whose event set changed since the last check, verify none of its
/// events were erroneously processed. Returns `false` on inconsistency.
fn consistency_check(wv: &VersionState, inner: &mut VersionInner) -> bool {
    for (i, cg) in wv.suppressed().iter().enumerate() {
        let version = cg.version();
        if version != inner.seen_versions[i] {
            if cg.intersects_sorted(&inner.used) {
                return false;
            }
            inner.seen_versions[i] = version;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::CgId;
    use crate::store::WindowInfo;
    use crate::version::WvId;
    use spectre_events::{AttrKey, Event, EventType, Seq};
    use spectre_query::{ConsumptionPolicy, Expr, Pattern, Query, WindowSpec};

    fn query(consumption: ConsumptionPolicy) -> Arc<Query> {
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
                .window(WindowSpec::count_sliding(4, 4).unwrap())
                .consumption(consumption)
                .build()
                .unwrap(),
        )
    }

    fn ev(seq: Seq, x: f64) -> Event {
        Event::builder(EventType::new(0))
            .seq(seq)
            .ts(seq)
            .attr(AttrKey::new(0), x)
            .build()
    }

    fn setup(
        consumption: ConsumptionPolicy,
        events: &[Event],
        suppressed: Vec<Arc<CgCell>>,
    ) -> (Arc<SharedState>, Arc<VersionState>, InstanceCore) {
        let shared = SharedState::new(1);
        let mut batch = crate::splitter::EventBatch::with_capacity(0, events.len());
        for e in events {
            batch.push(e.clone());
        }
        let n = batch.len();
        shared.store.open_window(0, 0);
        shared.store.extend(0, &Arc::new(batch), 0..n);
        shared
            .ingested
            .store(events.len() as u64, std::sync::atomic::Ordering::Release);
        let window = Arc::new(WindowInfo::new(0, 0, 0, 0));
        window.set_end_pos(events.len() as u64);
        let wv = VersionState::new(WvId(0), window, query(consumption), suppressed);
        shared.slots[0].publish(Some(Arc::clone(&wv)));
        let inst = InstanceCore::new(0, 2);
        (shared, wv, inst)
    }

    #[test]
    fn processes_window_and_buffers_outputs() {
        let events = [ev(0, 1.0), ev(1, 9.0), ev(2, 2.0), ev(3, 9.0)];
        let (shared, wv, mut inst) = setup(ConsumptionPolicy::All, &events, vec![]);
        for _ in 0..3 {
            assert_eq!(inst.step(&shared), StepOutcome::Worked);
        }
        // The step that consumes the window's last event finishes it.
        assert_eq!(inst.step(&shared), StepOutcome::Finished);
        assert!(wv.is_finished());
        let inner = wv.lock();
        assert_eq!(inner.outputs.len(), 1);
        assert_eq!(inner.outputs[0].constituents, vec![0, 2]);
        // CG created and completed
        let snap = shared.metrics.snapshot();
        assert_eq!(snap.cgs_created, 1);
        assert_eq!(snap.cgs_completed, 1);
        assert_eq!(snap.events_processed, 4);
    }

    #[test]
    fn finished_version_goes_idle() {
        let events = [ev(0, 9.0)];
        let (shared, _wv, mut inst) = setup(ConsumptionPolicy::All, &events, vec![]);
        assert_eq!(inst.step(&shared), StepOutcome::Finished);
        assert_eq!(inst.step(&shared), StepOutcome::Idle);
    }

    #[test]
    fn empty_slot_is_idle() {
        let shared = SharedState::new(1);
        let mut inst = InstanceCore::new(0, 4);
        assert_eq!(inst.step(&shared), StepOutcome::Idle);
        assert_eq!(shared.metrics.snapshot().idle_steps, 1);
    }

    #[test]
    fn stalls_until_ingested() {
        // Build the version by hand with an *empty* window buffer: the
        // instance must stall until the splitter flushes events into it.
        let shared = SharedState::new(1);
        shared.store.open_window(0, 0);
        let window = Arc::new(WindowInfo::new(0, 0, 0, 0));
        window.set_end_pos(1);
        let wv = VersionState::new(WvId(0), window, query(ConsumptionPolicy::All), vec![]);
        shared.slots[0].publish(Some(Arc::clone(&wv)));
        let mut inst = InstanceCore::new(0, 2);
        assert_eq!(inst.step(&shared), StepOutcome::Stalled);
        let mut batch = crate::splitter::EventBatch::with_capacity(0, 1);
        batch.push(ev(0, 1.0));
        shared.store.extend(0, &Arc::new(batch), 0..1);
        assert_eq!(inst.step(&shared), StepOutcome::Finished);
    }

    #[test]
    fn suppressed_events_are_skipped() {
        // Suppress event 0 (the A): no match can start on it.
        let cg = Arc::new(CgCell::new(CgId(99), 0, 1));
        cg.add_event(0, 1, 0);
        let events = [ev(0, 1.0), ev(1, 2.0)];
        let (shared, wv, mut inst) = setup(ConsumptionPolicy::All, &events, vec![Arc::clone(&cg)]);
        inst.step(&shared);
        inst.step(&shared);
        inst.step(&shared);
        assert!(wv.is_finished());
        assert!(wv.lock().outputs.is_empty());
        let snap = shared.metrics.snapshot();
        assert_eq!(snap.events_suppressed, 1);
        assert_eq!(snap.events_processed, 1);
    }

    #[test]
    fn late_cg_update_triggers_rollback() {
        let cg = Arc::new(CgCell::new(CgId(99), 0, 1));
        let events = [ev(0, 1.0), ev(1, 9.0), ev(2, 2.0), ev(3, 9.0)];
        let (shared, wv, mut inst) = setup(ConsumptionPolicy::All, &events, vec![Arc::clone(&cg)]);
        // process events 0 and 1 (check_freq = 2 → check after step 2, no
        // violation yet)
        assert_eq!(inst.step(&shared), StepOutcome::Worked);
        assert_eq!(inst.step(&shared), StepOutcome::Worked);
        // the suppressed group *now* receives already-processed event 0
        cg.add_event(0, 0, 0);
        assert_eq!(inst.step(&shared), StepOutcome::Worked);
        // next check (after step 4) detects the violation
        let out = inst.step(&shared);
        assert_eq!(out, StepOutcome::RolledBack);
        assert_eq!(shared.metrics.snapshot().rollbacks, 1);
        // version reset to the start
        let inner = wv.lock();
        assert_eq!(inner.pos, 0);
        assert!(inner.used.is_empty());
        // and the splitter was told
        let mut saw_rollback_op = false;
        while let Some((qid, op)) = shared.ops.pop() {
            assert_eq!(qid, QueryId(0));
            if matches!(op, TreeOp::WvRolledBack { wv: w, .. } if w == WvId(0)) {
                saw_rollback_op = true;
            }
        }
        assert!(saw_rollback_op);
    }

    #[test]
    fn rollback_reprocesses_correctly() {
        let cg = Arc::new(CgCell::new(CgId(99), 0, 1));
        let events = [ev(0, 1.0), ev(1, 1.0), ev(2, 2.0), ev(3, 9.0)];
        let (shared, wv, mut inst) = setup(ConsumptionPolicy::All, &events, vec![Arc::clone(&cg)]);
        inst.step(&shared);
        inst.step(&shared);
        // suppress event 0 after it was processed → rollback at next check
        cg.add_event(0, 0, 0);
        let mut rolled = false;
        for _ in 0..12 {
            if inst.step(&shared) == StepOutcome::RolledBack {
                rolled = true;
                break;
            }
        }
        assert!(rolled);
        // reprocess: event 0 now suppressed; match starts at event 1 instead
        loop {
            match inst.step(&shared) {
                StepOutcome::Finished => break,
                StepOutcome::Worked => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        {
            let inner = wv.lock();
            assert_eq!(inner.outputs.len(), 1);
            assert_eq!(inner.outputs[0].constituents, vec![1, 2]);
        }
        // Note: is_consistent locks the version state internally, so the
        // guard above must be released first.
        assert!(wv.is_consistent());
    }

    #[test]
    fn window_end_abandons_open_groups() {
        let events = [ev(0, 1.0), ev(1, 9.0)];
        let (shared, wv, mut inst) = setup(ConsumptionPolicy::All, &events, vec![]);
        inst.step(&shared);
        assert_eq!(inst.step(&shared), StepOutcome::Finished);
        assert!(wv.lock().open_cgs.is_empty());
        let snap = shared.metrics.snapshot();
        assert_eq!(snap.cgs_created, 1);
        assert_eq!(snap.cgs_abandoned, 1);
    }

    #[test]
    fn no_consumption_skips_cg_machinery() {
        let events = [ev(0, 1.0), ev(1, 2.0)];
        let (shared, wv, mut inst) = setup(ConsumptionPolicy::None, &events, vec![]);
        inst.step(&shared);
        inst.step(&shared);
        inst.step(&shared);
        assert!(wv.is_finished());
        assert_eq!(wv.lock().outputs.len(), 1);
        let snap = shared.metrics.snapshot();
        assert_eq!(snap.cgs_created, 0);
        // only the WvFinished op was queued
        let mut count = 0;
        while let Some((_, op)) = shared.ops.pop() {
            assert!(matches!(op, TreeOp::WvFinished { .. }));
            count += 1;
        }
        assert_eq!(count, 1);
    }

    #[test]
    fn batched_step_processes_whole_run_and_finishes() {
        // With a batch larger than the window, one step consumes the whole
        // window under a single version-lock acquisition and finishes it —
        // with the same outputs the event-at-a-time path produces.
        let events = [ev(0, 1.0), ev(1, 9.0), ev(2, 2.0), ev(3, 9.0)];
        let (shared, wv, inst) = setup(ConsumptionPolicy::All, &events, vec![]);
        let mut inst = InstanceCore::new(inst.index(), 2).with_batch(1024);
        assert_eq!(inst.step(&shared), StepOutcome::Finished);
        assert!(wv.is_finished());
        let inner = wv.lock();
        assert_eq!(inner.outputs.len(), 1);
        assert_eq!(inner.outputs[0].constituents, vec![0, 2]);
        let snap = shared.metrics.snapshot();
        assert_eq!(snap.events_processed, 4);
        assert_eq!(snap.cgs_created, 1);
        assert_eq!(snap.cgs_completed, 1);
    }

    #[test]
    fn batched_run_detects_late_consumption_and_rolls_back() {
        // A late consumption-group update is caught by the periodic check
        // inside a batched run, aborting the step with a rollback.
        let cg = Arc::new(CgCell::new(CgId(99), 0, 1));
        let events = [ev(0, 1.0), ev(1, 9.0), ev(2, 2.0), ev(3, 9.0)];
        let (shared, wv, inst) = setup(ConsumptionPolicy::All, &events, vec![Arc::clone(&cg)]);
        let mut inst = InstanceCore::new(inst.index(), 2).with_batch(2);
        assert_eq!(inst.step(&shared), StepOutcome::Worked); // events 0, 1
        cg.add_event(0, 0, 0); // seq 0 consumed *after* it was processed
        assert_eq!(inst.step(&shared), StepOutcome::RolledBack);
        assert_eq!(wv.lock().pos, 0, "reset to the window start");
        assert_eq!(shared.metrics.snapshot().rollbacks, 1);
    }

    #[test]
    fn stalled_head_runs_ahead_on_the_fifo_front_and_resumes_when_fed() {
        // Head: window 0, open and not yet ingested. FIFO front: window 1,
        // closed and fully ingested (a final version).
        let shared = SharedState::new(1);
        shared.store.open_window(0, 0);
        let head_window = Arc::new(WindowInfo::new(0, 0, 0, 0));
        let head = VersionState::new(WvId(0), head_window, query(ConsumptionPolicy::None), vec![]);
        shared.store.open_window(1, 0);
        let mut batch = crate::splitter::EventBatch::with_capacity(0, 4);
        for e in [ev(0, 1.0), ev(1, 9.0), ev(2, 2.0), ev(3, 9.0)] {
            batch.push(e);
        }
        shared.store.extend(1, &Arc::new(batch), 0..4);
        let ahead_window = Arc::new(WindowInfo::new(1, 0, 0, 0));
        ahead_window.set_end_pos(4);
        let ahead = VersionState::new(
            WvId(1),
            ahead_window,
            query(ConsumptionPolicy::None),
            vec![],
        );
        shared.slots[0].publish(Some(Arc::clone(&head)));
        shared.slots[0].enqueue_ahead([Arc::clone(&ahead)]);
        let mut inst = InstanceCore::new(0, 2).with_batch(2);

        // The head is stalled, so the step processes the FIFO front.
        assert_eq!(inst.step(&shared), StepOutcome::Worked);
        assert_eq!(ahead.lock().pos, 2);
        assert_eq!(head.lock().pos, 0);
        let snap = shared.metrics.snapshot();
        assert_eq!(snap.versions_run_ahead, 1);
        assert_eq!(
            snap.stalled_steps, 0,
            "a step that ran ahead is not stalled"
        );

        // The head has events again: the next step returns to it.
        let mut batch = crate::splitter::EventBatch::with_capacity(0, 1);
        batch.push(ev(0, 1.0));
        shared.store.extend(0, &Arc::new(batch), 0..1);
        assert_eq!(inst.step(&shared), StepOutcome::Worked);
        assert_eq!(head.lock().pos, 1);
        assert_eq!(ahead.lock().pos, 2);

        // Stalled again: the front resumes where it left off and finishes,
        // counted once as a version run ahead.
        assert_eq!(inst.step(&shared), StepOutcome::Finished);
        assert!(ahead.is_finished());
        assert_eq!(ahead.lock().outputs.len(), 1);
        assert_eq!(shared.metrics.snapshot().versions_run_ahead, 1);
        // Nothing left to run ahead on: the stalled head is the outcome,
        // and the finished front has left the FIFO.
        assert_eq!(inst.step(&shared), StepOutcome::Stalled);
        assert_eq!(shared.slots[0].ahead_len(), 0);
        assert_eq!(shared.metrics.snapshot().stalled_steps, 1);
    }

    #[test]
    fn stats_flushed_on_finish() {
        let events = [ev(0, 1.0), ev(1, 9.0), ev(2, 2.0)];
        let (shared, _wv, mut inst) = setup(ConsumptionPolicy::All, &events, vec![]);
        for _ in 0..4 {
            inst.step(&shared);
        }
        let mut transitions = Vec::new();
        while let Some((qid, batch)) = shared.stats.pop() {
            assert_eq!(qid, QueryId(0));
            transitions.extend(batch.transitions);
        }
        // A@0: start 2→1; noise@1: 1→1; B@2: 1→0.
        assert_eq!(transitions, vec![(2, 1), (1, 1), (1, 0)]);
    }
}
