//! Operator-instance event processing (paper Fig. 8).
//!
//! Each instance repeatedly: checks its scheduling slot, fetches a *run* of
//! its current window version's next events from the window's own buffer
//! (up to [`SpectreConfig::batch_size`](crate::SpectreConfig::batch_size)
//! under one buffer-lock acquisition), and processes the run while holding
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
//! A slot grants a tree *head* (one window version), worked first while it
//! progresses, or the [`Lane`] of a query without a consumption policy,
//! whose windows the instance claims in open order: an open one is worked
//! up to the ingestion frontier like a head, and while it stalls only a
//! closed, fully ingested one may be taken (see `Lane::claim`). Claimed
//! windows keep their detector state here until finished — at the
//! window's end, or earlier once the detector is spent; the finisher
//! hands the outputs to the [`LaneCell`] and releases the buffer
//! subscription, so events are freed off the splitter.
//!
//! A tree version obeys the same rule as a lane window: it finishes at its
//! window's end or as soon as its detector is spent, even mid-run. Its
//! groups are all resolved then, so it pushes `WvFinished` as at the end.
//! Finishing early does not make it final: a group it suppresses may
//! still take an event it fed, and the final validation at retirement
//! rolls it back then (see `Splitter::retire_root_of`, which also holds
//! its commit until the window closes).
//!
//! Instances are oblivious to lazy branch materialization: the splitter's
//! top-k selection materializes an unmaterialized completion branch
//! *before* writing it to a scheduling slot, so a slot only ever holds a
//! fully materialized [`VersionState`]. A late clone that inherited
//! processing the new suppression invalidates is caught here by the same
//! periodic consistency check that catches late group updates.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use spectre_events::Event;
use spectre_query::{ComplexEvent, DetectorAction, MatchId, SelectionPolicy, WindowDetector};

use crate::cg::CgCell;
use crate::metrics::Metrics;
use crate::shared::{Grant, Lane, LaneCell, QueryId, SharedState, StatsBatch, TreeOp};
use crate::store::EventRun;
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

/// A claimed lane window and the detector state of the work on it.
#[derive(Debug)]
struct LaneWork {
    lane: Arc<Lane>,
    cell: Arc<LaneCell>,
    detector: WindowDetector,
    /// Window events looked at so far.
    pos: u64,
    outputs: Vec<ComplexEvent>,
}

/// One operator instance's local state.
#[derive(Debug)]
pub struct InstanceCore {
    index: usize,
    check_freq: u32,
    batch: usize,
    current: Option<Grant>,
    /// Claimed lane windows: `[0]` is worked up to the ingestion frontier,
    /// `[1]` is a closed, fully ingested one claimed while `[0]` stalled.
    lane: [Option<LaneWork>; 2],
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
            lane: [None, None],
            slot_seq: 0,
            actions: Vec::new(),
            stats: Vec::new(),
            stats_query: None,
            ops_buf: Vec::new(),
            fetch: Vec::new(),
            run_processed: 0,
            run_suppressed: 0,
            run_qmetrics: None,
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

    /// The publication sequence of the slot's last observed grant.
    pub(crate) fn slot_seq(&self) -> u64 {
        self.slot_seq
    }

    /// The grant last observed on the slot.
    pub(crate) fn grant(&self) -> Option<&Grant> {
        self.current.as_ref()
    }

    /// Performs one processing step — up to [`with_batch`](Self::with_batch)
    /// events of the scheduled window version (or, when it cannot progress,
    /// of a lane window), fetched as one run and processed under one
    /// version-lock acquisition — per paper Fig. 8.
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
        }
        // The head goes first while it can make progress. It is taken out
        // of `current` for the step rather than cloned, so a stalled step
        // writes to no reference count the splitter shares.
        let head = match self.current.take() {
            Some(Grant::Version(wv)) if !wv.is_dropped() && !wv.is_finished() => {
                let outcome = self.process(&wv, shared);
                self.current = Some(Grant::Version(wv));
                match outcome {
                    StepOutcome::Idle | StepOutcome::Stalled => outcome,
                    _ => return outcome,
                }
            }
            other => {
                self.current = other;
                StepOutcome::Idle
            }
        };
        // Then the lane: the open window while it progresses, else a
        // closed one, else a fresh claim.
        let idle = match self.work_lane(0, shared) {
            Some(StepOutcome::Stalled) => StepOutcome::Stalled,
            Some(outcome) => return outcome,
            None => head,
        };
        if let Some(outcome) = self.work_lane(1, shared) {
            return outcome;
        }
        let Some(Grant::Lane(lane)) = &self.current else {
            return idle;
        };
        let open = self.lane[0].as_ref();
        // Windows close in open order, so while this lane's own open window
        // stalls, none of its younger unclaimed ones is closed and ingested
        // either: skip the claim and its lock.
        if open.is_some_and(|w| Arc::ptr_eq(&w.lane, lane)) {
            return idle;
        }
        let closed_by = open.map(|_| shared.ingested.load(Ordering::Acquire));
        let Some(cell) = lane.claim(closed_by) else {
            return idle;
        };
        let i = usize::from(open.is_some());
        self.lane[i] = Some(LaneWork {
            lane: Arc::clone(lane),
            detector: WindowDetector::new(Arc::clone(&lane.query), cell.window.id),
            cell,
            pos: 0,
            outputs: Vec::new(),
        });
        self.work_lane(i, shared).unwrap_or(idle)
    }

    /// Works the next run of held lane window `i`; `None` when none is held
    /// (a window whose query retired is done already and dropped).
    fn work_lane(&mut self, i: usize, shared: &SharedState) -> Option<StepOutcome> {
        let mut work = self.lane[i].take().filter(|w| !w.cell.is_done())?;
        let outcome = self.process_lane(&mut work, shared);
        if outcome != StepOutcome::Finished {
            self.lane[i] = Some(work);
        }
        Some(outcome)
    }

    /// [`process`](Self::process) for a lane window: no suppression,
    /// groups, statistics or consistency checks, since nothing is assumed.
    /// The window finishes at its end or as soon as its detector is spent
    /// (no match active and none can start), even mid-run and before the
    /// window closes: no later event can change its output. Only the
    /// events actually fed count as processed. The cell then holds the
    /// outputs until the window closes (see `Splitter::retire_lane_of`).
    fn process_lane(&mut self, work: &mut LaneWork, shared: &SharedState) -> StepOutcome {
        let window = Arc::clone(&work.cell.window);
        // A detector spent in an earlier step finished its window there.
        if !window.ends_at(work.pos) {
            if window.buf.read_run(work.pos, self.batch, &mut self.fetch) == 0 {
                return StepOutcome::Stalled;
            }
            let mut fed = 0;
            'runs: for run in self.fetch.drain(..) {
                for ev in run.events() {
                    work.detector.on_event(ev, &mut self.actions);
                    fed += 1;
                    for action in self.actions.drain(..) {
                        if let DetectorAction::Completed { complex, .. } = action {
                            work.outputs.push(complex);
                        }
                    }
                    if work.detector.is_spent() {
                        break 'runs;
                    }
                }
            }
            work.pos += fed;
            self.run_processed += fed;
            self.run_qmetrics = Some(Arc::clone(&work.lane.qmetrics));
            if !window.ends_at(work.pos) && !work.detector.is_spent() {
                return StepOutcome::Worked;
            }
        }
        // Done: the outputs go to the cell, the buffer to its last
        // subscriber (a released buffer drops the window's later slices).
        if work.cell.finish(std::mem::take(&mut work.outputs)) {
            window.buf.release();
            shared.metrics.add_lane_window(self.index);
            work.lane.qmetrics.add_lane_window(self.index);
        }
        StepOutcome::Finished
    }

    /// Processes the next run of the head `wv`.
    fn process(&mut self, wv: &Arc<VersionState>, shared: &SharedState) -> StepOutcome {
        let window = wv.window();
        let mut inner = wv.lock();
        // Re-checked under the version lock (which `finish` holds): a
        // version another instance finished meanwhile is never finished
        // twice.
        if wv.is_finished() {
            return StepOutcome::Idle;
        }

        // Window end reached, or the detector already spent?
        if window.ends_at(inner.pos) || inner.detector.is_spent() {
            self.finish(wv, &mut inner, shared);
            return StepOutcome::Finished;
        }

        let n = window.buf.read_run(inner.pos, self.batch, &mut self.fetch);
        if n == 0 {
            // Not yet ingested (or the query retired and released the
            // buffer; its dropped flag ends the version next step): stall.
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
                if inner.detector.is_spent() {
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
        } else if window.ends_at(inner.pos) || inner.detector.is_spent() {
            // The run consumed the window's last event, or the one that
            // spent the detector: no later event can change the output.
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
        // Empty: `apply_actions` drains it.
        let mut actions = std::mem::take(&mut self.actions);
        if suppressed {
            // The position still counts: the feasibility bound may abandon
            // the match here.
            inner.detector.on_suppressed(&mut actions);
            self.apply_actions(wv, inner, shared, &mut actions);
            self.run_suppressed += 1;
        } else {
            let prev_delta = inner.open_cgs.first().map(|(_, cg)| cg.delta());

            debug_assert!(
                inner.used.last().is_none_or(|&last| last < ev.seq()),
                "input stream must be seq-ordered"
            );
            inner.used.push(ev.seq());
            inner.detector.on_event(ev, &mut actions);
            let (started_any, abandoned_any) = self.apply_actions(wv, inner, shared, &mut actions);

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
                    (None, Some(to)) if started_any => {
                        let from = wv.query().pattern().max_delta();
                        self.record(shared, qid, from, to);
                    }
                    _ => {}
                }
            }
            self.run_processed += 1;
        }
        self.actions = actions;

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

    /// Maps one position's detector feedback onto consumption groups
    /// (Fig. 8 lines 15–28), draining `actions`. Returns whether a match
    /// started and whether one was abandoned.
    fn apply_actions(
        &mut self,
        wv: &Arc<VersionState>,
        inner: &mut VersionInner,
        shared: &SharedState,
        actions: &mut Vec<DetectorAction>,
    ) -> (bool, bool) {
        let mut started_any = false;
        let mut abandoned_any = false;
        for action in actions.drain(..) {
            match action {
                DetectorAction::MatchStarted { match_id } => {
                    started_any = true;
                    let delta = wv.query().pattern().max_delta();
                    self.create_cg(wv, inner, shared, match_id, delta);
                }
                DetectorAction::EventAdded {
                    match_id,
                    seq,
                    consumable,
                    delta,
                } => {
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
                    if let Some(cg) = self.resolve_cg(wv, inner, shared, match_id, true) {
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
                    self.resolve_cg(wv, inner, shared, match_id, false);
                    if let Some(i) = inner.needs_new_cg.iter().position(|m| *m == match_id) {
                        inner.needs_new_cg.swap_remove(i);
                    }
                }
            }
        }
        (started_any, abandoned_any)
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

    /// Resolves the open group of `match_id`, if there is one: takes it out
    /// of `open_cgs`, completes or abandons it, reports the resolution to
    /// the tree and counts it. Returns the resolved group.
    fn resolve_cg(
        &mut self,
        wv: &Arc<VersionState>,
        inner: &mut VersionInner,
        shared: &SharedState,
        match_id: MatchId,
        completed: bool,
    ) -> Option<Arc<CgCell>> {
        let i = inner.open_cgs.iter().position(|(m, _)| *m == match_id)?;
        let (_, cg) = inner.open_cgs.swap_remove(i);
        let metrics = &shared.metrics;
        if completed {
            cg.complete();
            metrics.add_shared(wv.query_metrics(), |m| &m.cgs_completed, 1);
        } else {
            cg.abandon();
            metrics.add_shared(wv.query_metrics(), |m| &m.cgs_abandoned, 1);
        }
        self.ops_buf.push((
            wv.query_id(),
            TreeOp::CgResolved {
                cg: cg.id(),
                completed,
            },
        ));
        Some(cg)
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
                self.resolve_cg(wv, inner, shared, match_id, false);
            }
        }
        self.actions = actions;
        // Defensive: no group may stay open past its window (paper §3.1).
        while let Some(&(match_id, _)) = inner.open_cgs.first() {
            self.resolve_cg(wv, inner, shared, match_id, false);
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
        let (revoked, discarded) = wv.rollback_locked(inner);
        shared
            .metrics
            .add_shared(wv.query_metrics(), |m| &m.cgs_discarded, discarded);
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
    use crate::splitter::EventBatch;
    use crate::store::{WindowBuf, WindowInfo};
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

    /// A buffer holding `events` (stream positions from 0).
    fn filled(events: &[Event]) -> Arc<WindowBuf> {
        let batch = Arc::new(EventBatch::new(0, events.to_vec()));
        let buf = Arc::new(WindowBuf::new(1));
        buf.extend(&batch, 0..events.len());
        buf
    }

    fn setup(
        events: &[Event],
        suppressed: Vec<Arc<CgCell>>,
    ) -> (Arc<SharedState>, Arc<VersionState>, InstanceCore) {
        let shared = SharedState::new(1);
        shared
            .ingested
            .store(events.len() as u64, Ordering::Release);
        let window = Arc::new(WindowInfo::new(0, filled(events), 0, 0, 0));
        window.set_end_pos(events.len() as u64);
        let query = query(ConsumptionPolicy::All);
        let wv = VersionState::new(WvId(0), window, query, suppressed);
        shared.slots[0].publish(Some(Grant::Version(Arc::clone(&wv))));
        let inst = InstanceCore::new(0, 2);
        (shared, wv, inst)
    }

    #[test]
    fn processes_window_and_buffers_outputs() {
        let events = [ev(0, 1.0), ev(1, 9.0), ev(2, 2.0), ev(3, 9.0)];
        let (shared, wv, mut inst) = setup(&events, vec![]);
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
        let (shared, _wv, mut inst) = setup(&events, vec![]);
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
        let window = Arc::new(WindowInfo::new(0, filled(&[]), 0, 0, 0));
        window.set_end_pos(1);
        let wv = VersionState::new(WvId(0), window, query(ConsumptionPolicy::All), vec![]);
        shared.slots[0].publish(Some(Grant::Version(Arc::clone(&wv))));
        let mut inst = InstanceCore::new(0, 2);
        assert_eq!(inst.step(&shared), StepOutcome::Stalled);
        let batch = EventBatch::new(0, vec![ev(0, 1.0)]);
        wv.window().buf.extend(&Arc::new(batch), 0..1);
        assert_eq!(inst.step(&shared), StepOutcome::Finished);
    }

    #[test]
    fn suppressed_events_are_skipped() {
        // Suppress event 0 (the A): no match can start on it.
        let cg = Arc::new(CgCell::new(CgId(99), 0, 1));
        cg.add_event(0, 1, 0);
        let events = [ev(0, 1.0), ev(1, 2.0)];
        let (shared, wv, mut inst) = setup(&events, vec![Arc::clone(&cg)]);
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
        let (shared, wv, mut inst) = setup(&events, vec![Arc::clone(&cg)]);
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
        let (shared, wv, mut inst) = setup(&events, vec![Arc::clone(&cg)]);
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
    fn a_spent_version_finishes_mid_run_and_reports_it() {
        // Windows open on x = 1: the A B match is the window's only one,
        // so once it completes on event 1 no later event can change the
        // window's output.
        let x = AttrKey::new(0);
        let is = |v: f64| Expr::current(x).eq_(Expr::value(v));
        let query = Arc::new(
            Query::builder("anchored")
                .pattern_arc(Arc::clone(query(ConsumptionPolicy::All).pattern()))
                .window(WindowSpec::on_match_count(None, is(1.0), 4).unwrap())
                .consumption(ConsumptionPolicy::All)
                .build()
                .unwrap(),
        );
        let shared = SharedState::new(1);
        let events = [ev(0, 1.0), ev(1, 2.0), ev(2, 1.0), ev(3, 2.0)];
        let window = Arc::new(WindowInfo::new(0, filled(&events), 0, 0, 0));
        let wv = VersionState::new(WvId(1), window, query, vec![]);
        shared.slots[0].publish(Some(Grant::Version(Arc::clone(&wv))));
        let mut inst = InstanceCore::new(0, 2).with_batch(64);

        // One run holds all four events, but the step feeds only two and
        // finishes the version although its window has not closed.
        assert_eq!(inst.step(&shared), StepOutcome::Finished);
        assert!(wv.is_finished() && wv.window().end_pos().is_none());
        {
            let inner = wv.lock();
            assert_eq!(inner.pos, 2);
            assert_eq!(inner.used, vec![0, 1]);
            assert_eq!(inner.outputs.len(), 1);
            assert_eq!(inner.outputs[0].constituents, vec![0, 1]);
        }
        let snap = shared.metrics.snapshot();
        assert_eq!((snap.events_processed, snap.cgs_completed), (2, 1));
        let mut ops = Vec::new();
        while let Some((_, op)) = shared.ops.pop() {
            ops.push(op);
        }
        assert!(matches!(
            ops[..],
            [
                TreeOp::CgCreated { .. },
                TreeOp::CgResolved {
                    completed: true,
                    ..
                },
                TreeOp::WvFinished { wv: WvId(1) },
            ]
        ));
        assert_eq!(inst.step(&shared), StepOutcome::Idle);
    }

    #[test]
    fn window_end_abandons_open_groups() {
        let events = [ev(0, 1.0), ev(1, 9.0)];
        let (shared, wv, mut inst) = setup(&events, vec![]);
        inst.step(&shared);
        assert_eq!(inst.step(&shared), StepOutcome::Finished);
        assert!(wv.lock().open_cgs.is_empty());
        let snap = shared.metrics.snapshot();
        assert_eq!(snap.cgs_created, 1);
        assert_eq!(snap.cgs_abandoned, 1);
    }

    #[test]
    fn batched_step_processes_whole_run_and_finishes() {
        // With a batch larger than the window, one step consumes the whole
        // window under a single version-lock acquisition and finishes it —
        // with the same outputs the event-at-a-time path produces.
        let events = [ev(0, 1.0), ev(1, 9.0), ev(2, 2.0), ev(3, 9.0)];
        let (shared, wv, inst) = setup(&events, vec![]);
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
        let (shared, wv, inst) = setup(&events, vec![Arc::clone(&cg)]);
        let mut inst = InstanceCore::new(inst.index(), 2).with_batch(2);
        assert_eq!(inst.step(&shared), StepOutcome::Worked); // events 0, 1
        cg.add_event(0, 0, 0); // seq 0 consumed *after* it was processed
        assert_eq!(inst.step(&shared), StepOutcome::RolledBack);
        assert_eq!(wv.lock().pos, 0, "reset to the window start");
        assert_eq!(shared.metrics.snapshot().rollbacks, 1);
    }

    #[test]
    fn stalled_lane_window_yields_to_a_closed_one_and_resumes_when_fed() {
        // Lane `a`'s window is open and not yet ingested; lane `b`'s (of a
        // second consumption-free query) is closed and fully ingested.
        let shared = SharedState::new(1);
        let closed_buf = filled(&[ev(0, 1.0), ev(1, 9.0), ev(2, 2.0), ev(3, 9.0)]);
        shared.ingested.store(4, Ordering::Release);
        let lane = |id| {
            Lane::new(
                QueryId(id),
                query(ConsumptionPolicy::None),
                Default::default(),
            )
        };
        let (a, b) = (lane(0), lane(1));
        let open = LaneCell::new(&Arc::new(WindowInfo::new(0, filled(&[]), 0, 0, 0)));
        let closed = LaneCell::new(&Arc::new(WindowInfo::new(0, closed_buf, 0, 0, 0)));
        closed.window.set_end_pos(4);
        a.push(Arc::clone(&open));
        b.push(Arc::clone(&closed));
        let mut inst = InstanceCore::new(0, 2).with_batch(2);

        // `a`'s window is claimed and stalls; once the slot grants `b`, the
        // closed window is claimed and worked while the open one waits.
        shared.slots[0].publish(Some(Grant::Lane(Arc::clone(&a))));
        assert_eq!(inst.step(&shared), StepOutcome::Stalled);
        shared.slots[0].publish(Some(Grant::Lane(Arc::clone(&b))));
        assert_eq!(inst.step(&shared), StepOutcome::Worked);
        assert_eq!(a.unclaimed() + b.unclaimed(), 0);
        assert_eq!(shared.metrics.snapshot().stalled_steps, 1);

        // The open window has events again: the next step returns to it.
        let batch = EventBatch::new(0, vec![ev(0, 1.0)]);
        open.window.buf.extend(&Arc::new(batch), 0..1);
        assert_eq!(inst.step(&shared), StepOutcome::Worked);
        assert_eq!(shared.metrics.snapshot().events_processed, 3);

        // Stalled again: the closed window resumes and finishes, hands
        // over its outputs and frees its buffer.
        assert_eq!(inst.step(&shared), StepOutcome::Finished);
        assert!(closed.is_done() && !open.is_done());
        assert_eq!(closed.take_outputs().len(), 1);
        assert!(closed.window.buf.is_empty(), "released by its finisher");
        assert!(!closed.window.buf.release());
        assert_eq!(shared.metrics.snapshot().lane_windows, 1);
        assert_eq!(inst.step(&shared), StepOutcome::Stalled);

        // Closing the open window finishes it on the next step.
        open.window.set_end_pos(1);
        assert_eq!(inst.step(&shared), StepOutcome::Finished);
        assert!(open.is_done());
        assert_eq!(shared.metrics.snapshot().lane_windows, 2);
        assert!(open.window.buf.is_empty() && !open.window.buf.release());
    }

    #[test]
    fn stats_flushed_on_finish() {
        let events = [ev(0, 1.0), ev(1, 9.0), ev(2, 2.0)];
        let (shared, _wv, mut inst) = setup(&events, vec![]);
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
