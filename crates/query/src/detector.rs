use std::fmt;
use std::sync::Arc;

use spectre_events::{Event, Seq};

use crate::complex::ComplexEvent;
use crate::matcher::{FeedOutcome, PartialMatch};
use crate::policy::SelectionPolicy;
use crate::query::Query;
use crate::window::{WindowClose, WindowOpen};

/// Identifier of a partial match within one [`WindowDetector`].
///
/// In SPECTRE a partial match corresponds 1:1 to a consumption group of the
/// surrounding window version (paper §3.1), so the runtime uses `MatchId` as
/// the local half of its consumption-group ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MatchId(pub u64);

impl fmt::Display for MatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Feedback produced while a detector processes window events — the four
/// actions of paper Fig. 8 (lines 15–28):
///
/// 1. a partial match (= consumption group) is **created**,
/// 2. an event is **added** to a partial match,
/// 3. a match **completes**, emitting a complex event and consuming events,
/// 4. a match is **abandoned** (negation guard, window end, or an anchored
///    count window too short to complete it).
#[derive(Debug, Clone, PartialEq)]
pub enum DetectorAction {
    /// A new partial match started; the runtime creates a consumption group.
    MatchStarted {
        /// Id of the new match.
        match_id: MatchId,
    },
    /// An event was absorbed by a partial match.
    EventAdded {
        /// The absorbing match.
        match_id: MatchId,
        /// Sequence number of the absorbed event.
        seq: Seq,
        /// `true` if the consumption policy would consume this event on
        /// completion (the runtime adds it to the consumption group).
        consumable: bool,
        /// The match's completion distance δ after absorbing the event.
        delta: usize,
    },
    /// A match completed: a complex event is produced and `consumed` events
    /// are consumed as a whole (paper §2.1).
    Completed {
        /// The completing match.
        match_id: MatchId,
        /// The produced complex event.
        complex: ComplexEvent,
        /// Sequence numbers consumed per the consumption policy.
        consumed: Vec<Seq>,
    },
    /// A match was abandoned; its consumption group is dropped.
    Abandoned {
        /// The abandoned match.
        match_id: MatchId,
    },
}

/// Per-window pattern detection honouring the query's selection and
/// consumption policies.
///
/// A `WindowDetector` is the pattern-detection "operator logic" of paper
/// Fig. 8: it is fed one window's events in order (suppressed events are
/// simply *not* fed by the caller) and produces [`DetectorAction`] feedback
/// that the runtime maps onto consumption-group and dependency-tree updates.
///
/// Detectors are deterministic and cloneable; SPECTRE clones/rebuilds them
/// when window versions are rolled back.
///
/// # Feasibility bound
///
/// In an anchored count window (`WITHIN ws EVENTS FROM <elem>`) that has
/// seen `n` positions, fed or suppressed, a match whose completion distance
/// δ exceeds `ws − n` can never complete: each later position lowers δ by
/// at most one. After every position the detector abandons such matches
/// (through the ordinary [`DetectorAction::Abandoned`]) instead of feeding
/// them to the window's end, so the window is [spent](Self::is_spent) as
/// soon as its match is hopeless. The check costs O(1) per position and
/// looks at the matches only once `ws − n` drops below the pattern's
/// minimum length, the largest δ any match can have. Sliding and time
/// windows are left alone: there a later event may start a new match.
///
/// # Example
///
/// ```
/// use spectre_events::{Event, Schema};
/// use spectre_query::{ConsumptionPolicy, DetectorAction, Expr, Pattern, Query,
///                     WindowDetector, WindowSpec};
/// use std::sync::Arc;
///
/// let mut schema = Schema::new();
/// let x = schema.attr("x");
/// let query = Arc::new(
///     Query::builder("q")
///         .pattern(
///             Pattern::builder()
///                 .one("A", Expr::current(x).lt(Expr::value(0.0)))
///                 .one("B", Expr::current(x).gt(Expr::value(0.0)))
///                 .build()?,
///         )
///         .window(WindowSpec::count_sliding(10, 10)?)
///         .consumption(ConsumptionPolicy::All)
///         .build()?,
/// );
/// let t = schema.event_type("E");
/// let mut det = WindowDetector::new(query, 0);
/// let mut out = Vec::new();
/// det.on_event(&Event::builder(t).seq(1).attr(x, -1.0).build(), &mut out);
/// det.on_event(&Event::builder(t).seq(2).attr(x, 1.0).build(), &mut out);
/// assert!(out.iter().any(|a| matches!(a, DetectorAction::Completed { .. })));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct WindowDetector {
    query: Arc<Query>,
    window_id: u64,
    active: Vec<(MatchId, PartialMatch)>,
    next_match: u64,
    events_seen: u64,
    completed: u64,
    started: u64,
    /// The window *opens on* the pattern's start element
    /// (`WITHIN … FROM <elem>`): only its first event may start a match.
    anchored: bool,
    /// `ws` of an anchored count window, the one shape the feasibility
    /// bound applies to; `None` for every other window.
    scope: Option<u64>,
}

impl WindowDetector {
    /// Creates a detector for one window.
    pub fn new(query: Arc<Query>, window_id: u64) -> Self {
        let anchored = matches!(query.window().open(), WindowOpen::OnMatch { .. });
        let scope = match query.window().close() {
            WindowClose::Count(ws) if anchored => Some(ws),
            _ => None,
        };
        WindowDetector {
            anchored,
            scope,
            query,
            window_id,
            active: Vec::new(),
            next_match: 0,
            events_seen: 0,
            completed: 0,
            started: 0,
        }
    }

    /// `true` once nothing later in the window can change its output: no
    /// match is active and none can start — the window is anchored and its
    /// first event has been seen. Its match resolved, by completing, by a
    /// negation guard or by the feasibility bound (see the type docs). The
    /// converse of paper §3.1's rule that groups resolve at the latest when
    /// the window finishes: a spent window may finish before its last
    /// event. A sliding window is never spent.
    pub fn is_spent(&self) -> bool {
        self.anchored && self.events_seen > 0 && self.active.is_empty()
    }

    /// The window this detector works on.
    pub fn window_id(&self) -> u64 {
        self.window_id
    }

    /// The query.
    pub fn query(&self) -> &Arc<Query> {
        &self.query
    }

    /// Number of window positions processed, fed or suppressed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Number of complex events produced so far.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// Number of partial matches started so far.
    pub fn started_count(&self) -> u64 {
        self.started
    }

    /// Completion distance δ of an active match.
    pub fn delta(&self, match_id: MatchId) -> Option<usize> {
        self.active
            .iter()
            .find(|(id, _)| *id == match_id)
            .map(|(_, m)| m.delta())
    }

    /// Ids of the currently active matches, oldest first.
    pub fn active_matches(&self) -> impl Iterator<Item = MatchId> + '_ {
        self.active.iter().map(|(id, _)| *id)
    }

    /// Records a window event that is *suppressed* (consumed by an earlier
    /// window): it is not fed to the matcher, but it still occupies its
    /// window position — in particular, a suppressed first event disables
    /// an anchored query's match for this window. Using up a position may
    /// leave a match too little room to complete: its abandonment goes to
    /// `out`.
    pub fn on_suppressed(&mut self, out: &mut Vec<DetectorAction>) {
        self.events_seen += 1;
        self.abandon_hopeless(out);
    }

    /// Processes the next (non-suppressed) window event, appending feedback
    /// actions to `out`.
    pub fn on_event(&mut self, ev: &Event, out: &mut Vec<DetectorAction>) {
        self.events_seen += 1;
        let mut absorbed_by_any = false;
        let mut ev_consumed = false;
        let mut i = 0;
        while i < self.active.len() {
            let (match_id, m) = &mut self.active[i];
            let match_id = *match_id;
            match m.feed(ev) {
                FeedOutcome::Ignored => {
                    i += 1;
                }
                FeedOutcome::Absorbed { elem } => {
                    absorbed_by_any = true;
                    let consumable = self.query.consumable(elem);
                    let delta = m.delta();
                    out.push(DetectorAction::EventAdded {
                        match_id,
                        seq: ev.seq(),
                        consumable,
                        delta,
                    });
                    i += 1;
                }
                FeedOutcome::Completed { elem } => {
                    absorbed_by_any = true;
                    let consumable = self.query.consumable(elem);
                    out.push(DetectorAction::EventAdded {
                        match_id,
                        seq: ev.seq(),
                        consumable,
                        delta: 0,
                    });
                    let (removed, consumed_current) = self.finish_match(i, match_id, ev, out);
                    if consumed_current {
                        // The completing match consumed the event under
                        // processing: it must not feed younger matches nor
                        // start a new one (events belong to one pattern
                        // instance only).
                        ev_consumed = true;
                        break;
                    }
                    if !removed {
                        i += 1;
                    }
                }
                FeedOutcome::Abandoned => {
                    out.push(DetectorAction::Abandoned { match_id });
                    self.active.remove(i);
                }
            }
        }

        // Start a fresh match if the event was not absorbed, capacity allows
        // and the event can start the pattern. Queries whose window *opens
        // on* the pattern's start element (`WITHIN … FROM <elem>`) are
        // anchored: the window exists because its first event matched, so
        // only that event may start the (single) match — the paper's Q1/QE
        // shape and its evaluation setting of one consumption group per
        // window version (§4.2).
        let may_start = !self.anchored || self.events_seen == 1;
        if !ev_consumed
            && may_start
            && !absorbed_by_any
            && self.active.len() < self.query.max_active()
            && PartialMatch::event_starts(self.query.pattern(), ev)
        {
            let match_id = MatchId(self.next_match);
            self.next_match += 1;
            self.started += 1;
            let mut m = PartialMatch::new(Arc::clone(self.query.pattern()));
            out.push(DetectorAction::MatchStarted { match_id });
            match m.feed(ev) {
                FeedOutcome::Absorbed { elem } => {
                    let consumable = self.query.consumable(elem);
                    let delta = m.delta();
                    out.push(DetectorAction::EventAdded {
                        match_id,
                        seq: ev.seq(),
                        consumable,
                        delta,
                    });
                    self.active.push((match_id, m));
                }
                FeedOutcome::Completed { elem } => {
                    let consumable = self.query.consumable(elem);
                    out.push(DetectorAction::EventAdded {
                        match_id,
                        seq: ev.seq(),
                        consumable,
                        delta: 0,
                    });
                    self.active.push((match_id, m));
                    let idx = self.active.len() - 1;
                    self.finish_match(idx, match_id, ev, out);
                }
                FeedOutcome::Ignored | FeedOutcome::Abandoned => {
                    // `event_starts` said the first step matches, so feeding
                    // a fresh match must absorb. Defensive: drop the match.
                    debug_assert!(false, "fresh match must absorb its start event");
                }
            }
        }
        self.abandon_hopeless(out);
    }

    /// The feasibility bound (see the type docs): abandons every match
    /// whose δ exceeds the positions the anchored count window has left.
    fn abandon_hopeless(&mut self, out: &mut Vec<DetectorAction>) {
        let Some(ws) = self.scope else {
            return;
        };
        let left = ws.saturating_sub(self.events_seen);
        // No match's δ exceeds the pattern's minimum length.
        if left >= self.query.pattern().max_delta() as u64 {
            return;
        }
        self.active.retain(|(match_id, m)| {
            let feasible = m.delta() as u64 <= left;
            if !feasible {
                out.push(DetectorAction::Abandoned {
                    match_id: *match_id,
                });
            }
            feasible
        });
    }

    /// The window ended: all still-active matches are abandoned
    /// (paper §3.1: consumption groups are completed or abandoned at the
    /// latest when processing of the window finishes).
    pub fn on_window_end(&mut self, out: &mut Vec<DetectorAction>) {
        for (match_id, _) in self.active.drain(..) {
            out.push(DetectorAction::Abandoned { match_id });
        }
    }

    /// Handles a completed match at `self.active[idx]`: emits `Completed`,
    /// invalidates sibling matches that contain consumed events, and applies
    /// the selection policy. Returns `(entry_removed, current_event_consumed)`.
    fn finish_match(
        &mut self,
        idx: usize,
        match_id: MatchId,
        completing: &Event,
        out: &mut Vec<DetectorAction>,
    ) -> (bool, bool) {
        self.completed += 1;
        let (_, m) = &mut self.active[idx];
        let constituents: Vec<Seq> = m.participants().iter().map(|(_, s)| *s).collect();
        let consumed: Vec<Seq> = m
            .participants()
            .iter()
            .filter(|(elem, _)| self.query.consumable(*elem))
            .map(|(_, s)| *s)
            .collect();
        let consumed_current = consumed.contains(&completing.seq());
        out.push(DetectorAction::Completed {
            match_id,
            complex: ComplexEvent::new(self.window_id, completing.ts(), constituents),
            consumed: consumed.clone(),
        });

        // An event can be part of only one pattern instance: abandon sibling
        // matches that already absorbed a now-consumed event.
        if !consumed.is_empty() {
            let mut j = 0;
            while j < self.active.len() {
                let (mid, sibling) = &self.active[j];
                if *mid == match_id {
                    j += 1;
                    continue;
                }
                let conflicted = sibling
                    .participants()
                    .iter()
                    .any(|(_, s)| consumed.contains(s));
                if conflicted {
                    let mid = *mid;
                    out.push(DetectorAction::Abandoned { match_id: mid });
                    self.active.remove(j);
                } else {
                    j += 1;
                }
            }
        }

        // Apply the selection policy (indices may have shifted; find by id).
        let idx = match self.active.iter().position(|(id, _)| *id == match_id) {
            Some(i) => i,
            None => return (true, consumed_current),
        };
        let removed = match self.query.selection() {
            SelectionPolicy::Once => {
                self.active.remove(idx);
                true
            }
            SelectionPolicy::EachLast => {
                self.active[idx].1.rearm_last();
                false
            }
        };
        (removed, consumed_current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::pattern::Pattern;
    use crate::policy::ConsumptionPolicy;
    use crate::window::WindowSpec;
    use spectre_events::{AttrKey, EventType};

    fn ev(seq: Seq, x: f64) -> Event {
        Event::builder(EventType::new(0))
            .seq(seq)
            .ts(seq)
            .attr(AttrKey::new(0), x)
            .build()
    }

    fn x_is(v: f64) -> Expr {
        Expr::current(AttrKey::new(0)).eq_(Expr::value(v))
    }

    fn query(consumption: ConsumptionPolicy, selection: SelectionPolicy) -> Arc<Query> {
        Arc::new(
            Query::builder("t")
                .pattern(
                    Pattern::builder()
                        .one("A", x_is(1.0))
                        .one("B", x_is(2.0))
                        .build()
                        .unwrap(),
                )
                .window(WindowSpec::count_sliding(100, 100).unwrap())
                .consumption(consumption)
                .selection(selection)
                .build()
                .unwrap(),
        )
    }

    fn run(det: &mut WindowDetector, events: &[Event]) -> Vec<DetectorAction> {
        let mut out = Vec::new();
        for ev in events {
            det.on_event(ev, &mut out);
        }
        out
    }

    fn completions(actions: &[DetectorAction]) -> Vec<&ComplexEvent> {
        actions
            .iter()
            .filter_map(|a| match a {
                DetectorAction::Completed { complex, .. } => Some(complex),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn simple_sequence_detection_with_consumption() {
        let q = query(ConsumptionPolicy::All, SelectionPolicy::Once);
        let mut det = WindowDetector::new(q, 7);
        let actions = run(&mut det, &[ev(1, 1.0), ev(2, 0.0), ev(3, 2.0)]);
        assert!(matches!(actions[0], DetectorAction::MatchStarted { .. }));
        let c = completions(&actions);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].window_id, 7);
        assert_eq!(c[0].constituents, vec![1, 3]);
        let DetectorAction::Completed { consumed, .. } = actions.last().unwrap() else {
            panic!("last action must be completion");
        };
        assert_eq!(consumed, &vec![1, 3]);
        assert_eq!(det.completed_count(), 1);
    }

    #[test]
    fn selected_consumption_only_marks_selected_elements() {
        let q = query(
            ConsumptionPolicy::Selected(vec!["B".into()]),
            SelectionPolicy::Once,
        );
        let mut det = WindowDetector::new(q, 0);
        let actions = run(&mut det, &[ev(1, 1.0), ev(2, 2.0)]);
        let adds: Vec<(Seq, bool)> = actions
            .iter()
            .filter_map(|a| match a {
                DetectorAction::EventAdded {
                    seq, consumable, ..
                } => Some((*seq, *consumable)),
                _ => None,
            })
            .collect();
        assert_eq!(adds, vec![(1, false), (2, true)]);
        let DetectorAction::Completed { consumed, .. } = actions.last().unwrap() else {
            panic!();
        };
        assert_eq!(consumed, &vec![2]);
    }

    #[test]
    fn once_selection_allows_new_match_after_completion() {
        let q = query(ConsumptionPolicy::All, SelectionPolicy::Once);
        let mut det = WindowDetector::new(q, 0);
        let actions = run(&mut det, &[ev(1, 1.0), ev(2, 2.0), ev(3, 1.0), ev(4, 2.0)]);
        let c = completions(&actions);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].constituents, vec![1, 2]);
        assert_eq!(c[1].constituents, vec![3, 4]);
        assert_eq!(det.started_count(), 2);
    }

    #[test]
    fn each_last_produces_qe_fig1b_output() {
        // QE with consumption "selected B": A1 B1 B2 in one window yields
        // A1B1 and A1B2 (paper Fig. 1b, window w1).
        let q = query(
            ConsumptionPolicy::Selected(vec!["B".into()]),
            SelectionPolicy::EachLast,
        );
        let mut det = WindowDetector::new(q, 0);
        let actions = run(&mut det, &[ev(1, 1.0), ev(2, 2.0), ev(3, 2.0)]);
        let c = completions(&actions);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].constituents, vec![1, 2]);
        assert_eq!(c[1].constituents, vec![1, 3]);
    }

    #[test]
    fn window_end_abandons_active_matches() {
        let q = query(ConsumptionPolicy::All, SelectionPolicy::Once);
        let mut det = WindowDetector::new(q, 0);
        let mut out = run(&mut det, &[ev(1, 1.0)]);
        det.on_window_end(&mut out);
        assert!(matches!(
            out.last().unwrap(),
            DetectorAction::Abandoned { .. }
        ));
        assert_eq!(det.active_matches().count(), 0);
    }

    #[test]
    fn delta_is_exposed_per_match() {
        let q = query(ConsumptionPolicy::All, SelectionPolicy::Once);
        let mut det = WindowDetector::new(q, 0);
        let mut out = Vec::new();
        det.on_event(&ev(1, 1.0), &mut out);
        let id = det.active_matches().next().unwrap();
        assert_eq!(det.delta(id), Some(1));
    }

    #[test]
    fn consumed_current_event_is_withheld_from_younger_matches() {
        // pattern A then B, max_active 2, ConsumptionPolicy::All.
        // A@1 starts m0; A@2 starts m1; B@3 completes m0 consuming {1,3} —
        // so B@3 must NOT also feed m1; B@4 then completes m1 as {2,4}.
        let q = Arc::new(
            Query::builder("t")
                .pattern(
                    Pattern::builder()
                        .one("A", x_is(1.0))
                        .one("B", x_is(2.0))
                        .build()
                        .unwrap(),
                )
                .window(WindowSpec::count_sliding(100, 100).unwrap())
                .consumption(ConsumptionPolicy::All)
                .max_active(2)
                .build()
                .unwrap(),
        );
        let mut det = WindowDetector::new(q, 0);
        let actions = run(&mut det, &[ev(1, 1.0), ev(2, 1.0), ev(3, 2.0), ev(4, 2.0)]);
        let c = completions(&actions);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].constituents, vec![1, 3]);
        assert_eq!(c[1].constituents, vec![2, 4]);
    }

    #[test]
    fn consumption_abandons_conflicting_sibling_matches() {
        // pattern A then B+ then C with max_active 2 and All consumption.
        // Both matches absorb the same B@3; when m0 completes with C@4,
        // B@3 is consumed, so m1 (which also holds B@3) must be abandoned.
        let q = Arc::new(
            Query::builder("t")
                .pattern(
                    Pattern::builder()
                        .one("A", x_is(1.0))
                        .plus("B", x_is(2.0))
                        .one("C", x_is(3.0))
                        .build()
                        .unwrap(),
                )
                .window(WindowSpec::count_sliding(100, 100).unwrap())
                .consumption(ConsumptionPolicy::All)
                .max_active(2)
                .build()
                .unwrap(),
        );
        let mut det = WindowDetector::new(q, 0);
        // A@1 -> m0; A@2 -> m1 (not absorbed by m0: A pred only matches 1.0
        // once bound? both matches at step B... careful: m0 at step B ignores
        // A@2; m0 doesn't absorb so m1 starts). B@3 feeds both. C@4
        // completes m0 consuming {1,3,4}; m1 holds {2,3} -> abandoned.
        let actions = run(&mut det, &[ev(1, 1.0), ev(2, 1.0), ev(3, 2.0), ev(4, 3.0)]);
        let c = completions(&actions);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].constituents, vec![1, 3, 4]);
        let abandoned = actions
            .iter()
            .filter(|a| matches!(a, DetectorAction::Abandoned { .. }))
            .count();
        assert_eq!(abandoned, 1);
    }

    /// `query`'s pattern on a window that opens on `A` (anchored).
    fn anchored(selection: SelectionPolicy) -> Arc<Query> {
        let q = query(ConsumptionPolicy::None, selection);
        Arc::new(
            Query::builder("anchored")
                .pattern_arc(Arc::clone(q.pattern()))
                .window(WindowSpec::on_match_count(None, x_is(1.0), 100).unwrap())
                .selection(selection)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn an_anchored_window_is_spent_once_its_single_match_resolves() {
        let mut det = WindowDetector::new(anchored(SelectionPolicy::Once), 0);
        assert!(!det.is_spent(), "no event seen yet");
        run(&mut det, &[ev(1, 1.0), ev(2, 0.0)]);
        assert!(!det.is_spent(), "the match is still active");
        let actions = run(&mut det, &[ev(3, 2.0)]);
        assert_eq!(completions(&actions).len(), 1);
        assert!(det.is_spent());
        // Nothing later starts a match: the window's output is final.
        assert!(run(&mut det, &[ev(4, 1.0), ev(5, 2.0)]).is_empty());
        assert!(det.is_spent());

        // A first event that starts nothing spends the window at once.
        let mut det = WindowDetector::new(anchored(SelectionPolicy::Once), 1);
        run(&mut det, &[ev(1, 0.0)]);
        assert!(det.is_spent());
    }

    #[test]
    fn rearmed_and_unanchored_matches_are_never_spent() {
        // `EachLast` keeps the completed match active for later B events.
        let mut det = WindowDetector::new(anchored(SelectionPolicy::EachLast), 0);
        run(&mut det, &[ev(1, 1.0), ev(2, 2.0)]);
        assert_eq!(det.completed_count(), 1);
        assert!(!det.is_spent());
        // A sliding window may start a match on any event.
        let q = query(ConsumptionPolicy::None, SelectionPolicy::Once);
        let mut det = WindowDetector::new(q, 0);
        run(&mut det, &[ev(1, 1.0), ev(2, 2.0)]);
        assert_eq!(det.completed_count(), 1);
        assert!(!det.is_spent());
    }

    #[test]
    fn events_seen_counts_only_fed_events() {
        let q = query(ConsumptionPolicy::All, SelectionPolicy::Once);
        let mut det = WindowDetector::new(q, 0);
        run(&mut det, &[ev(1, 0.0), ev(2, 0.0)]);
        assert_eq!(det.events_seen(), 2);
    }

    /// `A B C` (values 1, 2, 3) on `window`.
    fn abc(window: WindowSpec) -> Arc<Query> {
        Arc::new(
            Query::builder("abc")
                .pattern(
                    Pattern::builder()
                        .one("A", x_is(1.0))
                        .one("B", x_is(2.0))
                        .one("C", x_is(3.0))
                        .build()
                        .unwrap(),
                )
                .window(window)
                .build()
                .unwrap(),
        )
    }

    fn abandons(actions: &[DetectorAction]) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, DetectorAction::Abandoned { .. }))
            .count()
    }

    #[test]
    fn an_anchored_count_window_abandons_a_match_once_it_cannot_fit() {
        let window = WindowSpec::on_match_count(None, x_is(1.0), 5).unwrap();
        // After A the match needs 2 more events. At 3 positions seen, 2
        // are left: it still fits.
        let mut det = WindowDetector::new(abc(window.clone()), 0);
        let actions = run(&mut det, &[ev(1, 1.0), ev(2, 0.0), ev(3, 0.0)]);
        assert_eq!(abandons(&actions), 0);
        assert!(!det.is_spent());
        // At 4 positions only 1 is left: abandoned right there.
        let actions = run(&mut det, &[ev(4, 0.0)]);
        assert_eq!(
            actions,
            vec![DetectorAction::Abandoned {
                match_id: MatchId(0)
            }]
        );
        assert!(det.is_spent());

        // A match that needs exactly the positions left completes on the
        // window's last one.
        let mut det = WindowDetector::new(abc(window), 0);
        let actions = run(&mut det, &[ev(1, 1.0), ev(2, 0.0), ev(3, 0.0), ev(4, 2.0)]);
        assert_eq!(abandons(&actions), 0);
        let actions = run(&mut det, &[ev(5, 3.0)]);
        assert_eq!(completions(&actions).len(), 1);

        // A window shorter than the pattern abandons on its first event.
        let short = WindowSpec::on_match_count(None, x_is(1.0), 2).unwrap();
        let mut det = WindowDetector::new(abc(short), 0);
        let actions = run(&mut det, &[ev(1, 1.0)]);
        assert!(matches!(actions[0], DetectorAction::MatchStarted { .. }));
        assert_eq!(abandons(&actions), 1);
        assert!(det.is_spent());
    }

    #[test]
    fn a_suppressed_position_abandons_a_match_that_no_longer_fits() {
        let window = WindowSpec::on_match_count(None, x_is(1.0), 5).unwrap();
        let mut det = WindowDetector::new(abc(window), 0);
        let mut out = run(&mut det, &[ev(1, 1.0), ev(2, 0.0)]);
        det.on_suppressed(&mut out);
        assert_eq!(abandons(&out), 0, "2 positions left, 2 needed");
        assert!(!det.is_spent());
        out.clear();
        det.on_suppressed(&mut out);
        assert_eq!(
            out,
            vec![DetectorAction::Abandoned {
                match_id: MatchId(0)
            }]
        );
        assert!(det.is_spent());
        assert_eq!(det.events_seen(), 4, "suppressed positions count");
    }

    #[test]
    fn sliding_and_time_windows_never_abandon_early() {
        let windows = [
            WindowSpec::count_sliding(5, 5).unwrap(),
            WindowSpec::on_match_time(None, x_is(1.0), 5).unwrap(),
        ];
        for window in windows {
            let mut det = WindowDetector::new(abc(window), 0);
            let mut out = run(&mut det, &[ev(1, 1.0), ev(2, 0.0), ev(3, 0.0)]);
            det.on_suppressed(&mut out);
            out.extend(run(&mut det, &[ev(5, 0.0)]));
            assert_eq!(abandons(&out), 0);
            assert_eq!(det.active_matches().count(), 1);
            assert!(!det.is_spent());
        }
    }
}
