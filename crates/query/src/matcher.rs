use std::sync::Arc;

use spectre_events::{Event, Seq};

use crate::expr::EvalContext;
use crate::pattern::{ElemId, ElemMatcher, Pattern, StepKind};

/// Result of feeding one event into a [`PartialMatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedOutcome {
    /// The event did not affect the match.
    Ignored,
    /// The event was bound/absorbed by element `elem`; the match is still
    /// partial.
    Absorbed {
        /// Element that absorbed the event.
        elem: ElemId,
    },
    /// The event was absorbed and completed the pattern.
    Completed {
        /// Element that absorbed the completing event.
        elem: ElemId,
    },
    /// A negation guard fired; the match (and its consumption group) is
    /// abandoned.
    Abandoned,
}

/// An incremental partial match of a [`Pattern`] (paper §3.1).
///
/// A partial match walks the pattern's steps in order. Its *completion
/// distance* δ — the minimum number of further events required to complete —
/// is the state variable of SPECTRE's Markov completion-probability model
/// (paper §3.2.1, Fig. 5). Every event bound to an element lowers δ by
/// exactly one (a Kleene step's later absorptions bind nothing and leave it
/// alone), so the match keeps δ as a counter: [`delta`](Self::delta) is
/// O(1), whatever the pattern's length.
///
/// A match records every absorbed event as an `(element, seq)` pair in
/// [`participants`](Self::participants), and keeps a copy of a bound
/// event only for the elements some predicate or guard reads later
/// ([`Pattern::referenced_elems`]). A pattern that reads no binding — the
/// paper's Q1–Q3 — allocates no binding slots and copies no event.
///
/// Semantics (deterministic *skip-till-next-match*):
///
/// * events matching nothing are skipped,
/// * `One` steps bind the first matching event and advance,
/// * `Plus` steps absorb matching events greedily but yield to the *next*
///   step as soon as it matches; a trailing `Plus` completes on its first
///   match (minimal-match semantics),
/// * `Set` steps bind each member to the first event matching it, in any
///   event order; ties between members resolve in member order,
/// * negation guards of the pending step abandon the match when they fire.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use spectre_events::{Event, Schema};
/// use spectre_query::{Expr, FeedOutcome, PartialMatch, Pattern};
///
/// let mut schema = Schema::new();
/// let ty = schema.event_type("E");
/// let x = schema.attr("x");
/// let pattern = Arc::new(
///     Pattern::builder()
///         .one("A", Expr::current(x).lt(Expr::value(0.0)))
///         .one("B", Expr::current(x).gt(Expr::value(0.0)))
///         .build()?,
/// );
/// let mut m = PartialMatch::new(pattern);
/// assert_eq!(m.delta(), 2);
/// let a = Event::builder(ty).seq(1).attr(x, -1.0).build();
/// let b = Event::builder(ty).seq(2).attr(x, 1.0).build();
/// m.feed(&a);
/// assert_eq!(m.delta(), 1);
/// assert!(matches!(m.feed(&b), FeedOutcome::Completed { .. }));
/// # Ok::<(), spectre_query::pattern::PatternError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PartialMatch {
    pattern: Arc<Pattern>,
    step: usize,
    plus_entered: bool,
    set_mask: u128,
    /// The completion distance δ, kept in step with `bind`.
    delta: usize,
    /// Bound events by element index, kept for the pattern's referenced
    /// elements only; empty when it has none.
    bindings: Vec<Option<Event>>,
    participants: Vec<(ElemId, Seq)>,
    abandoned: bool,
    complete: bool,
}

struct Ctx<'a> {
    current: &'a Event,
    bindings: &'a [Option<Event>],
}

impl EvalContext for Ctx<'_> {
    fn current(&self) -> &Event {
        self.current
    }
    fn bound(&self, elem: ElemId) -> Option<&Event> {
        self.bindings.get(elem.index())?.as_ref()
    }
}

impl PartialMatch {
    /// Creates a fresh match at the first step.
    pub fn new(pattern: Arc<Pattern>) -> Self {
        let bindings = match pattern.referenced_elems().last() {
            Some(last) => vec![None; last.index() + 1],
            None => Vec::new(),
        };
        let delta = pattern.max_delta();
        PartialMatch {
            pattern,
            step: 0,
            plus_entered: false,
            set_mask: 0,
            delta,
            bindings,
            participants: Vec::new(),
            abandoned: false,
            complete: false,
        }
    }

    /// Tests whether `ev` could start a fresh match of `pattern` (i.e.
    /// matches the first step with no bindings).
    pub fn event_starts(pattern: &Pattern, ev: &Event) -> bool {
        let bindings: [Option<Event>; 0] = [];
        let ctx = Ctx {
            current: ev,
            bindings: &bindings,
        };
        match &pattern.first_step().kind {
            StepKind::One(m) | StepKind::Plus(m) => matcher_matches(m, &ctx),
            StepKind::Set(members) => members.iter().any(|m| matcher_matches(m, &ctx)),
        }
    }

    /// The match's pattern.
    pub fn pattern(&self) -> &Arc<Pattern> {
        &self.pattern
    }

    /// `true` once the pattern completed.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// `true` once a negation guard abandoned the match.
    pub fn is_abandoned(&self) -> bool {
        self.abandoned
    }

    /// The completion distance δ: the minimum number of additional events
    /// needed to complete the pattern (0 when complete). O(1): the match
    /// keeps it up to date as events bind.
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// Events absorbed so far as `(element, sequence number)` pairs, in
    /// absorption order. Kleene elements appear once per absorbed event.
    pub fn participants(&self) -> &[(ElemId, Seq)] {
        &self.participants
    }

    /// The sequence number of the event bound by `elem`, if any: its first
    /// entry in [`participants`](Self::participants), so Kleene elements
    /// report their first absorbed event.
    pub fn bound_seq(&self, elem: ElemId) -> Option<Seq> {
        self.participants
            .iter()
            .find(|(e, _)| *e == elem)
            .map(|&(_, seq)| seq)
    }

    /// Feeds the next window event into the match.
    ///
    /// Completed or abandoned matches ignore further events.
    pub fn feed(&mut self, ev: &Event) -> FeedOutcome {
        if self.complete || self.abandoned {
            return FeedOutcome::Ignored;
        }
        let steps = self.pattern.steps();

        // Negation guards of the pending step.
        {
            let ctx = Ctx {
                current: ev,
                bindings: &self.bindings,
            };
            if steps[self.step]
                .forbid
                .iter()
                .any(|g| matcher_matches(g, &ctx))
            {
                self.abandoned = true;
                return FeedOutcome::Abandoned;
            }
        }

        // If inside a Plus step, give the next step priority.
        if self.plus_entered && self.step + 1 < steps.len() {
            if let Some(elem) = self.try_apply(self.step + 1, ev) {
                return self.outcome_after_apply(elem);
            }
        }

        if let Some(elem) = self.try_apply(self.step, ev) {
            return self.outcome_after_apply(elem);
        }
        FeedOutcome::Ignored
    }

    /// Re-arms the last step after a completion: the last binding is removed
    /// and the match becomes partial again, waiting for another last-step
    /// event. Used by the `EachLast` selection policy ("first A, each B").
    ///
    /// # Panics
    ///
    /// Panics if the match is not complete or the last step is not
    /// [`StepKind::One`] (query validation enforces this).
    pub fn rearm_last(&mut self) {
        assert!(self.complete, "rearm_last on incomplete match");
        let steps = self.pattern.steps();
        let last = steps.len() - 1;
        let StepKind::One(m) = &steps[last].kind else {
            panic!("rearm_last requires a One last step");
        };
        let elem = m.elem.expect("binding element");
        if let Some(slot) = self.bindings.get_mut(elem.index()) {
            *slot = None;
        }
        if let Some(pos) = self.participants.iter().rposition(|(e, _)| *e == elem) {
            self.participants.remove(pos);
        }
        self.complete = false;
        self.step = last;
        self.plus_entered = false;
        self.set_mask = 0;
        // The re-armed `One` step needs one more event.
        self.delta = 1;
    }

    /// Attempts to apply `ev` at step `idx`; on success records the binding,
    /// advances the step cursor as appropriate and returns the element that
    /// absorbed the event.
    fn try_apply(&mut self, idx: usize, ev: &Event) -> Option<ElemId> {
        // Borrowed, not cloned: each arm decides with the pattern borrowed
        // and lets go of it before the match records the binding.
        let steps = self.pattern.steps();
        let last = steps.len() - 1;
        let ctx = Ctx {
            current: ev,
            bindings: &self.bindings,
        };
        match &steps[idx].kind {
            StepKind::One(m) => {
                if !matcher_matches(m, &ctx) {
                    return None;
                }
                let elem = m.elem.expect("binding element");
                self.bind(elem, ev);
                self.step = idx + 1;
                self.plus_entered = false;
                self.set_mask = 0;
                if idx == last {
                    self.complete = true;
                }
                Some(elem)
            }
            StepKind::Plus(m) => {
                if !matcher_matches(m, &ctx) {
                    return None;
                }
                let elem = m.elem.expect("binding element");
                let first = self.step != idx || !self.plus_entered;
                if first {
                    self.bind(elem, ev);
                } else {
                    // Subsequent absorption: record participation, keep the
                    // first event as the element's binding.
                    self.participants.push((elem, ev.seq()));
                }
                self.step = idx;
                self.plus_entered = true;
                self.set_mask = 0;
                if idx == last {
                    // Trailing Plus: minimal-match completion.
                    self.complete = true;
                }
                Some(elem)
            }
            StepKind::Set(members) => {
                let mask = if idx == self.step { self.set_mask } else { 0 };
                let (i, m) = members
                    .iter()
                    .enumerate()
                    .find(|&(i, m)| mask & (1u128 << i) == 0 && matcher_matches(m, &ctx))?;
                let elem = m.elem.expect("binding element");
                let full = mask | (1u128 << i);
                let done = full.count_ones() as usize == members.len();
                self.bind(elem, ev);
                self.plus_entered = false;
                if done {
                    self.step = idx + 1;
                    self.set_mask = 0;
                    if idx == last {
                        self.complete = true;
                    }
                } else {
                    self.step = idx;
                    self.set_mask = full;
                }
                Some(elem)
            }
        }
    }

    fn outcome_after_apply(&self, elem: ElemId) -> FeedOutcome {
        if self.complete {
            FeedOutcome::Completed { elem }
        } else {
            FeedOutcome::Absorbed { elem }
        }
    }

    /// Binds `ev` to `elem`: every binding satisfies one event of the
    /// pattern's minimum, so δ drops by one. The event itself is kept only
    /// if a later predicate reads `elem`.
    fn bind(&mut self, elem: ElemId, ev: &Event) {
        self.delta -= 1;
        if let Some(slot) = self.bindings.get_mut(elem.index()) {
            if self.pattern.referenced_elems().binary_search(&elem).is_ok() {
                *slot = Some(ev.clone());
            }
        }
        self.participants.push((elem, ev.seq()));
    }
}

fn matcher_matches(m: &ElemMatcher, ctx: &dyn EvalContext) -> bool {
    if let Some(ty) = m.event_type {
        if ctx.current().event_type() != ty {
            return false;
        }
    }
    m.pred.matches(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ElemRef, Expr};
    use spectre_events::{AttrKey, EventType, Schema};

    fn schema() -> (Schema, AttrKey) {
        let mut s = Schema::new();
        s.event_type("E");
        let x = s.attr("x");
        (s, x)
    }

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

    fn seq_pattern(vals: &[f64]) -> Arc<Pattern> {
        let mut b = Pattern::builder();
        for (i, v) in vals.iter().enumerate() {
            b = b.one(&format!("S{i}"), x_is(*v));
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn sequence_completes_in_order_skipping_noise() {
        let p = seq_pattern(&[1.0, 2.0, 3.0]);
        let mut m = PartialMatch::new(p);
        assert_eq!(m.delta(), 3);
        assert_eq!(m.feed(&ev(1, 9.0)), FeedOutcome::Ignored);
        assert!(matches!(m.feed(&ev(2, 1.0)), FeedOutcome::Absorbed { .. }));
        assert_eq!(m.delta(), 2);
        // out-of-order value for step 3 is skipped while waiting for step 2
        assert_eq!(m.feed(&ev(3, 3.0)), FeedOutcome::Ignored);
        assert!(matches!(m.feed(&ev(4, 2.0)), FeedOutcome::Absorbed { .. }));
        assert_eq!(m.delta(), 1);
        assert!(matches!(m.feed(&ev(5, 3.0)), FeedOutcome::Completed { .. }));
        assert_eq!(m.delta(), 0);
        assert!(m.is_complete());
        let seqs: Vec<_> = m.participants().iter().map(|(_, s)| *s).collect();
        assert_eq!(seqs, vec![2, 4, 5]);
    }

    #[test]
    fn completed_match_ignores_further_events() {
        let p = seq_pattern(&[1.0]);
        let mut m = PartialMatch::new(p);
        assert!(matches!(m.feed(&ev(1, 1.0)), FeedOutcome::Completed { .. }));
        assert_eq!(m.feed(&ev(2, 1.0)), FeedOutcome::Ignored);
    }

    #[test]
    fn kleene_absorbs_then_yields_to_next_step() {
        // A(1) B+(2) C(3)
        let p = Arc::new(
            Pattern::builder()
                .one("A", x_is(1.0))
                .plus("B", x_is(2.0))
                .one("C", x_is(3.0))
                .build()
                .unwrap(),
        );
        let mut m = PartialMatch::new(p.clone());
        m.feed(&ev(1, 1.0));
        assert_eq!(m.delta(), 2); // A bound; still needs ≥1 B and C
        assert!(matches!(m.feed(&ev(2, 2.0)), FeedOutcome::Absorbed { .. }));
        assert_eq!(m.delta(), 1); // plus entered, only C left
        assert!(matches!(m.feed(&ev(3, 2.0)), FeedOutcome::Absorbed { .. }));
        assert_eq!(m.delta(), 1);
        assert!(matches!(m.feed(&ev(4, 3.0)), FeedOutcome::Completed { .. }));
        let seqs: Vec<_> = m.participants().iter().map(|(_, s)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
        // B's binding is its first absorbed event
        let b = p.elem_by_name("B").unwrap();
        assert_eq!(m.bound_seq(b), Some(2));
    }

    #[test]
    fn kleene_requires_at_least_one() {
        let p = Arc::new(
            Pattern::builder()
                .one("A", x_is(1.0))
                .plus("B", x_is(2.0))
                .one("C", x_is(3.0))
                .build()
                .unwrap(),
        );
        let mut m = PartialMatch::new(p);
        m.feed(&ev(1, 1.0));
        // C before any B: the next step (B) hasn't been entered, so C is
        // ignored (B+ needs at least one event).
        assert_eq!(m.feed(&ev(2, 3.0)), FeedOutcome::Ignored);
        assert!(!m.is_complete());
    }

    #[test]
    fn trailing_kleene_completes_on_first_match() {
        let p = Arc::new(
            Pattern::builder()
                .one("A", x_is(1.0))
                .plus("B", x_is(2.0))
                .build()
                .unwrap(),
        );
        let mut m = PartialMatch::new(p);
        m.feed(&ev(1, 1.0));
        assert!(matches!(m.feed(&ev(2, 2.0)), FeedOutcome::Completed { .. }));
    }

    #[test]
    fn set_matches_in_any_order() {
        let p = Arc::new(
            Pattern::builder()
                .one("A", x_is(0.0))
                .set(vec![
                    ("X1".into(), x_is(1.0)),
                    ("X2".into(), x_is(2.0)),
                    ("X3".into(), x_is(3.0)),
                ])
                .build()
                .unwrap(),
        );
        let mut m = PartialMatch::new(p.clone());
        m.feed(&ev(1, 0.0));
        assert_eq!(m.delta(), 3);
        assert!(matches!(m.feed(&ev(2, 3.0)), FeedOutcome::Absorbed { .. }));
        assert_eq!(m.delta(), 2);
        assert_eq!(m.feed(&ev(3, 3.0)), FeedOutcome::Ignored); // already matched
        assert!(matches!(m.feed(&ev(4, 1.0)), FeedOutcome::Absorbed { .. }));
        assert!(matches!(m.feed(&ev(5, 2.0)), FeedOutcome::Completed { .. }));
        let x3 = p.elem_by_name("X3").unwrap();
        assert_eq!(m.bound_seq(x3), Some(2));
    }

    #[test]
    fn set_member_tie_breaks_by_member_order() {
        let p = Arc::new(
            Pattern::builder()
                .set(vec![("X1".into(), x_is(1.0)), ("X2".into(), x_is(1.0))])
                .build()
                .unwrap(),
        );
        let mut m = PartialMatch::new(p.clone());
        let FeedOutcome::Absorbed { elem } = m.feed(&ev(1, 1.0)) else {
            panic!("expected absorb");
        };
        assert_eq!(elem, p.elem_by_name("X1").unwrap());
        let FeedOutcome::Completed { elem } = m.feed(&ev(2, 1.0)) else {
            panic!("expected completion");
        };
        assert_eq!(elem, p.elem_by_name("X2").unwrap());
    }

    #[test]
    fn negation_guard_abandons() {
        let p = Arc::new(
            Pattern::builder()
                .one("A", x_is(1.0))
                .forbid("C", x_is(9.0))
                .one("B", x_is(2.0))
                .build()
                .unwrap(),
        );
        let mut m = PartialMatch::new(p);
        m.feed(&ev(1, 1.0));
        assert_eq!(m.feed(&ev(2, 9.0)), FeedOutcome::Abandoned);
        assert!(m.is_abandoned());
        assert_eq!(m.feed(&ev(3, 2.0)), FeedOutcome::Ignored);
    }

    #[test]
    fn guard_not_active_before_its_step() {
        let p = Arc::new(
            Pattern::builder()
                .one("A", x_is(1.0))
                .forbid("C", x_is(9.0))
                .one("B", x_is(2.0))
                .build()
                .unwrap(),
        );
        let mut m = PartialMatch::new(p);
        // the guard is attached to step B; while waiting for A it must not fire
        assert_eq!(m.feed(&ev(1, 9.0)), FeedOutcome::Ignored);
        assert!(!m.is_abandoned());
    }

    #[test]
    fn cross_element_predicate() {
        let (_s, x) = schema();
        // B.x > A.x
        let p = Arc::new(
            Pattern::builder()
                .one("A", Expr::truth())
                .one(
                    "B",
                    Expr::current(x).gt(Expr::attr(ElemRef::Bound(ElemId::new(0)), x)),
                )
                .build()
                .unwrap(),
        );
        let mut m = PartialMatch::new(p);
        m.feed(&ev(1, 5.0));
        assert_eq!(m.feed(&ev(2, 4.0)), FeedOutcome::Ignored);
        assert!(matches!(m.feed(&ev(3, 6.0)), FeedOutcome::Completed { .. }));
    }

    #[test]
    fn event_starts_checks_first_step_only() {
        let p = Pattern::builder()
            .one("A", x_is(1.0))
            .one("B", x_is(2.0))
            .build()
            .unwrap();
        assert!(PartialMatch::event_starts(&p, &ev(1, 1.0)));
        assert!(!PartialMatch::event_starts(&p, &ev(1, 2.0)));
        let set = Pattern::builder()
            .set(vec![("X".into(), x_is(1.0)), ("Y".into(), x_is(2.0))])
            .build()
            .unwrap();
        assert!(PartialMatch::event_starts(&set, &ev(1, 2.0)));
        assert!(!PartialMatch::event_starts(&set, &ev(1, 3.0)));
    }

    #[test]
    fn rearm_last_reopens_completed_match() {
        let p = Arc::new(
            Pattern::builder()
                .one("A", x_is(1.0))
                .one("B", x_is(2.0))
                .build()
                .unwrap(),
        );
        let mut m = PartialMatch::new(p.clone());
        m.feed(&ev(1, 1.0));
        assert!(matches!(m.feed(&ev(2, 2.0)), FeedOutcome::Completed { .. }));
        m.rearm_last();
        assert!(!m.is_complete());
        assert_eq!(m.delta(), 1);
        // A binding survives, B is free again
        assert_eq!(m.bound_seq(p.elem_by_name("A").unwrap()), Some(1));
        assert_eq!(m.bound_seq(p.elem_by_name("B").unwrap()), None);
        assert!(matches!(m.feed(&ev(3, 2.0)), FeedOutcome::Completed { .. }));
        let seqs: Vec<_> = m.participants().iter().map(|(_, s)| *s).collect();
        assert_eq!(seqs, vec![1, 3]);
    }

    /// δ recounted from scratch: the pending step's remainder plus every
    /// later step's minimum.
    fn recount(m: &PartialMatch) -> usize {
        if m.complete {
            return 0;
        }
        let steps = &m.pattern.steps()[m.step..];
        let pending = match &steps[0].kind {
            StepKind::One(_) => 1,
            StepKind::Plus(_) => usize::from(!m.plus_entered),
            StepKind::Set(members) => members.len() - m.set_mask.count_ones() as usize,
        };
        pending
            + steps[1..]
                .iter()
                .map(|s| s.kind.min_events())
                .sum::<usize>()
    }

    #[test]
    fn cached_delta_equals_a_recount_on_random_patterns() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let (mut completions, mut rearms) = (0, 0);
        for _ in 0..500 {
            let mut b = Pattern::builder();
            for s in 0..1 + next(6) {
                let name = format!("S{s}");
                b = match next(3) {
                    0 => b.one(&name, x_is(next(4) as f64)),
                    1 => b.plus(&name, x_is(next(4) as f64)),
                    _ => b.set(
                        (0..1 + next(3))
                            .map(|i| (format!("{name}.{i}"), x_is(next(4) as f64)))
                            .collect(),
                    ),
                };
            }
            let p = Arc::new(b.build().unwrap());
            let rearmable = matches!(p.steps().last().unwrap().kind, StepKind::One(_));
            let mut m = PartialMatch::new(p);
            assert_eq!(m.delta(), recount(&m));
            for seq in 0..40 {
                m.feed(&ev(seq, next(4) as f64));
                assert_eq!(m.delta(), recount(&m), "after feed");
                if m.is_complete() {
                    completions += 1;
                    if rearmable {
                        m.rearm_last();
                        rearms += 1;
                        assert_eq!(m.delta(), recount(&m), "after rearm_last");
                    }
                }
            }
        }
        assert!(completions > 100 && rearms > 100, "{completions} {rearms}");
    }

    #[test]
    fn paper_queries_keep_no_bound_event() {
        use crate::queries::{self, Direction, StockVocab};
        let mut schema = Schema::new();
        let q1 = queries::q1(&mut schema, 130, 200, Direction::Rising);
        let q2 = queries::q2(&mut schema, 60.0, 140.0, 300, 60);
        assert_eq!(q1.pattern().referenced_elems(), &[] as &[ElemId]);
        assert_eq!(q2.pattern().referenced_elems(), &[] as &[ElemId]);
        // A full Q1 window: a rising leader quote, then rising quotes.
        let v = StockVocab::install(&mut schema);
        let mut m = PartialMatch::new(Arc::clone(q1.pattern()));
        for seq in 0..200 {
            let quote = Event::builder(v.quote)
                .seq(seq)
                .attr(v.open_price, 10.0)
                .attr(v.close_price, 11.0)
                .attr(v.leading, seq == 0)
                .build();
            m.feed(&quote);
        }
        assert!(m.is_complete());
        assert_eq!(m.participants().len(), 131);
        assert_eq!(m.bound_seq(ElemId::new(130)), Some(130));
        assert!(m.bindings.is_empty() && m.bindings.capacity() == 0);
    }

    #[test]
    fn only_referenced_elements_keep_their_event() {
        let (_s, x) = schema();
        let (a, b) = (ElemId::new(0), ElemId::new(1));
        // C reads B; nothing reads A or C.
        let p = Arc::new(
            Pattern::builder()
                .one("A", x_is(1.0))
                .one("B", x_is(2.0))
                .one("C", Expr::current(x).gt(Expr::attr(ElemRef::Bound(b), x)))
                .build()
                .unwrap(),
        );
        assert_eq!(p.referenced_elems(), &[b]);
        let mut m = PartialMatch::new(p);
        for (seq, x) in [(1, 1.0), (2, 2.0), (3, 1.5), (4, 3.0)] {
            m.feed(&ev(seq, x));
        }
        assert!(m.is_complete());
        assert!(m.bindings[a.index()].is_none());
        assert_eq!(m.bindings[b.index()].as_ref().map(Event::seq), Some(2));
        assert_eq!(m.bindings.len(), 2, "no slot past the last read element");
        assert_eq!(m.bound_seq(a), Some(1));
    }

    #[test]
    fn delta_for_q1_like_pattern_decreases_monotonically() {
        let vals: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let p = seq_pattern(&vals);
        let mut m = PartialMatch::new(p);
        let mut prev = m.delta();
        assert_eq!(prev, 40);
        for (i, v) in vals.iter().enumerate() {
            m.feed(&ev(i as u64, *v));
            let d = m.delta();
            assert_eq!(d, prev - 1);
            prev = d;
        }
        assert!(m.is_complete());
    }
}
