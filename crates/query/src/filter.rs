//! Per-query ingestion prefilters: a conservative, pattern-derived test
//! for whether an event can possibly affect a query.
//!
//! The splitter consults an [`EventFilter`] at window-open time (and while
//! windows stay deferred) so a query only pays window-attach and
//! dependency-tree cost for windows that actually contain an event it can
//! match — see the "Multi-tenancy" section of `docs/ARCHITECTURE.md`.
//!
//! Derivation is purely static, once per deployed query: every binding
//! matcher of every step (and every negation guard, which can abandon a
//! match without binding) contributes one *alternative* consisting of its
//! optional event-type test and the self-contained conjuncts of its
//! predicate, unless an equal alternative is already kept (Q1's q
//! identical trend steps give one). An event is **relevant** when at least
//! one alternative accepts it.
//!
//! Conservative correctness: a conjunct is kept only when it references no
//! earlier binding ([`Expr::referenced_elems`] is empty), so it evaluates
//! identically in a current-event-only context and in any real match
//! context. `AND` evaluation is short-circuiting and `None`-propagating,
//! so one top-level conjunct evaluating to `false` (or failing to
//! evaluate) forces the whole predicate to not match — an event rejected
//! by every alternative can neither bind at any step nor trigger any
//! guard, anywhere, ever. Filters therefore never change what a query
//! computes, only which windows it attaches.

use spectre_events::{Event, EventType};

use crate::expr::{EvalContext, Expr};
use crate::pattern::{ElemId, ElemMatcher, StepKind};
use crate::query::Query;

/// Evaluation context exposing only the candidate event: earlier bindings
/// read as "not bound", which is exactly the state a fresh match is in.
struct CurrentOnly<'a>(&'a Event);

impl EvalContext for CurrentOnly<'_> {
    fn current(&self) -> &Event {
        self.0
    }
    fn bound(&self, _elem: ElemId) -> Option<&Event> {
        None
    }
}

/// The prefilter contribution of one element matcher: the event must have
/// the matcher's type (when one is declared) and satisfy every
/// self-contained top-level conjunct of its predicate.
#[derive(Debug, Clone, PartialEq)]
struct MatcherFilter {
    event_type: Option<EventType>,
    conjuncts: Vec<Expr>,
}

impl MatcherFilter {
    fn for_matcher(m: &ElemMatcher) -> MatcherFilter {
        let mut conjuncts = Vec::new();
        collect_conjuncts(&m.pred, &mut conjuncts);
        conjuncts.retain(|c| {
            // Drop constraints that either read earlier bindings (their
            // current-only value would not transfer to a real match
            // context) or can never fail (a literal `true` from
            // `Expr::truth()` patterns).
            let mut refs = Vec::new();
            c.referenced_elems(&mut refs);
            refs.is_empty() && !matches!(c, Expr::Const(v) if v.as_bool() == Some(true))
        });
        MatcherFilter {
            event_type: m.event_type,
            conjuncts,
        }
    }

    /// `true` when this alternative cannot exclude anything.
    fn is_pass_all(&self) -> bool {
        self.event_type.is_none() && self.conjuncts.is_empty()
    }

    fn passes(&self, event: &Event) -> bool {
        if let Some(ty) = self.event_type {
            if event.event_type() != ty {
                return false;
            }
        }
        let ctx = CurrentOnly(event);
        self.conjuncts.iter().all(|c| c.matches(&ctx))
    }
}

/// Flattens the top-level `AND` chain of `pred` into its conjuncts.
fn collect_conjuncts(pred: &Expr, out: &mut Vec<Expr>) {
    match pred {
        Expr::Binary(crate::expr::BinOp::And, lhs, rhs) => {
            collect_conjuncts(lhs, out);
            collect_conjuncts(rhs, out);
        }
        other => out.push(other.clone()),
    }
}

/// A conservative per-query event prefilter derived from the pattern (see
/// the module docs). Built once at deploy time with
/// [`EventFilter::for_query`]; consulted per event on the splitter's
/// window-open path via [`relevant`](EventFilter::relevant).
#[derive(Debug, Clone)]
pub struct EventFilter {
    alternatives: Vec<MatcherFilter>,
}

impl EventFilter {
    /// Derives the filter for `query`, or `None` when the pattern admits
    /// unconstrained events (some matcher has neither an event-type test
    /// nor any self-contained conjunct), in which case filtering cannot
    /// exclude anything and the caller should skip the per-event checks
    /// entirely.
    pub fn for_query(query: &Query) -> Option<EventFilter> {
        let mut alternatives = Vec::new();
        for step in query.pattern().steps() {
            let binding: &[ElemMatcher] = match &step.kind {
                StepKind::One(m) | StepKind::Plus(m) => std::slice::from_ref(m),
                StepKind::Set(members) => members,
            };
            for m in binding.iter().chain(step.forbid.iter()) {
                let alt = MatcherFilter::for_matcher(m);
                if alt.is_pass_all() {
                    return None;
                }
                if !alternatives.contains(&alt) {
                    alternatives.push(alt);
                }
            }
        }
        Some(EventFilter { alternatives })
    }

    /// `true` when `event` could bind at some step or trigger some guard
    /// of the query — i.e. the query might have to look at it. `false` is
    /// a proof of irrelevance: no window consisting solely of irrelevant
    /// events can produce output or consume anything.
    pub fn relevant(&self, event: &Event) -> bool {
        self.alternatives.iter().any(|alt| alt.passes(event))
    }

    /// Number of matcher alternatives (diagnostics).
    pub fn alternative_count(&self) -> usize {
        self.alternatives.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ConsumptionPolicy;
    use crate::queries::{self, Direction};
    use crate::window::WindowSpec;
    use crate::Pattern;
    use spectre_datasets::{NyseConfig, NyseGenerator};
    use spectre_events::Schema;

    fn quote(schema: &mut Schema, close: f64, open: f64) -> Event {
        let vocab = queries::StockVocab::install(schema);
        Event::builder(vocab.quote)
            .attr(vocab.open_price, open)
            .attr(vocab.close_price, close)
            .attr(vocab.leading, false)
            .build()
    }

    #[test]
    fn q2_filter_rejects_quotes_on_the_limits() {
        let mut schema = Schema::new();
        let q = queries::q2(&mut schema, 10.0, 20.0, 100, 10);
        let f = EventFilter::for_query(&q).expect("Q2 is fully constrained");
        // Below, between and above all bind somewhere.
        assert!(f.relevant(&quote(&mut schema, 5.0, 0.0)));
        assert!(f.relevant(&quote(&mut schema, 15.0, 0.0)));
        assert!(f.relevant(&quote(&mut schema, 25.0, 0.0)));
        // Exactly on a limit matches no step of Q2.
        assert!(!f.relevant(&quote(&mut schema, 10.0, 0.0)));
        assert!(!f.relevant(&quote(&mut schema, 20.0, 0.0)));
    }

    #[test]
    fn q1_filter_keeps_any_rising_quote() {
        let mut schema = Schema::new();
        let q = queries::q1(&mut schema, 3, 100, Direction::Rising);
        let f = EventFilter::for_query(&q).expect("Q1 is fully constrained");
        // A non-leading rising quote binds at the RE steps.
        assert!(f.relevant(&quote(&mut schema, 12.0, 10.0)));
        // Falling quotes bind nowhere in rising Q1.
        assert!(!f.relevant(&quote(&mut schema, 10.0, 12.0)));
    }

    #[test]
    fn repeated_steps_share_one_alternative() {
        let mut schema = Schema::new();
        let q = queries::q1(&mut schema, 130, 200, Direction::Rising);
        let f = EventFilter::for_query(&q).expect("Q1 is fully constrained");
        // The leader step and one alternative for the 130 equal trend steps.
        assert_eq!(f.alternative_count(), 2);
        // Relevance is unchanged: the same verdicts as every matcher's own
        // alternative, event by event, on a NYSE stream.
        let every: Vec<MatcherFilter> = q
            .pattern()
            .steps()
            .iter()
            .flat_map(|step| match &step.kind {
                StepKind::One(m) | StepKind::Plus(m) => vec![m.clone()],
                StepKind::Set(members) => members.clone(),
            })
            .map(|m| MatcherFilter::for_matcher(&m))
            .collect();
        let config = NyseConfig::small(5_000, 3);
        let mut relevant = 0;
        for event in NyseGenerator::new(config, &mut schema) {
            let expected = every.iter().any(|alt| alt.passes(&event));
            assert_eq!(f.relevant(&event), expected, "{event:?}");
            relevant += usize::from(expected);
        }
        assert!(relevant > 0 && relevant < 5_000, "{relevant}");
    }

    #[test]
    fn unconstrained_matcher_disables_the_filter() {
        let pattern = Pattern::builder().one("A", Expr::truth()).build().unwrap();
        let q = Query::builder("any")
            .pattern(pattern)
            .window(WindowSpec::count_sliding(4, 2).unwrap())
            .consumption(ConsumptionPolicy::All)
            .build()
            .unwrap();
        assert!(EventFilter::for_query(&q).is_none());
    }

    #[test]
    fn cross_element_conjuncts_are_ignored_conservatively() {
        let mut schema = Schema::new();
        let x = schema.attr("x");
        // B's predicate is (current.x > 0) AND (current.x > bound A.x); only
        // the self-contained first conjunct may prefilter.
        let pattern = Pattern::builder()
            .one("A", Expr::current(x).lt(Expr::value(0.0)))
            .one(
                "B",
                Expr::current(x)
                    .gt(Expr::value(0.0))
                    .and(Expr::current(x).gt(Expr::attr(crate::ElemRef::Bound(ElemId::new(0)), x))),
            )
            .build()
            .unwrap();
        let q = Query::builder("cross")
            .pattern(pattern)
            .window(WindowSpec::count_sliding(4, 2).unwrap())
            .build()
            .unwrap();
        let f = EventFilter::for_query(&q).expect("both matchers constrained");
        let ty = schema.event_type("T");
        let pos = Event::builder(ty).attr(x, 1.0).build();
        let neg = Event::builder(ty).attr(x, -1.0).build();
        let zero = Event::builder(ty).attr(x, 0.0).build();
        assert!(f.relevant(&pos));
        assert!(f.relevant(&neg));
        assert!(!f.relevant(&zero));
    }

    #[test]
    fn forbid_guards_keep_their_triggers_relevant() {
        let mut schema = Schema::new();
        let x = schema.attr("x");
        let pattern = Pattern::builder()
            .one("A", Expr::current(x).eq_(Expr::value(1.0)))
            .forbid("C", Expr::current(x).eq_(Expr::value(9.0)))
            .one("B", Expr::current(x).eq_(Expr::value(2.0)))
            .build()
            .unwrap();
        let q = Query::builder("guarded")
            .pattern(pattern)
            .window(WindowSpec::count_sliding(4, 2).unwrap())
            .build()
            .unwrap();
        let f = EventFilter::for_query(&q).expect("constrained");
        let ty = schema.event_type("T");
        // The guard's trigger must stay relevant even though it never binds.
        let trigger = Event::builder(ty).attr(x, 9.0).build();
        let noise = Event::builder(ty).attr(x, 7.0).build();
        assert!(f.relevant(&trigger));
        assert!(!f.relevant(&noise));
    }

    #[test]
    fn typed_matchers_filter_by_event_type() {
        let mut schema = Schema::new();
        let quote_ty = schema.event_type("Quote");
        let other_ty = schema.event_type("Other");
        let x = schema.attr("x");
        let pattern = Pattern::builder()
            .one_typed("A", quote_ty, Expr::truth())
            .build()
            .unwrap();
        let q = Query::builder("typed")
            .pattern(pattern)
            .window(WindowSpec::count_sliding(4, 2).unwrap())
            .build()
            .unwrap();
        let f = EventFilter::for_query(&q).expect("type test constrains");
        assert!(f.relevant(&Event::builder(quote_ty).attr(x, 1.0).build()));
        assert!(!f.relevant(&Event::builder(other_ty).attr(x, 1.0).build()));
        assert_eq!(f.alternative_count(), 1);
    }
}
