//! Pattern structure: steps, element matchers and the pattern builder.

use std::fmt;

use spectre_events::EventType;

use crate::expr::Expr;

/// Dense id of a *binding element* of a pattern: something an event can be
/// bound to (a sequence step, a Kleene step or a set member).
///
/// Negation guards do not bind events and therefore have no `ElemId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ElemId(u16);

impl ElemId {
    /// Creates an id from a raw index.
    pub const fn new(raw: u16) -> Self {
        Self(raw)
    }

    /// Raw index, usable for dense tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ElemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ElemId({})", self.0)
    }
}

/// Dense id of a pattern step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StepId(u16);

impl StepId {
    /// Creates an id from a raw index.
    pub const fn new(raw: u16) -> Self {
        Self(raw)
    }

    /// Raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single-event matcher: name, optional event-type filter and predicate.
///
/// The predicate is evaluated with the candidate event as
/// [`ElemRef::Current`](crate::ElemRef::Current) and earlier bindings
/// available via [`ElemRef::Bound`](crate::ElemRef::Bound).
#[derive(Debug, Clone)]
pub struct ElemMatcher {
    /// Element name as written in the query (e.g. `"RE1"`).
    pub name: String,
    /// Binding slot; `None` for negation guards, which never bind.
    pub elem: Option<ElemId>,
    /// Optional event-type filter applied before the predicate.
    pub event_type: Option<EventType>,
    /// Predicate over the candidate event (and earlier bindings).
    pub pred: Expr,
}

/// The kind of a pattern step.
#[derive(Debug, Clone)]
pub enum StepKind {
    /// Exactly one event (`A`).
    One(ElemMatcher),
    /// One or more events (`B+`). SPECTRE uses deterministic
    /// *skip-till-next-match* semantics: once entered, an event matching the
    /// *next* step advances the match, otherwise an event matching this step
    /// is absorbed.
    Plus(ElemMatcher),
    /// An unordered set (`SET(X1 … Xn)`): every member must match exactly one
    /// event, in any order (paper query Q3). At most 128 members.
    Set(Vec<ElemMatcher>),
}

impl StepKind {
    /// Minimum number of events this step still needs when fresh.
    pub fn min_events(&self) -> usize {
        match self {
            StepKind::One(_) | StepKind::Plus(_) => 1,
            StepKind::Set(members) => members.len(),
        }
    }
}

/// One step of a pattern, with the negation guards active while the match
/// waits at this step.
///
/// A guard firing abandons the partial match — the paper's example of a
/// sequence `A … B` with "no event of type C in between" attaches a guard
/// for `C` to the `B` step (§3.1).
#[derive(Debug, Clone)]
pub struct Step {
    /// The step's id (== its position).
    pub id: StepId,
    /// What the step matches.
    pub kind: StepKind,
    /// Negation guards active while this step is pending.
    pub forbid: Vec<ElemMatcher>,
}

/// Error raised by [`PatternBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// The pattern has no steps.
    Empty,
    /// Two binding elements share a name.
    DuplicateName(String),
    /// A `SET` step has no members.
    EmptySet,
    /// A `SET` step has more than 128 members.
    SetTooLarge(usize),
    /// `forbid` was called but no subsequent step was added to attach to.
    DanglingGuard(String),
    /// More than `u16::MAX` binding elements.
    TooManyElems,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::Empty => write!(f, "pattern has no steps"),
            PatternError::DuplicateName(n) => write!(f, "duplicate element name `{n}`"),
            PatternError::EmptySet => write!(f, "SET step has no members"),
            PatternError::SetTooLarge(n) => write!(f, "SET step has {n} members, maximum is 128"),
            PatternError::DanglingGuard(n) => {
                write!(f, "negation guard `{n}` has no following step")
            }
            PatternError::TooManyElems => write!(f, "too many binding elements"),
        }
    }
}

impl std::error::Error for PatternError {}

/// An event pattern: an ordered list of [`Step`]s.
///
/// Patterns are immutable once built; engines share them behind an `Arc`.
///
/// # Example
///
/// ```
/// use spectre_events::Schema;
/// use spectre_query::{Expr, Pattern};
///
/// let mut schema = Schema::new();
/// let close = schema.attr("close");
/// // A (close < 10) followed by one-or-more B (close >= 10)
/// let pattern = Pattern::builder()
///     .one("A", Expr::current(close).lt(Expr::value(10.0)))
///     .plus("B", Expr::current(close).ge(Expr::value(10.0)))
///     .build()?;
/// assert_eq!(pattern.step_count(), 2);
/// assert_eq!(pattern.max_delta(), 2);
/// # Ok::<(), spectre_query::pattern::PatternError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Pattern {
    steps: Vec<Step>,
    elem_names: Vec<String>,
    /// Σ `min_events` over the steps, computed once at build time.
    max_delta: usize,
    /// The elements some predicate or guard reads through
    /// [`ElemRef::Bound`](crate::ElemRef::Bound), ascending.
    referenced: Vec<ElemId>,
}

impl Pattern {
    /// Starts building a pattern.
    pub fn builder() -> PatternBuilder {
        PatternBuilder::default()
    }

    /// The pattern's steps in order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Number of binding elements (slots a [`PartialMatch`](crate::PartialMatch)
    /// allocates).
    pub fn elem_count(&self) -> usize {
        self.elem_names.len()
    }

    /// The minimum number of events a fresh match needs to complete — the
    /// initial completion distance δ of the paper's Markov model (§3.2.1).
    pub fn max_delta(&self) -> usize {
        self.max_delta
    }

    /// The binding elements that some predicate or negation guard reads
    /// (through [`ElemRef::Bound`](crate::ElemRef::Bound)), ascending. A
    /// [`PartialMatch`](crate::PartialMatch) keeps the bound event of
    /// these elements only; for a pattern whose predicates read the current
    /// event alone (the paper's Q1–Q3) the list is empty.
    pub fn referenced_elems(&self) -> &[ElemId] {
        &self.referenced
    }

    /// Name of a binding element.
    pub fn elem_name(&self, elem: ElemId) -> Option<&str> {
        self.elem_names.get(elem.index()).map(String::as_str)
    }

    /// Looks up a binding element by name.
    pub fn elem_by_name(&self, name: &str) -> Option<ElemId> {
        self.elem_names
            .iter()
            .position(|n| n == name)
            .map(|i| ElemId::new(i as u16))
    }

    /// The matcher(s) able to start a fresh match (step 0).
    pub fn first_step(&self) -> &Step {
        &self.steps[0]
    }
}

/// Builder for [`Pattern`]; see [`Pattern::builder`].
#[derive(Debug, Default)]
pub struct PatternBuilder {
    steps: Vec<Step>,
    elem_names: Vec<String>,
    pending_forbid: Vec<ElemMatcher>,
    error: Option<PatternError>,
}

impl PatternBuilder {
    fn alloc_elem(&mut self, name: &str) -> Option<ElemId> {
        if self.elem_names.iter().any(|n| n == name) {
            self.error
                .get_or_insert(PatternError::DuplicateName(name.to_owned()));
            return None;
        }
        if self.elem_names.len() > u16::MAX as usize {
            self.error.get_or_insert(PatternError::TooManyElems);
            return None;
        }
        let id = ElemId::new(self.elem_names.len() as u16);
        self.elem_names.push(name.to_owned());
        Some(id)
    }

    fn push_step(&mut self, kind: StepKind) {
        let id = StepId::new(self.steps.len() as u16);
        let forbid = std::mem::take(&mut self.pending_forbid);
        self.steps.push(Step { id, kind, forbid });
    }

    /// Adds a single-event step.
    pub fn one(mut self, name: &str, pred: Expr) -> Self {
        if let Some(elem) = self.alloc_elem(name) {
            self.push_step(StepKind::One(ElemMatcher {
                name: name.to_owned(),
                elem: Some(elem),
                event_type: None,
                pred,
            }));
        }
        self
    }

    /// Adds a single-event step with an event-type filter.
    pub fn one_typed(mut self, name: &str, event_type: EventType, pred: Expr) -> Self {
        if let Some(elem) = self.alloc_elem(name) {
            self.push_step(StepKind::One(ElemMatcher {
                name: name.to_owned(),
                elem: Some(elem),
                event_type: Some(event_type),
                pred,
            }));
        }
        self
    }

    /// Adds a Kleene-`+` step (one or more events).
    pub fn plus(mut self, name: &str, pred: Expr) -> Self {
        if let Some(elem) = self.alloc_elem(name) {
            self.push_step(StepKind::Plus(ElemMatcher {
                name: name.to_owned(),
                elem: Some(elem),
                event_type: None,
                pred,
            }));
        }
        self
    }

    /// Adds an unordered `SET` step; each `(name, pred)` member must match
    /// exactly one event.
    pub fn set(mut self, members: Vec<(String, Expr)>) -> Self {
        if members.is_empty() {
            self.error.get_or_insert(PatternError::EmptySet);
            return self;
        }
        if members.len() > 128 {
            self.error
                .get_or_insert(PatternError::SetTooLarge(members.len()));
            return self;
        }
        let mut ms = Vec::with_capacity(members.len());
        for (name, pred) in members {
            match self.alloc_elem(&name) {
                Some(elem) => ms.push(ElemMatcher {
                    name,
                    elem: Some(elem),
                    event_type: None,
                    pred,
                }),
                None => return self,
            }
        }
        self.push_step(StepKind::Set(ms));
        self
    }

    /// Adds a negation guard active while the *next added* step is pending:
    /// an event matching `pred` abandons the partial match.
    pub fn forbid(mut self, name: &str, pred: Expr) -> Self {
        self.pending_forbid.push(ElemMatcher {
            name: name.to_owned(),
            elem: None,
            event_type: None,
            pred,
        });
        self
    }

    /// Finishes the pattern.
    ///
    /// # Errors
    ///
    /// Returns a [`PatternError`] for empty patterns, duplicate names, empty
    /// or oversized sets, or a trailing [`forbid`](Self::forbid) with no
    /// following step.
    pub fn build(self) -> Result<Pattern, PatternError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if let Some(guard) = self.pending_forbid.first() {
            return Err(PatternError::DanglingGuard(guard.name.clone()));
        }
        if self.steps.is_empty() {
            return Err(PatternError::Empty);
        }
        let mut referenced = Vec::new();
        for step in &self.steps {
            let members = match &step.kind {
                StepKind::One(m) | StepKind::Plus(m) => std::slice::from_ref(m),
                StepKind::Set(members) => members,
            };
            for m in members.iter().chain(&step.forbid) {
                m.pred.referenced_elems(&mut referenced);
            }
        }
        referenced.sort_unstable();
        Ok(Pattern {
            max_delta: self.steps.iter().map(|s| s.kind.min_events()).sum(),
            steps: self.steps,
            elem_names: self.elem_names,
            referenced,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn t() -> Expr {
        Expr::truth()
    }

    #[test]
    fn builds_sequence_pattern() {
        let p = Pattern::builder()
            .one("A", t())
            .plus("B", t())
            .one("C", t())
            .build()
            .unwrap();
        assert_eq!(p.step_count(), 3);
        assert_eq!(p.elem_count(), 3);
        assert_eq!(p.max_delta(), 3);
        assert_eq!(p.elem_by_name("B"), Some(ElemId::new(1)));
        assert_eq!(p.elem_name(ElemId::new(2)), Some("C"));
    }

    #[test]
    fn set_counts_members_in_delta() {
        let p = Pattern::builder()
            .one("A", t())
            .set(vec![
                ("X1".into(), t()),
                ("X2".into(), t()),
                ("X3".into(), t()),
            ])
            .build()
            .unwrap();
        assert_eq!(p.step_count(), 2);
        assert_eq!(p.elem_count(), 4);
        assert_eq!(p.max_delta(), 4);
    }

    #[test]
    fn rejects_empty_pattern() {
        assert_eq!(Pattern::builder().build().unwrap_err(), PatternError::Empty);
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = Pattern::builder()
            .one("A", t())
            .one("A", t())
            .build()
            .unwrap_err();
        assert_eq!(err, PatternError::DuplicateName("A".into()));
    }

    #[test]
    fn rejects_duplicate_name_inside_set() {
        let err = Pattern::builder()
            .one("A", t())
            .set(vec![("A".into(), t())])
            .build()
            .unwrap_err();
        assert_eq!(err, PatternError::DuplicateName("A".into()));
    }

    #[test]
    fn rejects_empty_and_oversized_sets() {
        assert_eq!(
            Pattern::builder().set(vec![]).build().unwrap_err(),
            PatternError::EmptySet
        );
        let members: Vec<_> = (0..129).map(|i| (format!("X{i}"), t())).collect();
        assert_eq!(
            Pattern::builder().set(members).build().unwrap_err(),
            PatternError::SetTooLarge(129)
        );
    }

    #[test]
    fn rejects_dangling_guard() {
        let err = Pattern::builder()
            .one("A", t())
            .forbid("C", t())
            .build()
            .unwrap_err();
        assert_eq!(err, PatternError::DanglingGuard("C".into()));
    }

    #[test]
    fn guard_attaches_to_next_step() {
        let p = Pattern::builder()
            .one("A", t())
            .forbid("C", t())
            .one("B", t())
            .build()
            .unwrap();
        assert!(p.steps()[0].forbid.is_empty());
        assert_eq!(p.steps()[1].forbid.len(), 1);
        assert_eq!(p.steps()[1].forbid[0].name, "C");
        // guards do not allocate binding slots
        assert_eq!(p.elem_count(), 2);
        assert_eq!(p.elem_by_name("C"), None);
    }

    #[test]
    fn large_fixed_pattern() {
        // Q1-like: MLE followed by 2560 REs.
        let mut b = Pattern::builder().one("MLE", t());
        for i in 0..2560 {
            b = b.one(&format!("RE{i}"), t());
        }
        let p = b.build().unwrap();
        assert_eq!(p.step_count(), 2561);
        assert_eq!(p.max_delta(), 2561);
    }
}
