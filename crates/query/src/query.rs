use std::fmt;
use std::sync::Arc;

use crate::pattern::{Pattern, StepKind};
use crate::policy::{ConsumptionPolicy, SelectionPolicy};
use crate::window::WindowSpec;

/// A complete CEP query: pattern + window specification + selection and
/// consumption policies (paper §2.1, Fig. 9).
///
/// Queries are immutable and shared behind `Arc` by splitter and operator
/// instances.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use spectre_events::Schema;
/// use spectre_query::{ConsumptionPolicy, Expr, Pattern, Query, WindowSpec};
///
/// let mut schema = Schema::new();
/// let x = schema.attr("x");
/// let pattern = Pattern::builder()
///     .one("A", Expr::current(x).lt(Expr::value(0.0)))
///     .one("B", Expr::current(x).gt(Expr::value(0.0)))
///     .build()?;
/// let query = Query::builder("demo")
///     .pattern(pattern)
///     .window(WindowSpec::count_sliding(100, 10)?)
///     .consumption(ConsumptionPolicy::All)
///     .build()?;
/// assert!(query.consumable(spectre_query::ElemId::new(0)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    name: String,
    pattern: Arc<Pattern>,
    window: WindowSpec,
    selection: SelectionPolicy,
    consumption: ConsumptionPolicy,
    max_active: usize,
    consumable: Box<[bool]>,
}

/// Error raised by [`QueryBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// No pattern was supplied.
    MissingPattern,
    /// No window specification was supplied.
    MissingWindow,
    /// The consumption policy names an element the pattern does not bind.
    UnknownElement(String),
    /// `SelectionPolicy::EachLast` requires the last step to be a
    /// single-event step.
    EachLastNeedsOneLast,
    /// `max_active` of zero would disable detection entirely.
    ZeroMaxActive,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::MissingPattern => write!(f, "query has no pattern"),
            QueryError::MissingWindow => write!(f, "query has no window specification"),
            QueryError::UnknownElement(n) => {
                write!(f, "consumption policy names unknown element `{n}`")
            }
            QueryError::EachLastNeedsOneLast => {
                write!(f, "EachLast selection requires a single-event last step")
            }
            QueryError::ZeroMaxActive => write!(f, "max_active must be at least 1"),
        }
    }
}

impl std::error::Error for QueryError {}

impl Query {
    /// Starts building a query with the given name.
    pub fn builder(name: &str) -> QueryBuilder {
        QueryBuilder {
            name: name.to_owned(),
            pattern: None,
            window: None,
            selection: SelectionPolicy::default(),
            consumption: ConsumptionPolicy::default(),
            max_active: 1,
        }
    }

    /// The query's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pattern.
    pub fn pattern(&self) -> &Arc<Pattern> {
        &self.pattern
    }

    /// The window specification.
    pub fn window(&self) -> &WindowSpec {
        &self.window
    }

    /// The selection policy.
    pub fn selection(&self) -> SelectionPolicy {
        self.selection
    }

    /// The consumption policy.
    pub fn consumption(&self) -> &ConsumptionPolicy {
        &self.consumption
    }

    /// Maximum number of concurrently tracked partial matches per window
    /// (the paper's evaluations use 1, §4.2).
    pub fn max_active(&self) -> usize {
        self.max_active
    }

    /// `true` if events bound by `elem` are consumed on completion.
    pub fn consumable(&self, elem: crate::pattern::ElemId) -> bool {
        self.consumable.get(elem.index()).copied().unwrap_or(false)
    }
}

/// Builder for [`Query`]; see [`Query::builder`].
#[derive(Debug)]
pub struct QueryBuilder {
    name: String,
    pattern: Option<Arc<Pattern>>,
    window: Option<WindowSpec>,
    selection: SelectionPolicy,
    consumption: ConsumptionPolicy,
    max_active: usize,
}

impl QueryBuilder {
    /// Sets the pattern.
    pub fn pattern(mut self, pattern: Pattern) -> Self {
        self.pattern = Some(Arc::new(pattern));
        self
    }

    /// Sets an already shared pattern.
    pub fn pattern_arc(mut self, pattern: Arc<Pattern>) -> Self {
        self.pattern = Some(pattern);
        self
    }

    /// Sets the window specification.
    pub fn window(mut self, window: WindowSpec) -> Self {
        self.window = Some(window);
        self
    }

    /// Sets the selection policy (default [`SelectionPolicy::Once`]).
    pub fn selection(mut self, selection: SelectionPolicy) -> Self {
        self.selection = selection;
        self
    }

    /// Sets the consumption policy (default [`ConsumptionPolicy::None`]).
    pub fn consumption(mut self, consumption: ConsumptionPolicy) -> Self {
        self.consumption = consumption;
        self
    }

    /// Sets the maximum number of concurrent partial matches per window
    /// (default 1, the paper's evaluation setting).
    pub fn max_active(mut self, max_active: usize) -> Self {
        self.max_active = max_active;
        self
    }

    /// Finishes the query.
    ///
    /// # Errors
    ///
    /// Returns a [`QueryError`] if pattern or window are missing, the
    /// consumption policy names unknown elements, or the selection policy is
    /// incompatible with the pattern shape.
    pub fn build(self) -> Result<Query, QueryError> {
        let pattern = self.pattern.ok_or(QueryError::MissingPattern)?;
        let window = self.window.ok_or(QueryError::MissingWindow)?;
        if self.max_active == 0 {
            return Err(QueryError::ZeroMaxActive);
        }
        if self.selection == SelectionPolicy::EachLast {
            let last = pattern.steps().last().expect("non-empty pattern");
            if !matches!(last.kind, StepKind::One(_)) {
                return Err(QueryError::EachLastNeedsOneLast);
            }
        }
        let mut consumable = vec![false; pattern.elem_count()].into_boxed_slice();
        match &self.consumption {
            ConsumptionPolicy::None => {}
            ConsumptionPolicy::All => consumable.iter_mut().for_each(|b| *b = true),
            ConsumptionPolicy::Selected(names) => {
                for name in names {
                    let elem = pattern
                        .elem_by_name(name)
                        .ok_or_else(|| QueryError::UnknownElement(name.clone()))?;
                    consumable[elem.index()] = true;
                }
            }
        }
        Ok(Query {
            name: self.name,
            pattern,
            window,
            selection: self.selection,
            consumption: self.consumption,
            max_active: self.max_active,
            consumable,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::pattern::ElemId;

    fn pattern() -> Pattern {
        Pattern::builder()
            .one("A", Expr::truth())
            .plus("B", Expr::truth())
            .one("C", Expr::truth())
            .build()
            .unwrap()
    }

    fn window() -> WindowSpec {
        WindowSpec::count_sliding(10, 5).unwrap()
    }

    #[test]
    fn builds_with_selected_consumption() {
        let q = Query::builder("q")
            .pattern(pattern())
            .window(window())
            .consumption(ConsumptionPolicy::Selected(vec!["B".into()]))
            .build()
            .unwrap();
        assert!(!q.consumable(ElemId::new(0)));
        assert!(q.consumable(ElemId::new(1)));
        assert!(!q.consumable(ElemId::new(2)));
    }

    #[test]
    fn all_consumption_marks_everything() {
        let q = Query::builder("q")
            .pattern(pattern())
            .window(window())
            .consumption(ConsumptionPolicy::All)
            .build()
            .unwrap();
        for i in 0..3 {
            assert!(q.consumable(ElemId::new(i)));
        }
    }

    #[test]
    fn rejects_unknown_consumed_element() {
        let err = Query::builder("q")
            .pattern(pattern())
            .window(window())
            .consumption(ConsumptionPolicy::Selected(vec!["Z".into()]))
            .build()
            .unwrap_err();
        assert_eq!(err, QueryError::UnknownElement("Z".into()));
    }

    #[test]
    fn rejects_missing_parts() {
        assert_eq!(
            Query::builder("q").window(window()).build().unwrap_err(),
            QueryError::MissingPattern
        );
        assert_eq!(
            Query::builder("q").pattern(pattern()).build().unwrap_err(),
            QueryError::MissingWindow
        );
    }

    #[test]
    fn each_last_requires_one_last_step() {
        let trailing_plus = Pattern::builder()
            .one("A", Expr::truth())
            .plus("B", Expr::truth())
            .build()
            .unwrap();
        let err = Query::builder("q")
            .pattern(trailing_plus)
            .window(window())
            .selection(SelectionPolicy::EachLast)
            .build()
            .unwrap_err();
        assert_eq!(err, QueryError::EachLastNeedsOneLast);

        let ok = Query::builder("q")
            .pattern(pattern())
            .window(window())
            .selection(SelectionPolicy::EachLast)
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn rejects_zero_max_active() {
        let err = Query::builder("q")
            .pattern(pattern())
            .window(window())
            .max_active(0)
            .build()
            .unwrap_err();
        assert_eq!(err, QueryError::ZeroMaxActive);
    }
}
