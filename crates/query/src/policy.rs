/// Selection policy: how many complex events one partial match may produce
/// within a window (paper §2.1, §5).
///
/// Event specification languages like Snoop, Amit and Tesla differentiate a
/// rich space of selection policies; SPECTRE's runtime is agnostic to the
/// concrete policy (paper §5) and this crate implements the two shapes the
/// paper's queries use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// Every partial match completes at most once; this is the "first"
    /// semantics used by Q1–Q3.
    #[default]
    Once,
    /// After completion the *last* pattern step is re-armed so each further
    /// matching event produces another complex event — the introduction's
    /// "first A, each B" policy of query QE (paper Fig. 1).
    ///
    /// Requires the pattern's last step to be a single-event step.
    EachLast,
}

/// Consumption policy: which constituents of a detected complex event are
/// *consumed*, i.e. excluded from further pattern detection in this and all
/// overlapping windows (paper §1, §2.1).
///
/// Consumption happens atomically when a match completes; partial matches
/// never consume (paper §2.1: "events are not consumed while they only build
/// a partial match").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ConsumptionPolicy {
    /// No event is consumed; windows stay independent (paper Fig. 1a).
    #[default]
    None,
    /// All constituent events are consumed (queries Q1–Q3).
    All,
    /// Only the events bound by the named pattern elements are consumed,
    /// e.g. "selected B" in paper Fig. 1b.
    Selected(Vec<String>),
}

impl ConsumptionPolicy {
    /// `true` if completions can never consume anything — such queries have
    /// no inter-window dependencies and SPECTRE degenerates to plain window
    /// parallelism.
    pub fn is_none(&self) -> bool {
        matches!(self, ConsumptionPolicy::None)
            || matches!(self, ConsumptionPolicy::Selected(v) if v.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        assert_eq!(SelectionPolicy::default(), SelectionPolicy::Once);
        assert_eq!(ConsumptionPolicy::default(), ConsumptionPolicy::None);
    }

    #[test]
    fn is_none_detection() {
        assert!(ConsumptionPolicy::None.is_none());
        assert!(ConsumptionPolicy::Selected(vec![]).is_none());
        assert!(!ConsumptionPolicy::All.is_none());
        assert!(!ConsumptionPolicy::Selected(vec!["B".into()]).is_none());
    }
}
