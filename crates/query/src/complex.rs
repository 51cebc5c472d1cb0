use spectre_events::{Seq, Timestamp};

/// A complex event produced by a completed pattern match (paper §2.1).
///
/// Complex events are identified by the window they were detected in and the
/// sequence numbers of their constituent events; two engines produce "the
/// same" output iff their complex-event sets (with multiplicity and order)
/// agree — this is how the reproduction validates SPECTRE against the
/// sequential reference engine (paper §2.3: no false positives, no false
/// negatives).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComplexEvent {
    /// Id of the window the match completed in.
    pub window_id: u64,
    /// Timestamp of the completing event.
    pub ts: Timestamp,
    /// Sequence numbers of the constituent events, in absorption order.
    pub constituents: Vec<Seq>,
}

impl ComplexEvent {
    /// Creates a complex event.
    pub fn new(window_id: u64, ts: Timestamp, constituents: Vec<Seq>) -> Self {
        ComplexEvent {
            window_id,
            ts,
            constituents,
        }
    }

    /// Number of constituent events.
    pub fn len(&self) -> usize {
        self.constituents.len()
    }

    /// `true` if the complex event has no constituents (cannot happen for
    /// well-formed patterns; kept for container-API completeness).
    pub fn is_empty(&self) -> bool {
        self.constituents.is_empty()
    }
}

impl std::fmt::Display for ComplexEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}[", self.window_id)?;
        for (i, s) in self.constituents.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "e{s}")?;
        }
        write!(f, "]@{}", self.ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_window_then_ts_then_constituents() {
        let a = ComplexEvent::new(1, 5, vec![1, 2]);
        let b = ComplexEvent::new(1, 6, vec![1, 3]);
        let c = ComplexEvent::new(2, 0, vec![0]);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn display() {
        let e = ComplexEvent::new(3, 9, vec![1, 4, 7]);
        assert_eq!(e.to_string(), "w3[e1,e4,e7]@9");
    }

    #[test]
    fn len_and_is_empty() {
        let e = ComplexEvent::new(0, 0, vec![1]);
        assert_eq!(e.len(), 1);
        assert!(!e.is_empty());
    }
}
