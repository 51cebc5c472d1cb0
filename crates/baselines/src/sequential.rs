//! Sequential reference engine: the ground-truth semantics of window-based
//! CEP with consumption policies.
//!
//! Windows are processed strictly in window order; each window's events are
//! fed to a fresh [`WindowDetector`], skipping events already consumed by
//! earlier windows, until the window ends or the detector is spent
//! ([`WindowDetector::is_spent`]: no later event can change the window's
//! output). Completions consume their events globally, excluding
//! them from all later windows (paper §1: "the constituent events of a
//! pattern instance detected in one window are excluded from all other
//! windows as well").
//!
//! The run also measures the *ground-truth completion probability* of
//! consumption groups — created consumption groups vs. produced complex
//! events — exactly the way the paper computes it for Fig. 10(d)/(e)
//! ("performing a sequential pass without speculations: the number of
//! created consumption groups divided by the number of produced complex
//! events").

use std::collections::HashSet;
use std::sync::Arc;

use spectre_events::{Event, Seq};
use spectre_query::window::compute_ranges;
use spectre_query::{ComplexEvent, DetectorAction, Query, WindowDetector};

/// Output and statistics of a sequential run.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialResult {
    /// All complex events, in (window id, detection order).
    pub complex_events: Vec<ComplexEvent>,
    /// Number of windows processed.
    pub windows: u64,
    /// Consumption groups (partial matches) created across all windows.
    pub cgs_created: u64,
    /// Consumption groups completed (complex events produced).
    pub cgs_completed: u64,
    /// Distinct events consumed.
    pub consumed_events: u64,
    /// Total detector feeds (events actually processed, after suppression).
    pub events_processed: u64,
}

impl SequentialResult {
    /// Ground-truth completion probability of consumption groups:
    /// `cgs_completed / cgs_created` (1.0 when no group was created).
    pub fn completion_probability(&self) -> f64 {
        if self.cgs_created == 0 {
            1.0
        } else {
            self.cgs_completed as f64 / self.cgs_created as f64
        }
    }
}

/// Runs the query over a finite stream with sequential window processing.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use spectre_events::Schema;
/// use spectre_datasets::{NyseConfig, NyseGenerator};
/// use spectre_query::queries;
/// use spectre_baselines::run_sequential;
///
/// let mut schema = Schema::new();
/// let events: Vec<_> =
///     NyseGenerator::new(NyseConfig::small(2000, 1), &mut schema).collect();
/// let query = Arc::new(queries::q1(&mut schema, 3, 200, Default::default()));
/// let result = run_sequential(&query, &events);
/// assert!(result.completion_probability() <= 1.0);
/// ```
pub fn run_sequential(query: &Arc<Query>, events: &[Event]) -> SequentialResult {
    let ranges = compute_ranges(query.window(), events);
    let mut consumed: HashSet<Seq> = HashSet::new();
    let mut result = SequentialResult {
        complex_events: Vec::new(),
        windows: ranges.len() as u64,
        cgs_created: 0,
        cgs_completed: 0,
        consumed_events: 0,
        events_processed: 0,
    };
    let mut actions = Vec::new();
    for range in &ranges {
        let mut detector = WindowDetector::new(Arc::clone(query), range.bounds.id);
        for ev in &events[range.bounds.start_pos as usize..range.end_pos as usize] {
            // A spent window's output is final: no later event can start
            // or extend a match.
            if detector.is_spent() {
                break;
            }
            if consumed.contains(&ev.seq()) {
                // A suppressed position may abandon a match (the
                // feasibility bound), never complete one.
                detector.on_suppressed(&mut actions);
                continue;
            }
            actions.clear();
            detector.on_event(ev, &mut actions);
            result.events_processed += 1;
            for action in &actions {
                if let DetectorAction::Completed {
                    complex,
                    consumed: c,
                    ..
                } = action
                {
                    result.complex_events.push(complex.clone());
                    for seq in c {
                        if consumed.insert(*seq) {
                            result.consumed_events += 1;
                        }
                    }
                }
            }
        }
        actions.clear();
        detector.on_window_end(&mut actions);
        result.cgs_created += detector.started_count();
        result.cgs_completed += detector.completed_count();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectre_events::{Schema, Value};
    use spectre_query::queries::{self, StockVocab};

    /// Builds the paper's Fig. 1 stream: A1 A2 B1 B2 B3 where the B events
    /// fall inside the windows opened by A1 (B1, B2) and A2 (B1..B3).
    fn fig1_stream(schema: &mut Schema) -> (Vec<Event>, StockVocab) {
        let vocab = StockVocab::install(schema);
        let a = schema.symbol("A");
        let b = schema.symbol("B");
        let mk = |seq: Seq, ts, sym| {
            Event::builder(vocab.quote)
                .seq(seq)
                .ts(ts)
                .attr(vocab.symbol, Value::Symbol(sym))
                .attr(vocab.open_price, 1.0)
                .attr(vocab.close_price, 2.0)
                .build()
        };
        // w1 = [A1 .. A1+60s) covers B1, B2; w2 = [A2 ..) covers B1, B2, B3.
        let events = vec![
            mk(0, 0, a),      // A1 opens w1 (scope 60_000)
            mk(1, 10_000, a), // A2 opens w2
            mk(2, 20_000, b), // B1
            mk(3, 40_000, b), // B2
            mk(4, 65_000, b), // B3 (outside w1, inside w2)
        ];
        (events, vocab)
    }

    #[test]
    fn fig1a_no_consumption_yields_five_complex_events() {
        let mut schema = Schema::new();
        let (events, _) = fig1_stream(&mut schema);
        let mut q = queries::qe(&mut schema, 60_000);
        // strip consumption: CP none
        q = {
            let pattern = Arc::clone(q.pattern());
            spectre_query::Query::builder("QE-none")
                .pattern_arc(pattern)
                .window(q.window().clone())
                .selection(q.selection())
                .consumption(spectre_query::ConsumptionPolicy::None)
                .build()
                .unwrap()
        };
        let result = run_sequential(&Arc::new(q), &events);
        let sets: Vec<Vec<Seq>> = result
            .complex_events
            .iter()
            .map(|c| c.constituents.clone())
            .collect();
        // Paper Fig. 1a: A1B1, A1B2, A2B1, A2B2, A2B3.
        assert_eq!(
            sets,
            vec![vec![0, 2], vec![0, 3], vec![1, 2], vec![1, 3], vec![1, 4]]
        );
    }

    #[test]
    fn fig1b_selected_b_consumption_yields_three_complex_events() {
        let mut schema = Schema::new();
        let (events, _) = fig1_stream(&mut schema);
        let q = Arc::new(queries::qe(&mut schema, 60_000));
        let result = run_sequential(&q, &events);
        let sets: Vec<Vec<Seq>> = result
            .complex_events
            .iter()
            .map(|c| c.constituents.clone())
            .collect();
        // Paper Fig. 1b: A1B1, A1B2, A2B3 — B1 and B2 consumed in w1.
        assert_eq!(sets, vec![vec![0, 2], vec![0, 3], vec![1, 4]]);
        assert_eq!(result.consumed_events, 3);
    }

    #[test]
    fn completion_probability_is_one_without_created_groups() {
        let mut schema = Schema::new();
        let (events, _) = fig1_stream(&mut schema);
        // query that never matches: impossible symbol
        let ghost = schema.symbol("GHOST");
        let vocab = StockVocab::install(&mut schema);
        let pattern = spectre_query::Pattern::builder()
            .one("A", vocab.symbol_is(ghost))
            .build()
            .unwrap();
        let q = Arc::new(
            spectre_query::Query::builder("ghost")
                .pattern(pattern)
                .window(spectre_query::WindowSpec::count_sliding(4, 2).unwrap())
                .build()
                .unwrap(),
        );
        let r = run_sequential(&q, &events);
        assert_eq!(r.cgs_created, 0);
        assert_eq!(r.completion_probability(), 1.0);
    }

    #[test]
    fn q1_consumption_prevents_event_reuse_across_windows() {
        // Two leading rising quotes in quick succession: the window of the
        // first consumes the shared RE events; the second window sees fewer.
        let mut schema = Schema::new();
        let vocab = StockVocab::install(&mut schema);
        let lead = schema.symbol("L");
        let other = schema.symbol("O");
        let mk = |seq: Seq, sym, leading: bool| {
            Event::builder(vocab.quote)
                .seq(seq)
                .ts(seq)
                .attr(vocab.symbol, Value::Symbol(sym))
                .attr(vocab.open_price, 1.0)
                .attr(vocab.close_price, 2.0) // every quote rising
                .attr(vocab.leading, leading)
                .build()
        };
        let events = vec![
            mk(0, lead, true),   // opens w0, MLE of w0
            mk(1, lead, true),   // opens w1 (also rising, leading)
            mk(2, other, false), // RE
            mk(3, lead, true),   // opens w3; in w1 it starts a match
        ];
        // Q1 with q = 2, ws = 4.
        let q = Arc::new(queries::q1(&mut schema, 2, 4, Default::default()));
        let r = run_sequential(&q, &events);
        // Q1 is anchored (its window opens *on* the MLE), so each window
        // has at most one match, starting at its first event.
        // w0: MLE=0, RE={1,2} -> complete, consumes {0,1,2}.
        // w1 = [1..5): its anchor event 1 is consumed — no match.
        // w2 = [3..5): event 3 starts a match, abandoned at stream end.
        assert_eq!(r.complex_events.len(), 1);
        assert_eq!(r.complex_events[0].constituents, vec![0, 1, 2]);
        assert_eq!(r.cgs_created, 2);
        assert_eq!(r.cgs_completed, 1);
        assert!((r.completion_probability() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn without_consumption_both_windows_match() {
        let mut schema = Schema::new();
        let vocab = StockVocab::install(&mut schema);
        let lead = schema.symbol("L");
        let other = schema.symbol("O");
        let mk = |seq: Seq, sym, leading: bool| {
            Event::builder(vocab.quote)
                .seq(seq)
                .ts(seq)
                .attr(vocab.symbol, Value::Symbol(sym))
                .attr(vocab.open_price, 1.0)
                .attr(vocab.close_price, 2.0)
                .attr(vocab.leading, leading)
                .build()
        };
        let events = vec![
            mk(0, lead, true),
            mk(1, lead, true),
            mk(2, other, false),
            mk(3, other, false),
        ];
        let q1 = queries::q1(&mut schema, 2, 4, Default::default());
        let no_consume = Arc::new(
            spectre_query::Query::builder("Q1-none")
                .pattern_arc(Arc::clone(q1.pattern()))
                .window(q1.window().clone())
                .consumption(spectre_query::ConsumptionPolicy::None)
                .build()
                .unwrap(),
        );
        let r = run_sequential(&no_consume, &events);
        assert_eq!(r.complex_events.len(), 2);
        assert_eq!(r.complex_events[0].constituents, vec![0, 1, 2]);
        assert_eq!(r.complex_events[1].constituents, vec![1, 2, 3]);
    }

    #[test]
    fn events_processed_counts_suppressed_events_out() {
        let mut schema = Schema::new();
        let (events, _) = fig1_stream(&mut schema);
        let q = Arc::new(queries::qe(&mut schema, 60_000));
        let r = run_sequential(&q, &events);
        // w1 has 4 events (A1, A2, B1, B2), w2 has 4 (A2, B1, B2, B3) of
        // which B1, B2 are consumed → w2 processes 2.
        assert_eq!(r.events_processed, 4 + 2);
    }
}
