//! Inputs made from the seed — streams and queries — and the oracle's view
//! of them. The system under test receives only the generated inputs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use spectre_baselines::run_sequential;
use spectre_core::SpectreConfig;
use spectre_datasets::{bounded_shuffle, NyseConfig, NyseGenerator};
use spectre_events::{Event, Schema};
use spectre_query::queries::{self, Direction};
use spectre_query::window::compute_ranges;
use spectre_query::{ComplexEvent, ConsumptionPolicy, Query};

use crate::spec::{Workload, DISORDER_SLOTS, INSTANCES, LEADERS, SLOT_TICKS, SYMBOLS, WS};

pub struct Fixture {
    pub schema: Schema,
    /// The workload's query, once per hosted copy.
    pub queries: Vec<Arc<Query>>,
    /// The stream in sequence order; `seq == index`.
    pub in_order: Vec<Event>,
    pub gen_ns_per_event: f64,
}

pub fn build(w: &Workload, seed: u64, events: usize) -> Fixture {
    let mut schema = Schema::new();
    let config = NyseConfig {
        symbols: SYMBOLS,
        leaders: LEADERS,
        events,
        seed,
        ..NyseConfig::default()
    };
    let started = Instant::now();
    let in_order: Vec<Event> = NyseGenerator::new(config, &mut schema).collect();
    let gen_ns_per_event = started.elapsed().as_nanos() as f64 / events.max(1) as f64;
    let q1 = queries::q1(&mut schema, w.q, WS, Direction::Rising);
    let query = if w.consume {
        Arc::new(q1)
    } else {
        // Q1's pattern and window without its consumption policy: no
        // consumption groups, so no speculation machinery runs.
        Arc::new(
            Query::builder("Q1-NC")
                .pattern_arc(Arc::clone(q1.pattern()))
                .window(q1.window().clone())
                .selection(q1.selection())
                .consumption(ConsumptionPolicy::None)
                .build()
                .expect("Q1 without consumption is a valid query"),
        )
    };
    Fixture {
        schema,
        queries: vec![query; w.queries],
        in_order,
        gen_ns_per_event,
    }
}

/// Bounded lateness of the disorder workload in timestamp ticks.
pub fn disorder_delay() -> u64 {
    DISORDER_SLOTS * SLOT_TICKS
}

/// The stream as the disorder workload feeds it, and how long shuffling took.
pub fn shuffled(in_order: &[Event], seed: u64) -> (Vec<Event>, f64) {
    let started = Instant::now();
    let fed = bounded_shuffle(in_order, disorder_delay(), seed);
    (fed, started.elapsed().as_secs_f64() * 1e3)
}

/// Default configuration at the pinned instance count; the disorder
/// workload adds the reorder stage, nothing else is tuned.
pub fn engine_config(w: &Workload) -> SpectreConfig {
    let config = SpectreConfig::with_instances(INSTANCES);
    if w.disorder {
        config.with_reorder(disorder_delay())
    } else {
        config
    }
}

/// For every window id, the stream position of the event that closes the
/// window (its last member), or `None` for tail windows that only the end
/// of the stream closes. Commit lag is measured from this event.
pub fn closing_positions(query: &Query, in_order: &[Event]) -> Vec<Option<usize>> {
    let len = in_order.len() as u64;
    compute_ranges(query.window(), in_order)
        .iter()
        .map(|range| (range.end_pos < len).then(|| range.end_pos as usize - 1))
        .collect()
}

/// Order-sensitive identity of one complex event (FNV-1a over window,
/// timestamp and constituents), small enough to pipe from a child run.
pub fn fingerprint(ce: &ComplexEvent) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(ce.window_id);
    mix(ce.ts);
    for seq in &ce.constituents {
        mix(*seq);
    }
    hash
}

/// What the sequential engine makes of the query on the in-order stream;
/// every hosted copy of the query must produce exactly this.
pub struct Oracle {
    /// Windows the stream opens: the operations of one run.
    pub windows: u64,
    /// `(window id, fingerprint)` of every complex event, in order.
    pub outputs: Vec<(u64, u64)>,
}

pub fn oracle(query: &Arc<Query>, in_order: &[Event]) -> Oracle {
    let result = run_sequential(query, in_order);
    Oracle {
        windows: result.windows,
        outputs: result
            .complex_events
            .iter()
            .map(|ce| (ce.window_id, fingerprint(ce)))
            .collect(),
    }
}

/// Failed operations of one query in one run. An operation is one window:
/// it fails when its complex events are not exactly the oracle's (missing,
/// extra or reordered within the window — for most windows both sides have
/// none), or when they are delivered after a later window's.
pub fn failed_windows(expected: &[(u64, u64)], got: &[(u64, u64)]) -> u64 {
    if expected == got {
        return 0;
    }
    let by_window = |side: &[(u64, u64)]| {
        let mut map = BTreeMap::<u64, Vec<u64>>::new();
        for (window, fp) in side {
            map.entry(*window).or_default().push(*fp);
        }
        map
    };
    let (e, g) = (by_window(expected), by_window(got));
    let mut failed: BTreeSet<u64> = e
        .keys()
        .chain(g.keys())
        .filter(|window| e.get(window) != g.get(window))
        .copied()
        .collect();
    failed.extend(
        got.windows(2)
            .filter(|pair| pair[1].0 < pair[0].0)
            .map(|pair| pair[1].0),
    );
    failed.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    #[test]
    fn closing_event_is_the_last_member_of_each_closed_window() {
        let w = workload("datapath").unwrap();
        let fx = build(w, 7, 2_000);
        assert!(fx
            .in_order
            .iter()
            .enumerate()
            .all(|(i, e)| e.seq() == i as u64));
        let ranges = compute_ranges(fx.queries[0].window(), &fx.in_order);
        let closing = closing_positions(&fx.queries[0], &fx.in_order);
        assert_eq!(closing.len(), ranges.len());
        assert!(closing.len() > 20, "2 k events open dozens of Q1 windows");
        let mut tails = 0;
        for (range, close) in ranges.iter().zip(&closing) {
            assert_eq!(
                range.bounds.id as usize,
                ranges.iter().position(|r| r == range).unwrap()
            );
            match close {
                // Count windows span exactly WS events once an event closes them.
                Some(pos) => assert_eq!(*pos as u64, range.bounds.start_pos + WS - 1),
                None => {
                    tails += 1;
                    assert_eq!(range.end_pos, 2_000);
                }
            }
        }
        assert!(tails >= 1, "the stream end cuts the last windows short");
    }

    #[test]
    fn failed_windows_counts_missing_extra_and_reordered() {
        let expected = [(0, 10), (2, 20), (2, 21), (5, 50)];
        assert_eq!(failed_windows(&expected, &expected), 0);
        // Window 2 lost an output; window 7 should have none.
        assert_eq!(
            failed_windows(&expected, &[(0, 10), (2, 20), (5, 50), (7, 70)]),
            2
        );
        // Right outputs, wrong order inside window 2.
        assert_eq!(
            failed_windows(&expected, &[(0, 10), (2, 21), (2, 20), (5, 50)]),
            1
        );
        // Right outputs, window 0 delivered after window 2.
        assert_eq!(
            failed_windows(&expected, &[(2, 20), (2, 21), (0, 10), (5, 50)]),
            1
        );
        assert_eq!(failed_windows(&expected, &[]), 3);
        assert_eq!(failed_windows(&[], &[(1, 1)]), 1);
    }

    #[test]
    fn same_seed_same_inputs_and_shuffle_stays_in_bound() {
        let w = workload("disorder").unwrap();
        let (a, b) = (build(w, 3, 3_000), build(w, 3, 3_000));
        assert_eq!(a.in_order, b.in_order);
        assert_ne!(a.in_order, build(w, 4, 3_000).in_order);
        let (fed, _) = shuffled(&a.in_order, 3);
        assert_ne!(fed, a.in_order);
        assert!(spectre_datasets::max_disorder(&fed) <= disorder_delay());
        let oracle_a = oracle(&a.queries[0], &a.in_order);
        assert_eq!(oracle_a.outputs, oracle(&b.queries[0], &b.in_order).outputs);
        assert_eq!(
            oracle_a.windows as usize,
            closing_positions(&a.queries[0], &a.in_order).len()
        );
    }
}
