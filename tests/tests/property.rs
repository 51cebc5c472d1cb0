//! Property-based differential testing: for arbitrary streams, window
//! geometries, pattern lengths and consumption policies, every engine in the
//! workspace must agree with the sequential reference, and consumption
//! invariants must hold.

use std::sync::Arc;

use proptest::prelude::*;
use spectre_baselines::{run_sequential, run_waitful, TrexEngine};
use spectre_core::{PredictorKind, SpectreConfig};
use spectre_events::{AttrKey, Event, Schema};
use spectre_integration::{fmt_all, run, Mode};
use spectre_query::{ConsumptionPolicy, Expr, Pattern, Query, WindowSpec};

/// Builds a stream over a small value alphabet.
fn stream(xs: &[u8]) -> Vec<Event> {
    let mut schema = Schema::new();
    let ty = schema.event_type("E");
    let x = schema.attr("x");
    xs.iter()
        .enumerate()
        .map(|(i, &v)| {
            Event::builder(ty)
                .seq(i as u64)
                .ts(i as u64 * 10)
                .attr(x, f64::from(v))
                .build()
        })
        .collect()
}

/// A sequence pattern matching values `0, 1, …, len-1`.
fn seq_query(len: usize, ws: u64, slide: u64, cp: ConsumptionPolicy) -> Arc<Query> {
    let x = AttrKey::new(0); // first interned attr in `stream`'s schema
    let mut b = Pattern::builder();
    for i in 0..len {
        b = b.one(
            &format!("S{i}"),
            Expr::current(x).eq_(Expr::value(f64::from(i as u8))),
        );
    }
    Arc::new(
        Query::builder("prop")
            .pattern(b.build().unwrap())
            .window(WindowSpec::count_sliding(ws, slide).unwrap())
            .consumption(cp)
            .build()
            .unwrap(),
    )
}

fn consumption_strategy() -> impl Strategy<Value = ConsumptionPolicy> {
    prop_oneof![
        Just(ConsumptionPolicy::None),
        Just(ConsumptionPolicy::All),
        Just(ConsumptionPolicy::Selected(vec!["S0".into()])),
        Just(ConsumptionPolicy::Selected(vec!["S0".into(), "S1".into()])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// The central theorem (paper §2.3): speculative parallel output equals
    /// sequential output — for arbitrary streams and window geometries.
    #[test]
    fn sim_equals_sequential(
        xs in proptest::collection::vec(0u8..4, 1..200),
        len in 2usize..4,
        ws in 4u64..40,
        slide_frac in 1u64..4,
        k in prop_oneof![Just(1usize), Just(2), Just(5)],
        cp in consumption_strategy(),
    ) {
        let slide = (ws / (slide_frac + 1)).max(1);
        let events = stream(&xs);
        let query = seq_query(len, ws, slide, cp);
        let expected = run_sequential(&query, &events).complex_events;
        let report = run(&query, events, &SpectreConfig::with_instances(k), Mode::Simulated);
        prop_assert_eq!(fmt_all(&report.complex_events), fmt_all(&expected));
    }

    /// Wrong fixed predictions never change the output, only the schedule.
    #[test]
    fn sim_with_fixed_predictor_equals_sequential(
        xs in proptest::collection::vec(0u8..4, 1..150),
        p in 0.0f64..=1.0,
        ws in 4u64..30,
    ) {
        let events = stream(&xs);
        let query = seq_query(3, ws, (ws / 3).max(1), ConsumptionPolicy::All);
        let expected = run_sequential(&query, &events).complex_events;
        let config = SpectreConfig {
            instances: 3,
            predictor: PredictorKind::Fixed(p),
            ..Default::default()
        };
        let report = run(&query, events, &config, Mode::Simulated);
        prop_assert_eq!(fmt_all(&report.complex_events), fmt_all(&expected));
    }

    /// The automaton engine is an independent implementation of the same
    /// semantics.
    #[test]
    fn trex_equals_sequential(
        xs in proptest::collection::vec(0u8..4, 1..200),
        len in 2usize..4,
        ws in 4u64..40,
        cp in consumption_strategy(),
    ) {
        let events = stream(&xs);
        let query = seq_query(len, ws, (ws / 2).max(1), cp);
        let expected = run_sequential(&query, &events).complex_events;
        let trex = TrexEngine::new(Arc::clone(&query)).run(&events);
        prop_assert_eq!(fmt_all(&trex.complex_events), fmt_all(&expected));
    }

    /// The wait-based model produces sequential output with a speedup in
    /// `[1, k]`.
    #[test]
    fn waitful_is_correct_and_bounded(
        xs in proptest::collection::vec(0u8..4, 1..150),
        ws in 4u64..30,
        k in 1usize..8,
    ) {
        let events = stream(&xs);
        let query = seq_query(2, ws, (ws / 2).max(1), ConsumptionPolicy::All);
        let expected = run_sequential(&query, &events).complex_events;
        let r = run_waitful(&query, &events, k);
        prop_assert_eq!(fmt_all(&r.complex_events), fmt_all(&expected));
        prop_assert!(r.speedup >= 1.0 - 1e-9);
        prop_assert!(r.speedup <= k as f64 + 1e-9);
    }

    /// Consumption invariant: under `All`, no event participates in two
    /// complex events; under `None`, re-use across windows is allowed but
    /// output within one window never repeats a full constituent set.
    #[test]
    fn consumption_uniqueness(
        xs in proptest::collection::vec(0u8..4, 1..200),
        ws in 4u64..40,
    ) {
        let events = stream(&xs);
        let query = seq_query(2, ws, (ws / 2).max(1), ConsumptionPolicy::All);
        let r = run_sequential(&query, &events);
        let mut seen = std::collections::HashSet::new();
        for ce in &r.complex_events {
            for &c in &ce.constituents {
                prop_assert!(seen.insert(c), "event {} consumed twice", c);
            }
        }
    }

    /// Complex events are emitted in window order with in-window detection
    /// order (ts non-decreasing within a window is not guaranteed, but
    /// window ids are non-decreasing).
    #[test]
    fn output_window_order(
        xs in proptest::collection::vec(0u8..4, 1..200),
        ws in 4u64..40,
        k in 1usize..5,
    ) {
        let events = stream(&xs);
        let query = seq_query(2, ws, (ws / 2).max(1), ConsumptionPolicy::All);
        let report = run(&query, events, &SpectreConfig::with_instances(k), Mode::Simulated);
        let ids: Vec<u64> = report.complex_events.iter().map(|c| c.window_id).collect();
        prop_assert!(ids.windows(2).all(|w| w[0] <= w[1]));
    }
}
