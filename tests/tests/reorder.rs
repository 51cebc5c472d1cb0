//! Shuffle-equivalence battery for the watermark-driven reorder stage: any
//! stream whose disorder stays within the configured `max_delay` must
//! produce output **bit-identical** to the in-order run — across the
//! k × batch × {sim, threaded} matrix and under multi-query
//! hosting — while streams that overrun the bound resolve deterministically
//! through the late policy, with the drop count reported exactly.

use std::sync::Arc;

use proptest::prelude::*;
use spectre_baselines::run_sequential;
use spectre_core::reorder::{Offer, ReorderBuffer};
use spectre_core::{
    LatePolicy, QueryId, ReorderConfig, Report, SpectreConfig, SpectreEngine, WatermarkPolicy,
};
use spectre_datasets::{bounded_shuffle, max_disorder, NyseConfig, NyseGenerator};
use spectre_events::{AttrKey, Event, EventType, Schema};
use spectre_integration::assert_same_output;
use spectre_query::queries::{self, Direction};
use spectre_query::{ComplexEvent, ConsumptionPolicy, Expr, Pattern, Query, WindowSpec};

/// NYSE-small stream (timestamps strictly increasing in 1200-tick steps)
/// plus two fixture queries sharing its schema: `a` (the standard Q1) and
/// `b` with a different window spec.
fn fixture(events: usize, seed: u64) -> (Arc<Query>, Arc<Query>, Vec<Event>) {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(events, seed), &mut schema).collect();
    let a = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let b = Arc::new(queries::q1(&mut schema, 2, 100, Direction::Rising));
    (a, b, events)
}

fn run_reordered(
    query: &Arc<Query>,
    events: Vec<Event>,
    config: SpectreConfig,
    threaded: bool,
) -> Report {
    let builder = SpectreEngine::builder(query).config(config);
    let engine = if threaded {
        builder.threaded().try_build().unwrap()
    } else {
        builder.simulated().try_build().unwrap()
    };
    engine.run(events).unwrap()
}

#[test]
fn bounded_shuffles_are_bit_identical_across_the_matrix() {
    // The tentpole theorem: for disorder within max_delay, the reordered
    // run equals the in-order run bit for bit — for every combination of
    // parallelism degree, hand-off batch size and execution mode, and for
    // more than one disorder magnitude.
    let (query, _, events) = fixture(1_200, 17);
    let expected = run_sequential(&query, &events).complex_events;
    assert!(!expected.is_empty());
    for delay in [2_400u64, 12_000] {
        let shuffled = bounded_shuffle(&events, delay, 99);
        assert!(max_disorder(&shuffled) <= delay);
        assert_ne!(shuffled, events, "the shuffle must actually disorder");
        for threaded in [false, true] {
            for k in [1usize, 2, 4] {
                for batch in [1usize, 64] {
                    let config = SpectreConfig::with_batching(k, batch, 8).with_reorder(delay);
                    let report = run_reordered(&query, shuffled.clone(), config, threaded);
                    let tag = format!("d={delay} threaded={threaded} k={k} batch={batch}");
                    assert_same_output(&tag, &report.complex_events, &expected);
                    assert_eq!(report.input_events, 1_200, "{tag}");
                    assert_eq!(
                        report.metrics.late_events_dropped, 0,
                        "{tag}: within-bound disorder must lose nothing"
                    );
                    assert!(
                        report.metrics.events_reordered > 0,
                        "{tag}: the stage must have repaired something"
                    );
                }
            }
        }
    }
}

#[test]
fn reorder_off_reproduces_the_direct_path() {
    // The knob is opt-in: an in-order stream through a reorder-less session
    // and through a reorder-enabled session produce identical reports, and
    // the reorder counters stay zero without the stage.
    let (query, _, events) = fixture(1_000, 23);
    let direct = run_reordered(
        &query,
        events.clone(),
        SpectreConfig::with_instances(2),
        false,
    );
    assert_eq!(direct.metrics.events_reordered, 0);
    assert_eq!(direct.metrics.watermarks_advanced, 0);
    let staged = run_reordered(
        &query,
        events,
        SpectreConfig::with_instances(2).with_reorder(0),
        false,
    );
    assert_same_output(
        "reorder(0) on an in-order stream",
        &staged.complex_events,
        &direct.complex_events,
    );
    assert_eq!(staged.metrics.events_reordered, 0);
    assert_eq!(staged.input_events, direct.input_events);
}

#[test]
fn multi_query_hosting_survives_a_bounded_shuffle() {
    // Three hosted queries (two same-spec, one different) over a shuffled
    // stream: every per-query stream equals its solo in-order run, and the
    // four reorder counters decompose exactly (aggregate = sum of shares =
    // N × the single share, since all queries were deployed up front).
    let (a, b, events) = fixture(1_200, 31);
    let expected_a = run_sequential(&a, &events).complex_events;
    let expected_b = run_sequential(&b, &events).complex_events;
    assert!(!expected_a.is_empty() && !expected_b.is_empty());
    let delay = 6_000u64;
    let shuffled = bounded_shuffle(&events, delay, 3);

    let mut builder =
        SpectreEngine::multi_builder().config(SpectreConfig::with_instances(2).with_reorder(delay));
    let ids: Vec<QueryId> = [&a, &a, &b].iter().map(|q| builder.add_query(q)).collect();
    let report = builder.try_build().unwrap().run(shuffled).unwrap();
    let outputs = |qid: QueryId| -> &[ComplexEvent] { &report.queries[&qid].complex_events };
    assert_same_output("hosted a#0", outputs(ids[0]), &expected_a);
    assert_same_output("hosted a#1", outputs(ids[1]), &expected_a);
    assert_same_output("hosted b", outputs(ids[2]), &expected_b);

    let shares: Vec<_> = report.queries.values().map(|q| q.metrics).collect();
    type FieldFn = fn(&spectre_core::MetricsSnapshot) -> u64;
    let fields: [FieldFn; 4] = [
        |m| m.events_reordered,
        |m| m.late_events_dropped,
        |m| m.late_events_admitted,
        |m| m.watermarks_advanced,
    ];
    for field in fields {
        let per: Vec<u64> = shares.iter().map(field).collect();
        assert!(
            per.windows(2).all(|w| w[0] == w[1]),
            "queries deployed up front see identical reorder shares: {per:?}"
        );
        assert_eq!(
            field(&report.metrics),
            per.iter().sum::<u64>(),
            "aggregate reorder counters must decompose"
        );
    }
    assert!(report.metrics.events_reordered > 0);
    assert_eq!(report.metrics.late_events_dropped, 0);
}

/// Synthetic stream over a small value alphabet with strictly increasing
/// timestamps (`ts = i * 10`), so sorted-by-timestamp recovers the
/// original order exactly.
fn alphabet_stream(xs: &[u8]) -> Vec<Event> {
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

/// A 2-step sequence pattern over the alphabet stream.
fn alphabet_query() -> Arc<Query> {
    let x = AttrKey::new(0);
    Arc::new(
        Query::builder("reorder-prop")
            .pattern(
                Pattern::builder()
                    .one("A", Expr::current(x).eq_(Expr::value(0.0)))
                    .one("B", Expr::current(x).eq_(Expr::value(1.0)))
                    .build()
                    .unwrap(),
            )
            .window(WindowSpec::count_sliding(8, 4).unwrap())
            .consumption(ConsumptionPolicy::All)
            .build()
            .unwrap(),
    )
}

/// Applies proptest-chosen per-event delay offsets (each `<= bound`) and
/// stably re-sorts by `ts + offset` — the bounded-disorder construction
/// with adversarial rather than uniform offsets.
fn offset_shuffle(events: &[Event], offsets: &[u64]) -> Vec<Event> {
    let mut keyed: Vec<(u64, Event)> = events
        .iter()
        .zip(offsets)
        .map(|(ev, off)| (ev.ts() + off, ev.clone()))
        .collect();
    keyed.sort_by_key(|(key, _)| *key);
    keyed.into_iter().map(|(_, ev)| ev).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Satellite property 1a: any within-`max_delay` shuffle is
    /// bit-identical to the sorted (= original) stream.
    #[test]
    fn within_delay_shuffles_are_bit_identical(
        xs in proptest::collection::vec(0u8..3, 8..80),
        offsets in proptest::collection::vec(0u64..=50, 80),
        k in prop_oneof![Just(1usize), Just(2)],
    ) {
        let events = alphabet_stream(&xs);
        let query = alphabet_query();
        let shuffled = offset_shuffle(&events, &offsets[..events.len()]);
        prop_assert!(max_disorder(&shuffled) <= 50);
        let expected = run_sequential(&query, &events).complex_events;
        let report = run_reordered(
            &query,
            shuffled,
            SpectreConfig::with_instances(k).with_reorder(50),
            false,
        );
        prop_assert_eq!(&report.complex_events, &expected);
        prop_assert_eq!(report.metrics.late_events_dropped, 0);
        prop_assert_eq!(report.input_events, events.len() as u64);
    }

    /// Satellite property 1b: beyond-delay disorder under `LatePolicy::Drop`
    /// loses exactly the events a scalar watermark oracle predicts — and
    /// the survivors still produce the in-order output over themselves.
    #[test]
    fn beyond_delay_drops_are_counted_exactly(
        xs in proptest::collection::vec(0u8..3, 8..80),
        offsets in proptest::collection::vec(0u64..=300, 80),
        delay in 0u64..40,
    ) {
        let events = alphabet_stream(&xs);
        let query = alphabet_query();
        let shuffled = offset_shuffle(&events, &offsets[..events.len()]);

        // Scalar oracle for the period-1 watermark: an arrival is late iff
        // its timestamp is below (max accepted timestamp so far - delay);
        // late arrivals never advance the watermark.
        let mut max_seen: Option<u64> = None;
        let mut survivors = Vec::new();
        let mut drops = 0u64;
        for ev in &shuffled {
            if let Some(m) = max_seen {
                if ev.ts() < m.saturating_sub(delay) {
                    drops += 1;
                    continue;
                }
            }
            max_seen = Some(max_seen.map_or(ev.ts(), |m| m.max(ev.ts())));
            survivors.push(ev.clone());
        }
        survivors.sort_by_key(Event::ts);
        let expected = run_sequential(&query, &survivors).complex_events;

        let report = run_reordered(
            &query,
            shuffled,
            SpectreConfig::with_instances(2).with_reorder(delay),
            false,
        );
        // Single query: the aggregate counter is the exact drop count.
        prop_assert_eq!(report.metrics.late_events_dropped, drops);
        prop_assert_eq!(report.input_events, survivors.len() as u64);
        prop_assert_eq!(&report.complex_events, &expected);
    }

    /// Satellite property: buffer invariants under arbitrary drive — the
    /// buffer never emits below a passed watermark, never emits out of
    /// timestamp order, never exceeds its capacity, and rejects exactly
    /// when full.
    #[test]
    fn buffer_never_violates_watermark_capacity_or_order(
        arrivals in proptest::collection::vec(0u64..200, 1..120),
        delay in 0u64..30,
        capacity in 1usize..16,
        period in 1u64..4,
        admit in prop_oneof![Just(false), Just(true)],
    ) {
        let late_policy = if admit { LatePolicy::Admit } else { LatePolicy::Drop };
        let config = ReorderConfig::bounded(delay)
            .with_watermark(WatermarkPolicy::Periodic { period })
            .with_late_policy(late_policy)
            .with_capacity(capacity);
        let mut buf = ReorderBuffer::new(config);
        let mut last_released: Option<u64> = None;
        let release = |buf: &mut ReorderBuffer, last: &mut Option<u64>| {
            while let Some(ev) = buf.pop_ready() {
                let w = buf.watermark().expect("a release implies a watermark");
                prop_assert!(ev.ts() <= w, "released ts {} above watermark {w}", ev.ts());
                if let Some(prev) = *last {
                    prop_assert!(ev.ts() >= prev, "release order regressed");
                }
                *last = Some(ev.ts());
            }
            Ok(())
        };
        for (seq, ts) in arrivals.iter().enumerate() {
            let ev = Event::builder(EventType::new(0)).seq(seq as u64).ts(*ts).build();
            let was_full = buf.is_full();
            match buf.offer(ev) {
                Offer::Rejected(_) => prop_assert!(was_full, "rejects only when full"),
                Offer::Buffered | Offer::DroppedLate | Offer::AdmittedLate(_) => {}
            }
            prop_assert!(buf.len() <= capacity, "capacity exceeded");
            release(&mut buf, &mut last_released)?;
        }
        buf.finish();
        release(&mut buf, &mut last_released)?;
        prop_assert!(buf.is_empty(), "finish must flush everything");
        let stats = buf.take_stats();
        if !admit {
            prop_assert_eq!(stats.late_admitted, 0);
        } else {
            prop_assert_eq!(stats.late_dropped, 0);
        }
    }
}
