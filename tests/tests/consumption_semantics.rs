//! Reproduces paper Fig. 1 exactly: query QE over the stream
//! `A1 A2 B1 B2 B3` under consumption policy *None* (5 complex events) and
//! *Selected B* (3 complex events), plus further hand-written consumption
//! scenarios from §2 and §3.1.

use std::collections::HashSet;
use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::SpectreConfig;
use spectre_events::{Event, Schema, Value};
use spectre_integration::{fmt_all, mini, run, Mode};
use spectre_query::queries::StockVocab;
use spectre_query::window::compute_ranges;
use spectre_query::{
    ConsumptionPolicy, DetectorAction, Expr, Pattern, Query, SelectionPolicy, WindowDetector,
    WindowSpec,
};

/// Builds the Fig. 1 stream: A1, A2, B1, B2, B3 (in that order), all within
/// one minute of each other so both windows span all B events.
fn fig1_stream(schema: &mut Schema) -> (Vec<Event>, StockVocab) {
    let vocab = StockVocab::install(schema);
    let sym_a = schema.symbol("A");
    let sym_b = schema.symbol("B");
    let quotes = [
        (sym_a, 0u64),   // A1
        (sym_a, 10_000), // A2
        (sym_b, 20_000), // B1
        (sym_b, 30_000), // B2
        (sym_b, 40_000), // B3
    ];
    let events = quotes
        .iter()
        .enumerate()
        .map(|(i, &(sym, ts))| {
            Event::builder(vocab.quote)
                .seq(i as u64)
                .ts(ts)
                .attr(vocab.symbol, Value::Symbol(sym))
                .attr(vocab.open_price, 10.0)
                .attr(vocab.close_price, 11.0)
                .build()
        })
        .collect();
    (events, vocab)
}

/// QE with a configurable consumption policy: window opens on each A quote,
/// time scope 1 minute, selection "first A, each B".
fn qe_with(schema: &mut Schema, vocab: StockVocab, cp: ConsumptionPolicy) -> Query {
    let sym_a = schema.symbol("A");
    let sym_b = schema.symbol("B");
    let a_pred = Expr::current(vocab.symbol).eq_(Expr::value(Value::Symbol(sym_a)));
    let b_pred = Expr::current(vocab.symbol).eq_(Expr::value(Value::Symbol(sym_b)));
    Query::builder("QE")
        .pattern(
            Pattern::builder()
                .one("A", a_pred.clone())
                .one("B", b_pred)
                .build()
                .unwrap(),
        )
        .window(WindowSpec::on_match_time(Some(vocab.quote), a_pred, 60_000).unwrap())
        .selection(SelectionPolicy::EachLast)
        .consumption(cp)
        .build()
        .unwrap()
}

#[test]
fn fig1a_no_consumption_yields_five_complex_events() {
    let mut schema = Schema::new();
    let (events, vocab) = fig1_stream(&mut schema);
    let query = Arc::new(qe_with(&mut schema, vocab, ConsumptionPolicy::None));
    let r = run_sequential(&query, &events);
    // Paper Fig. 1a: A1B1, A1B2, A1B3*, A2B1, A2B2, A2B3.
    // (*The paper's w1 closes before B3 — its A1 window spans exactly
    //  [A1, A1+1min] and B3 falls at A1+40s, inside the scope, so with the
    //  stated timestamps A1B3 is also produced; the figure's stream spaces
    //  B3 outside w1. We reproduce the figure's count with B3 late below.)
    let w0: Vec<_> = r
        .complex_events
        .iter()
        .filter(|c| c.window_id == 0)
        .collect();
    let w1: Vec<_> = r
        .complex_events
        .iter()
        .filter(|c| c.window_id == 1)
        .collect();
    assert_eq!(w0.len(), 3, "A1 correlates with each B");
    assert_eq!(w1.len(), 3, "A2 correlates with each B");
}

#[test]
fn fig1a_exact_paper_timing_yields_five() {
    // Place B3 outside w1's scope (later than A1 + 1 min) as drawn in
    // Fig. 1: w1 = {A1..B2}, w2 = {A2..B3}.
    let mut schema = Schema::new();
    let vocab = StockVocab::install(&mut schema);
    let sym_a = schema.symbol("A");
    let sym_b = schema.symbol("B");
    let quotes = [
        (sym_a, 0u64),   // A1
        (sym_a, 30_000), // A2
        (sym_b, 40_000), // B1
        (sym_b, 50_000), // B2
        (sym_b, 70_000), // B3 — outside A1's minute, inside A2's
    ];
    let events: Vec<Event> = quotes
        .iter()
        .enumerate()
        .map(|(i, &(sym, ts))| {
            Event::builder(vocab.quote)
                .seq(i as u64)
                .ts(ts)
                .attr(vocab.symbol, Value::Symbol(sym))
                .attr(vocab.open_price, 10.0)
                .attr(vocab.close_price, 11.0)
                .build()
        })
        .collect();

    let none = Arc::new(qe_with(&mut schema, vocab, ConsumptionPolicy::None));
    let r_none = run_sequential(&none, &events);
    assert_eq!(
        r_none.complex_events.len(),
        5,
        "Fig. 1a: A1B1, A1B2, A2B1, A2B2, A2B3; got {:?}",
        fmt_all(&r_none.complex_events)
    );

    let selected = Arc::new(qe_with(
        &mut schema,
        vocab,
        ConsumptionPolicy::Selected(vec!["B".into()]),
    ));
    let r_sel = run_sequential(&selected, &events);
    // Fig. 1b: A1B1, A1B2, A2B3 — B1/B2 consumed in w1.
    assert_eq!(
        r_sel.complex_events.len(),
        3,
        "Fig. 1b: A1B1, A1B2, A2B3; got {:?}",
        fmt_all(&r_sel.complex_events)
    );
    let constituents: Vec<Vec<u64>> = r_sel
        .complex_events
        .iter()
        .map(|c| c.constituents.clone())
        .collect();
    assert_eq!(constituents, vec![vec![0, 2], vec![0, 3], vec![1, 4]]);
}

#[test]
fn fig1b_speculative_runtime_reproduces_selected_b() {
    let mut schema = Schema::new();
    let (events, vocab) = fig1_stream(&mut schema);
    let query = Arc::new(qe_with(
        &mut schema,
        vocab,
        ConsumptionPolicy::Selected(vec!["B".into()]),
    ));
    let expected = run_sequential(&query, &events).complex_events;
    for k in [1usize, 2, 4] {
        let config = SpectreConfig::with_instances(k);
        let report = run(&query, events.clone(), &config, Mode::Simulated);
        assert_eq!(
            fmt_all(&report.complex_events),
            fmt_all(&expected),
            "k = {k}"
        );
    }
}

#[test]
fn selected_a_keeps_b_events_reusable() {
    // Consuming only A: every window produces at most one match chain from
    // its first A, but B events stay available to later windows.
    let mut schema = Schema::new();
    let (events, vocab) = fig1_stream(&mut schema);
    let query = Arc::new(qe_with(
        &mut schema,
        vocab,
        ConsumptionPolicy::Selected(vec!["A".into()]),
    ));
    let r = run_sequential(&query, &events);
    // w1: A1 correlates with B1, B2, B3 — A1 is consumed after the first
    // completion, but "first A, each B" keeps the same match alive inside
    // the window; consumption affects *other* windows.
    // w2 opened by A2: A2 not consumed by w1, so it correlates with all Bs.
    let w1_count = r.complex_events.iter().filter(|c| c.window_id == 0).count();
    assert!(w1_count >= 1);
    // B events were never consumed: each window's first A correlates.
    let consumed_bs = r
        .complex_events
        .iter()
        .flat_map(|c| c.constituents.iter())
        .filter(|&&s| s >= 2)
        .count();
    assert!(consumed_bs >= 2, "B events are re-used across windows");
}

#[test]
fn consumption_is_atomic_on_completion_only() {
    // §2.1: "events are not consumed while they only build a partial match".
    // Pattern A B C (values 1, 2, 3): the stream 1 2 1 2 3 must complete
    // using the *first* A and B, and the partial match of the second 1/2
    // pair must not consume anything.
    let mut schema = Schema::new();
    let v = spectre_integration::mini::vocab(&mut schema);
    let events = spectre_integration::mini::stream(v, &[1.0, 2.0, 1.0, 2.0, 3.0]);
    let query = Arc::new(
        Query::builder("abc")
            .pattern(
                Pattern::builder()
                    .one("A", Expr::current(v.x).eq_(Expr::value(1.0)))
                    .one("B", Expr::current(v.x).eq_(Expr::value(2.0)))
                    .one("C", Expr::current(v.x).eq_(Expr::value(3.0)))
                    .build()
                    .unwrap(),
            )
            .window(WindowSpec::count_sliding(5, 2).unwrap())
            .consumption(ConsumptionPolicy::All)
            .build()
            .unwrap(),
    );
    let r = run_sequential(&query, &events);
    assert_eq!(r.complex_events.len(), 1);
    assert_eq!(r.complex_events[0].constituents, vec![0, 1, 4]);
    // Exactly one consumption group completed; the w2 partial match (1 at
    // seq 2, 2 at seq 3) was abandoned at window end without consuming.
    assert_eq!(r.cgs_completed, 1);
    assert!(r.cgs_created >= 2);
}

/// The number of windows of `query` over `events` whose match the
/// feasibility bound abandons on a suppressed position, replaying
/// `run_sequential`'s consumption.
fn abandoned_on_suppressed(query: &Arc<Query>, events: &[Event]) -> usize {
    let mut consumed = HashSet::new();
    let mut abandoned = 0;
    let mut actions = Vec::new();
    for range in compute_ranges(query.window(), events) {
        let mut detector = WindowDetector::new(Arc::clone(query), range.bounds.id);
        for ev in &events[range.bounds.start_pos as usize..range.end_pos as usize] {
            if detector.is_spent() {
                break;
            }
            actions.clear();
            if consumed.contains(&ev.seq()) {
                detector.on_suppressed(&mut actions);
                abandoned += actions.len();
                continue;
            }
            detector.on_event(ev, &mut actions);
            for action in &actions {
                if let DetectorAction::Completed { consumed: c, .. } = action {
                    consumed.extend(c.iter().copied());
                }
            }
        }
    }
    abandoned
}

#[test]
fn hopeless_matches_end_early_also_on_suppressed_positions() {
    // A Q1-shaped query at q = 130, ws = 200: a window opens on x = 2 and
    // needs 130 events with x = 1, all consumed. At 66 % ones some windows
    // complete; a window opened inside one of them finds its ones consumed,
    // so the positions it skips as suppressed use up its room and the
    // feasibility bound often abandons its match on one of them.
    let mut schema = Schema::new();
    let v = mini::vocab(&mut schema);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let xs: Vec<f64> = (0..3_000)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match (state >> 11) as f64 / (1u64 << 53) as f64 {
                u if u < 0.05 => 2.0,
                u if u < 0.71 => 1.0,
                _ => 0.0,
            }
        })
        .collect();
    let events = mini::stream(v, &xs);
    let opens = Expr::current(v.x).eq_(Expr::value(2.0));
    let mut pattern = Pattern::builder().one("S", opens.clone());
    for i in 1..=130 {
        pattern = pattern.one(&format!("R{i}"), Expr::current(v.x).eq_(Expr::value(1.0)));
    }
    let ws = 200;
    let query = Arc::new(
        Query::builder("q130")
            .pattern(pattern.build().unwrap())
            .window(WindowSpec::on_match_count(None, opens, ws).unwrap())
            .consumption(ConsumptionPolicy::All)
            .build()
            .unwrap(),
    );
    let sequential = run_sequential(&query, &events);
    let expected = fmt_all(&sequential.complex_events);
    assert!(sequential.cgs_completed > 0, "some windows complete");
    assert!(abandoned_on_suppressed(&query, &events) > 0);
    let span = sequential.windows * ws;
    assert!(sequential.events_processed < span);
    for k in [1usize, 2, 4] {
        for batch in [1usize, 64] {
            let label = format!("sim k={k} batch={batch}");
            let config = SpectreConfig::with_batching(k, batch);
            let report = run(&query, events.clone(), &config, Mode::Simulated);
            assert_eq!(fmt_all(&report.complex_events), expected, "{label}");
            let processed = report.metrics.events_processed;
            assert!(processed < span, "{label}: {processed} of {span}");
            if k == 1 {
                assert_eq!(processed, sequential.events_processed, "{label}");
            }
        }
    }
    let report = run(
        &query,
        events,
        &SpectreConfig::with_instances(2),
        Mode::Threaded,
    );
    assert_eq!(fmt_all(&report.complex_events), expected, "threaded k=2");
    assert!(report.metrics.events_processed < span, "threaded k=2");
}
