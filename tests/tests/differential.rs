//! Differential tests: the SPECTRE simulation runtime must produce exactly
//! the sequential-reference output (paper §2.3: "deliver exactly those
//! complex events that would be produced in sequential processing; in
//! particular, no false-positive and false-negatives shall occur") for all
//! of the paper's queries, both datasets and a sweep of parallelism
//! degrees, predictors and configuration corner cases.

use std::sync::Arc;

use spectre_core::{PredictorKind, SpectreConfig};
use spectre_datasets::{NyseConfig, NyseGenerator, RandConfig, RandGenerator};
use spectre_events::Schema;
use spectre_integration::{assert_same_output, assert_sim_matches_sequential, run, Mode};
use spectre_query::queries::{self, Direction};
use spectre_query::{ConsumptionPolicy, Pattern, Query, SelectionPolicy, WindowSpec};

#[test]
fn q1_on_nyse_matches_sequential_for_all_k() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(3000, 7), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 200, Direction::Rising));
    assert_sim_matches_sequential(&query, &events, &[1, 2, 4, 8]);
}

#[test]
fn q1_falling_on_nyse_matches_sequential() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2000, 11), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 4, 150, Direction::Falling));
    assert_sim_matches_sequential(&query, &events, &[1, 4]);
}

#[test]
fn q1_large_pattern_low_completion_matches_sequential() {
    // Large q / small window → most consumption groups abandon.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2500, 3), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 30, 100, Direction::Rising));
    assert_sim_matches_sequential(&query, &events, &[1, 8]);
}

#[test]
fn q2_on_nyse_matches_sequential_for_all_k() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2500, 21), &mut schema).collect();
    let query = Arc::new(queries::q2(&mut schema, 60.0, 140.0, 400, 80));
    assert_sim_matches_sequential(&query, &events, &[1, 2, 4, 8]);
}

#[test]
fn q2_tight_limits_matches_sequential() {
    // Narrow band → patterns almost never complete ("0 cplx" column of
    // Fig. 10(b)).
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1500, 5), &mut schema).collect();
    let query = Arc::new(queries::q2(&mut schema, 99.0, 101.0, 300, 50));
    assert_sim_matches_sequential(&query, &events, &[1, 4]);
}

#[test]
fn q3_on_rand_matches_sequential_for_all_k() {
    let mut schema = Schema::new();
    let gen = RandGenerator::new(RandConfig::small(2000, 17), &mut schema);
    let symbols = gen.symbols().to_vec();
    let events: Vec<_> = gen.collect();
    let query = Arc::new(queries::q3(
        &mut schema,
        symbols[0],
        &symbols[1..4],
        250,
        50,
    ));
    assert_sim_matches_sequential(&query, &events, &[1, 2, 4, 8]);
}

#[test]
fn q3_large_set_matches_sequential() {
    let mut schema = Schema::new();
    let gen = RandGenerator::new(RandConfig::small(1500, 29), &mut schema);
    let symbols = gen.symbols().to_vec();
    let events: Vec<_> = gen.collect();
    let query = Arc::new(queries::q3(
        &mut schema,
        symbols[0],
        &symbols[1..11],
        400,
        100,
    ));
    assert_sim_matches_sequential(&query, &events, &[1, 8]);
}

#[test]
fn qe_on_rand_matches_sequential() {
    let mut schema = Schema::new();
    // QE needs symbols literally named "A"/"B": reuse the RAND generator's
    // vocabulary by querying two of its symbols instead.
    let gen = RandGenerator::new(RandConfig::small(1200, 31), &mut schema);
    let events: Vec<_> = gen.collect();
    let query = Arc::new(queries::qe(&mut schema, 10_000));
    // The generated stream has no "A"/"B" symbols; windows never open.
    // Still a valid differential case (must be empty on both sides).
    assert_sim_matches_sequential(&query, &events, &[1, 4]);
}

#[test]
fn qe_over_two_rand_symbols_matches_sequential() {
    // QE's shape — a window opened on every A quote with a 30 s time
    // scope, B consumed on match — over a two-symbol RAND stream, so
    // windows open on about half the events and overlap densely.
    let mut schema = Schema::new();
    let cfg = RandConfig {
        symbols: 2,
        leaders: 0,
        events: 1500,
        seed: 3,
        price: (1.0, 10.0),
        tick_ms: 1000,
    };
    let events: Vec<_> = RandGenerator::new(cfg, &mut schema).collect();
    let vocab = queries::StockVocab::install(&mut schema);
    let sym_a = schema.lookup_symbol("RND000").unwrap();
    let sym_b = schema.lookup_symbol("RND001").unwrap();
    let pattern = Pattern::builder()
        .one("A", vocab.symbol_is(sym_a))
        .one("B", vocab.symbol_is(sym_b))
        .build()
        .unwrap();
    let query = Arc::new(
        Query::builder("QE")
            .pattern(pattern)
            .window(
                WindowSpec::on_match_time(Some(vocab.quote), vocab.symbol_is(sym_a), 30_000)
                    .unwrap(),
            )
            .selection(SelectionPolicy::EachLast)
            .consumption(ConsumptionPolicy::Selected(vec!["B".into()]))
            .build()
            .unwrap(),
    );
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
    assert!(!expected.is_empty(), "fixture must produce matches");
    assert_sim_matches_sequential(&query, &events, &[4]);
}

#[test]
fn more_instances_do_not_slow_down_high_completion_workloads() {
    // All quotes rising → every partial match completes (probability 1):
    // speculation always picks the right branch and scaling is near
    // linear (paper §4.2.1, ratio 0.005 case).
    let mut schema = Schema::new();
    let config = NyseConfig {
        symbols: 20,
        leaders: 4,
        events: 3000,
        drift: 1.0, // strongly positive: always rising
        volatility: 0.0,
        ..NyseConfig::default()
    };
    let events: Vec<_> = NyseGenerator::new(config, &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 4, 100, Direction::Rising));
    let sim = |k| {
        run(
            &query,
            events.clone(),
            &SpectreConfig::with_instances(k),
            Mode::Simulated,
        )
    };
    let (r1, r8) = (sim(1), sim(8));
    assert_eq!(r1.complex_events, r8.complex_events);
    let (rounds1, rounds8) = (r1.rounds.unwrap(), r8.rounds.unwrap());
    assert!(
        rounds8 * 2 < rounds1,
        "8 instances should be much faster: {rounds8} vs {rounds1}"
    );
}

#[test]
fn fixed_predictors_do_not_change_output() {
    // Wrong probability predictions cost throughput, never correctness
    // (paper §4.2.2).
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1500, 41), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
    for p in [0.0, 0.2, 0.5, 0.8, 1.0] {
        let config = SpectreConfig {
            instances: 4,
            predictor: PredictorKind::Fixed(p),
            ..Default::default()
        };
        let report = run(&query, events.clone(), &config, Mode::Simulated);
        assert_same_output(&format!("fixed p={p}"), &report.complex_events, &expected);
    }
}

#[test]
fn aggressive_consistency_check_frequency_is_transparent() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1200, 43), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 120, Direction::Rising));
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
    for freq in [1u32, 7, 1024] {
        let config = SpectreConfig {
            instances: 4,
            consistency_check_freq: freq,
            ..Default::default()
        };
        let report = run(&query, events.clone(), &config, Mode::Simulated);
        assert_same_output(
            &format!("check_freq={freq}"),
            &report.complex_events,
            &expected,
        );
    }
}

#[test]
fn tiny_tree_budget_is_transparent() {
    // Back-pressure on the speculative fan-out must not change the output.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1200, 47), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 120, Direction::Rising));
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
    for budget in [2usize, 8, 64] {
        let config = SpectreConfig {
            instances: 4,
            max_tree_versions: budget,
            ..Default::default()
        };
        let report = run(&query, events.clone(), &config, Mode::Simulated);
        assert_same_output(
            &format!("max_tree_versions={budget}"),
            &report.complex_events,
            &expected,
        );
    }
}

#[test]
fn slow_ingestion_is_transparent() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(800, 53), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 2, 100, Direction::Rising));
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
    for ingest in [1usize, 3, 1000] {
        let config = SpectreConfig {
            instances: 3,
            ingest_per_cycle: ingest,
            ..Default::default()
        };
        let report = run(&query, events.clone(), &config, Mode::Simulated);
        assert_same_output(
            &format!("ingest_per_cycle={ingest}"),
            &report.complex_events,
            &expected,
        );
    }
}

#[test]
fn empty_stream_produces_empty_output() {
    let mut schema = Schema::new();
    let query = Arc::new(queries::q1(&mut schema, 2, 100, Direction::Rising));
    let config = SpectreConfig::with_instances(4);
    let report = run(&query, vec![], &config, Mode::Simulated);
    assert!(report.complex_events.is_empty());
}

#[test]
fn single_event_stream_terminates() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1, 1), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 2, 100, Direction::Rising));
    assert_sim_matches_sequential(&query, &events, &[1, 4]);
}
