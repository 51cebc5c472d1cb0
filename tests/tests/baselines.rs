//! Cross-engine differential tests: the T-REX style automaton engine is an
//! independently implemented oracle that must agree with the sequential
//! reference on every query and dataset.

use std::sync::Arc;

use spectre_baselines::{run_sequential, TrexEngine};
use spectre_datasets::{NyseConfig, NyseGenerator, RandConfig, RandGenerator};
use spectre_events::Schema;
use spectre_integration::assert_same_output;
use spectre_query::queries::{self, Direction};

#[test]
fn trex_agrees_with_sequential_on_q1() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2500, 19), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 200, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;
    let trex = TrexEngine::new(Arc::clone(&query)).run(&events);
    assert_same_output("trex q1", &trex.complex_events, &expected);
}

#[test]
fn trex_agrees_with_sequential_on_q2() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2000, 23), &mut schema).collect();
    let query = Arc::new(queries::q2(&mut schema, 60.0, 140.0, 300, 60));
    let expected = run_sequential(&query, &events).complex_events;
    let trex = TrexEngine::new(Arc::clone(&query)).run(&events);
    assert_same_output("trex q2", &trex.complex_events, &expected);
}

#[test]
fn trex_agrees_with_sequential_on_q3() {
    let mut schema = Schema::new();
    let gen = RandGenerator::new(RandConfig::small(1800, 37), &mut schema);
    let symbols = gen.symbols().to_vec();
    let events: Vec<_> = gen.collect();
    let query = Arc::new(queries::q3(
        &mut schema,
        symbols[0],
        &symbols[1..5],
        300,
        60,
    ));
    let expected = run_sequential(&query, &events).complex_events;
    let trex = TrexEngine::new(Arc::clone(&query)).run(&events);
    assert_same_output("trex q3", &trex.complex_events, &expected);
}

#[test]
fn sequential_statistics_are_internally_consistent() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2500, 47), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 200, Direction::Rising));
    let r = run_sequential(&query, &events);
    assert_eq!(r.complex_events.len() as u64, r.cgs_completed);
    assert!(r.cgs_completed <= r.cgs_created);
    let p = r.completion_probability();
    assert!((0.0..=1.0).contains(&p));
    // Every constituent of every complex event is consumed exactly once
    // (ConsumptionPolicy::All), so counting distinct constituents gives the
    // consumed-events total.
    let distinct: std::collections::HashSet<u64> = r
        .complex_events
        .iter()
        .flat_map(|ce| ce.constituents.iter().copied())
        .collect();
    assert_eq!(distinct.len() as u64, r.consumed_events);
}

#[test]
fn consumed_events_never_appear_in_two_complex_events() {
    // The defining property of consumption (§1): one event, one pattern
    // instance.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(3000, 53), &mut schema).collect();
    for query in [
        Arc::new(queries::q1(&mut schema, 3, 250, Direction::Rising)),
        Arc::new(queries::q2(&mut schema, 60.0, 140.0, 400, 80)),
    ] {
        let r = run_sequential(&query, &events);
        let mut seen = std::collections::HashSet::new();
        for ce in &r.complex_events {
            for &c in &ce.constituents {
                assert!(
                    seen.insert(c),
                    "event {c} consumed twice (query {})",
                    query.name()
                );
            }
        }
    }
}
