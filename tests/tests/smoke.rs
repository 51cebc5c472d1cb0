//! Deterministic end-to-end smoke test: the speculative simulation runtime
//! must reproduce the sequential reference output exactly on a small seeded
//! NYSE stream, for several instance counts. This is the fastest full pass
//! through ingestion → windowing → matching → speculation → output, and the
//! first test to look at when the engine regresses wholesale.

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::SpectreConfig;
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::{Event, Schema};
use spectre_integration::{assert_same_output, assert_sim_matches_sequential, run, Mode};
use spectre_query::queries::{self, Direction};
use spectre_query::{ComplexEvent, Query};

#[test]
fn sim_matches_sequential_on_small_nyse() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2_000, 42), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 4, 120, Direction::Rising));

    // The reference output must be non-trivial, otherwise the equality
    // below would pass vacuously on an engine that drops everything.
    let expected = run_sequential(&query, &events).complex_events;
    assert!(
        !expected.is_empty(),
        "seeded NYSE stream should produce complex events"
    );

    assert_sim_matches_sequential(&query, &events, &[1, 2, 4, 8]);
}

#[test]
fn sim_matches_sequential_across_batch_sizes_and_shard_counts() {
    // The batched splitter hand-off and the sharded window store are pure
    // mechanics: k ∈ {1,2,4,8} × batch ∈ {1,64,1024} × shards ∈ {1,8}
    // all reproduce the sequential reference exactly (batch 1 / shards 1
    // is the original event-at-a-time, single-lock engine).
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2_000, 42), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 4, 120, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;
    assert!(!expected.is_empty());

    for k in [1usize, 2, 4, 8] {
        for batch in [1usize, 64, 1024] {
            for shards in [1usize, 8] {
                let config = SpectreConfig::with_batching(k, batch, shards);
                let report = run(&query, events.clone(), &config, Mode::Simulated);
                assert_same_output(
                    &format!("sim k={k} batch={batch} shards={shards}"),
                    &report.complex_events,
                    &expected,
                );
            }
        }
    }
}

/// The abandonment-dominant stream of the two version-accounting tests
/// below (q/ws = 0.5, the paper's high-ratio regime where most partial
/// matches fail), with its sequential reference output.
fn abandon_regime() -> (Arc<Query>, Vec<Event>, Vec<ComplexEvent>) {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2_000, 42), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 60, 120, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;
    (query, events, expected)
}

#[test]
fn lazy_tree_clones_only_scheduled_branches() {
    // The O(1)-creation claim, observed end to end. At k = 1 only the root
    // is ever scheduled, so no branch materializes through scheduling:
    // abandoned groups drop their thunks for free and are accounted in
    // `lazy_versions_dropped`.
    let (query, events, expected) = abandon_regime();
    let config = SpectreConfig::with_instances(1);
    let report = run(&query, events, &config, Mode::Simulated);
    assert_same_output("sim k=1", &report.complex_events, &expected);
    let m = &report.metrics;
    assert!(
        m.lazy_versions_dropped > 0,
        "abandoned groups must drop their unscheduled branches for free: {m:?}"
    );
    assert!(
        m.versions_materialized <= m.versions_created,
        "materializations are a subset of creations: {m:?}"
    );
}

#[test]
fn versions_created_stay_within_four_per_retired_window_or_group() {
    // Attach thunks, observed end to end: most lineages are never
    // scheduled, so their fresh versions are never created and creation
    // stays within 4 × (windows retired + groups opened) at every k.
    let (query, events, expected) = abandon_regime();
    for k in [1usize, 2, 4] {
        let config = SpectreConfig::with_instances(k);
        let report = run(&query, events.clone(), &config, Mode::Simulated);
        assert_same_output(&format!("sim k={k}"), &report.complex_events, &expected);
        let m = &report.metrics;
        assert!(
            m.versions_materialized <= m.versions_created,
            "k={k}: {m:?}"
        );
        assert!(
            m.versions_created <= 4 * (m.windows_retired + m.cgs_created),
            "k={k}: {m:?}"
        );
    }
}

#[test]
fn sim_matches_sequential_across_version_caps() {
    // The `max_tree_versions` rows of the equivalence matrix: pending
    // windows count toward the speculative load, so the cap decides how
    // long the tails behind the pending-attach markers grow — a tight cap
    // keeps materializing and retiring at the back-pressure edge, a loose
    // one lets whole backlogs pend. Both reproduce the sequential
    // reference at every k.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2_000, 42), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 4, 120, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;
    assert!(!expected.is_empty());

    for cap in [8usize, 1024] {
        for k in [1usize, 2, 4, 8] {
            let config = SpectreConfig {
                max_tree_versions: cap,
                ..SpectreConfig::with_instances(k)
            };
            let report = run(&query, events.clone(), &config, Mode::Simulated);
            assert_same_output(
                &format!("sim k={k} cap={cap}"),
                &report.complex_events,
                &expected,
            );
        }
    }
}

#[test]
fn splitter_feeds_identical_event_runs_for_every_batch_size() {
    // Beyond output equality: the per-window event sequences the splitter
    // hands to the instances are byte-identical for every batch size, so
    // a processed-events metric over a consumption-free query (nothing
    // suppressed, no speculation) must agree exactly with the stream.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1_500, 7), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 100, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;

    let mut baseline: Option<Vec<String>> = None;
    for batch in [1usize, 7, 64, 1024] {
        let config = SpectreConfig::with_batching(2, batch, 8);
        let report = run(&query, events.clone(), &config, Mode::Simulated);
        assert_same_output(&format!("batch={batch}"), &report.complex_events, &expected);
        let rendered = spectre_integration::fmt_all(&report.complex_events);
        match &baseline {
            None => baseline = Some(rendered),
            Some(b) => assert_eq!(&rendered, b, "batch={batch} diverged from batch=1"),
        }
    }
}
