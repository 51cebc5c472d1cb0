//! The speculation-free lane: a query without a consumption policy skips
//! the dependency tree — each window is a lane cell that instances claim
//! in open order — while queries with a consumption policy keep the tree
//! path unchanged. Outputs must not change, the lane must never wedge a
//! back-pressured run, and a lane query beside a tree query of the same
//! window spec shares its window buffers with it.

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::{QueryId, SpectreConfig, SpectreEngine, TenantId};
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::{Event, Schema};
use spectre_integration::{
    assert_same_output, lane_events_processed, run, without_consumption, Mode,
};
use spectre_query::queries::{self, Direction};
use spectre_query::ComplexEvent;

/// A NYSE stream shaped like the benchmark's (300 symbols, 16 leaders).
fn nyse(schema: &mut Schema, events: usize, seed: u64) -> Vec<Event> {
    let config = NyseConfig {
        symbols: 300,
        leaders: 16,
        events,
        seed,
        ..NyseConfig::default()
    };
    NyseGenerator::new(config, schema).collect()
}

#[test]
fn consumption_free_q1_matches_sequential_on_the_lane() {
    // The liveness regression: a tight cap keeps ingestion at the
    // back-pressure edge, where the oldest unretired window must finish
    // for the run to continue. An instance on a stalled open window takes
    // only closed, fully ingested ones, so that window is never stuck
    // behind a stalled one.
    let mut schema = Schema::new();
    let events = nyse(&mut schema, 6_000, 42);
    let query = without_consumption(&queries::q1(&mut schema, 3, 200, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;
    assert!(!expected.is_empty());
    // Each window stops once its detector is spent: far fewer events are
    // fed than the windows span.
    let processed = lane_events_processed(&query, &events);
    assert!(processed < events.len() as u64, "{processed}");
    for mode in [Mode::Simulated, Mode::Threaded] {
        for k in [1usize, 2, 4] {
            for batch in [1usize, 64] {
                for cap in [8usize, 1024] {
                    let config = SpectreConfig {
                        max_tree_versions: cap,
                        ..SpectreConfig::with_batching(k, batch)
                    };
                    let label = format!("{mode:?} k={k} batch={batch} cap={cap}");
                    let report = run(&query, events.clone(), &config, mode);
                    assert_same_output(&label, &report.complex_events, &expected);
                    let m = &report.metrics;
                    assert_eq!(m.versions_created, 0, "{label}: no tree");
                    assert!(m.windows_retired > 0, "{label}");
                    assert_eq!(m.lane_windows, m.windows_retired, "{label}: {m:?}");
                    assert_eq!(m.events_processed, processed, "{label}");
                }
            }
        }
    }
}

#[test]
fn consumption_regimes_keep_the_tree_path() {
    // Q1 with consumption at q = 40 (groups complete) and q = 130 (every
    // group abandons): nothing goes through the lane, and the simulated
    // runs create exactly these versions. A version finishes once its
    // detector is spent, so at k > 1 the tree moves on to later windows
    // sooner and speculates on more of them. At q = 40 the match completes
    // early; at q = 130 it is abandoned once the window has fewer positions
    // left than the match still needs, which happens late in the window,
    // so only k = 4 gets far enough ahead to speculate on two more.
    for (q, created) in [(40usize, [105u64, 119, 210]), (130, [105, 105, 107])] {
        let mut schema = Schema::new();
        let events = nyse(&mut schema, 4_000, 7);
        let query = Arc::new(queries::q1(&mut schema, q, 200, Direction::Rising));
        let sequential = run_sequential(&query, &events);
        let expected = &sequential.complex_events;
        for (k, created) in [1usize, 2, 4].into_iter().zip(created) {
            let config = SpectreConfig::with_instances(k);
            let label = format!("q={q} sim k={k}");
            let report = run(&query, events.clone(), &config, Mode::Simulated);
            assert_same_output(&label, &report.complex_events, expected);
            let m = &report.metrics;
            assert_eq!(m.lane_windows, 0, "{label}");
            assert_eq!(m.versions_created, created, "{label}: {m:?}");
            if k == 1 {
                // One instance feeds exactly what the oracle feeds: each
                // window up to its end or until its detector is spent.
                assert_eq!(m.events_processed, sequential.events_processed, "{label}");
            }
        }
        let config = SpectreConfig::with_instances(2);
        let report = run(&query, events, &config, Mode::Threaded);
        let label = format!("q={q} threaded k=2");
        assert_same_output(&label, &report.complex_events, expected);
        assert_eq!(report.metrics.lane_windows, 0, "{label}");
    }
}

#[test]
fn every_created_group_is_resolved_once() {
    // Every created group ends exactly once: completed, abandoned, or
    // discarded with the version that held it open (reset, rolled back or
    // dropped). At q = 130, sim k = 4, the tree materializes speculative
    // copies, whose twin groups count as created too; at q = 40 groups
    // complete, and the versions that lose their bet take open groups
    // with them.
    for q in [130usize, 40] {
        let mut schema = Schema::new();
        let events = nyse(&mut schema, 4_000, 7);
        let query = Arc::new(queries::q1(&mut schema, q, 200, Direction::Rising));
        let expected = run_sequential(&query, &events).complex_events;
        let config = SpectreConfig::with_instances(4);
        let label = format!("q={q} sim k=4");
        let report = run(&query, events, &config, Mode::Simulated);
        assert_same_output(&label, &report.complex_events, &expected);
        let m = &report.metrics;
        assert!(m.versions_materialized > 0, "{label}: {m:?}");
        assert_eq!(
            m.cgs_completed + m.cgs_abandoned + m.cgs_discarded,
            m.cgs_created,
            "{label}: {m:?}"
        );
    }
}

fn outputs_of(report: &spectre_core::Report, qid: QueryId) -> &[ComplexEvent] {
    &report.queries[&qid].complex_events
}

#[test]
fn a_lane_query_beside_a_tree_query_of_the_same_spec_matches_sequential() {
    // The two queries share every window buffer: the lane's instances and
    // the tree's retirement release each one through the same count.
    let mut schema = Schema::new();
    let events = nyse(&mut schema, 8_000, 11);
    let tree = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let lane = without_consumption(&tree);
    let expected_tree = run_sequential(&tree, &events).complex_events;
    let expected_lane = run_sequential(&lane, &events).complex_events;
    assert_ne!(
        expected_tree, expected_lane,
        "the policies differ on this stream"
    );
    for tenants in [[TenantId::DEFAULT; 2], [TenantId(1), TenantId(2)]] {
        for run in 0..5 {
            let label = format!("tenants {tenants:?} run {run}");
            let mut builder =
                SpectreEngine::multi_builder().config(SpectreConfig::with_instances(2));
            let qt = builder.add_query_for(tenants[0], &tree);
            let ql = builder.add_query_for(tenants[1], &lane);
            let report = builder
                .threaded()
                .try_build()
                .and_then(|engine| engine.run(events.iter().cloned()))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_same_output(&label, outputs_of(&report, qt), &expected_tree);
            assert_same_output(&label, outputs_of(&report, ql), &expected_lane);
            let m = &report.metrics;
            assert_eq!(m.store_windows_opened * 2, m.windows_retired, "{label}");
            assert_eq!(m.lane_windows, report.queries[&ql].metrics.windows_retired);
            assert_eq!(report.queries[&ql].metrics.versions_created, 0, "{label}");
        }
    }
}
