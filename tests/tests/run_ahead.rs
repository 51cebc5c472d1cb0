//! Run-ahead of final windows: on a query without a consumption policy an
//! instance whose scheduled head is finished, idle or stalled works through
//! a FIFO of closed, fully ingested window versions on its own. Outputs
//! must not change, run-ahead must never wedge a back-pressured run, and
//! queries with a consumption policy must never run ahead at all.

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::SpectreConfig;
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::{Event, Schema};
use spectre_integration::{assert_same_output, run, without_consumption, Mode};
use spectre_query::queries::{self, Direction};

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
fn consumption_free_q1_matches_sequential_with_run_ahead() {
    // The liveness regression: a tight version cap keeps ingestion at the
    // back-pressure edge, where the root window must finish for the run
    // to continue. Only final versions are ever queued behind a head, so
    // the root can never sit in a FIFO behind a stalled one.
    let mut schema = Schema::new();
    let events = nyse(&mut schema, 6_000, 42);
    let query = without_consumption(&queries::q1(&mut schema, 3, 200, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;
    assert!(!expected.is_empty());
    for mode in [Mode::Simulated, Mode::Threaded] {
        for k in [1usize, 2, 4] {
            for batch in [1usize, 64] {
                for cap in [8usize, 1024] {
                    let config = SpectreConfig {
                        max_tree_versions: cap,
                        ..SpectreConfig::with_batching(k, batch, 8)
                    };
                    let label = format!("{mode:?} k={k} batch={batch} cap={cap}");
                    let report = run(&query, events.clone(), &config, mode);
                    assert_same_output(&label, &report.complex_events, &expected);
                    let m = &report.metrics;
                    assert_eq!(
                        m.versions_created, m.windows_retired,
                        "{label}: one version per window"
                    );
                    if mode == Mode::Threaded && cap == 8 {
                        assert!(m.versions_run_ahead > 0, "{label}: {m:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn consumption_regimes_never_run_ahead() {
    // Q1 with consumption at q = 40 (groups complete) and q = 130 (every
    // group abandons): no version is final there, so nothing is queued,
    // the nomination width stays k, and the simulated runs create exactly
    // the versions they created before run-ahead existed.
    for (q, created) in [(40usize, [105u64, 107, 133]), (130, [105, 105, 105])] {
        let mut schema = Schema::new();
        let events = nyse(&mut schema, 4_000, 7);
        let query = Arc::new(queries::q1(&mut schema, q, 200, Direction::Rising));
        let expected = run_sequential(&query, &events).complex_events;
        for (k, created) in [1usize, 2, 4].into_iter().zip(created) {
            let config = SpectreConfig::with_instances(k);
            let label = format!("q={q} sim k={k}");
            let report = run(&query, events.clone(), &config, Mode::Simulated);
            assert_same_output(&label, &report.complex_events, &expected);
            let m = &report.metrics;
            assert_eq!(m.versions_run_ahead, 0, "{label}");
            assert_eq!(m.versions_created, created, "{label}: {m:?}");
        }
        let config = SpectreConfig::with_instances(2);
        let report = run(&query, events, &config, Mode::Threaded);
        let label = format!("q={q} threaded k=2");
        assert_same_output(&label, &report.complex_events, &expected);
        assert_eq!(report.metrics.versions_run_ahead, 0, "{label}");
    }
}
