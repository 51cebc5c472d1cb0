//! Threaded-runtime integration: real OS threads (1 splitter + k operator
//! instances over shared memory) must deliver the sequential output under
//! arbitrary interleavings. Streams are kept small — this suite also runs on
//! single-core machines where the threads time-slice.

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::{MetricsSnapshot, SpectreConfig, SpectreEngine};
use spectre_datasets::{NyseConfig, NyseGenerator, RandConfig, RandGenerator};
use spectre_events::Schema;
use spectre_integration::{assert_same_output, run, Mode};
use spectre_query::queries::{self, Direction};

#[test]
fn threaded_q1_matches_sequential() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1000, 61), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;
    for k in [1usize, 2, 3] {
        let config = SpectreConfig::with_instances(k);
        let report = run(&query, events.clone(), &config, Mode::Threaded);
        assert_same_output(
            &format!("threaded q1 k={k}"),
            &report.complex_events,
            &expected,
        );
        assert_eq!(report.input_events, 1000);
    }
}

#[test]
fn threaded_q3_matches_sequential() {
    let mut schema = Schema::new();
    let gen = RandGenerator::new(RandConfig::small(800, 67), &mut schema);
    let symbols = gen.symbols().to_vec();
    let events: Vec<_> = gen.collect();
    let query = Arc::new(queries::q3(
        &mut schema,
        symbols[0],
        &symbols[1..4],
        200,
        40,
    ));
    let expected = run_sequential(&query, &events).complex_events;
    let config = SpectreConfig::with_instances(2);
    let report = run(&query, events, &config, Mode::Threaded);
    assert_same_output("threaded q3", &report.complex_events, &expected);
}

#[test]
fn threaded_repeated_runs_are_deterministic_in_output() {
    // Thread schedules differ between runs; outputs must not.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(700, 71), &mut schema).collect();
    let query = Arc::new(queries::q2(&mut schema, 60.0, 140.0, 200, 40));
    let expected = run_sequential(&query, &events).complex_events;
    for attempt in 0..3 {
        let config = SpectreConfig::with_instances(2);
        let report = run(&query, events.clone(), &config, Mode::Threaded);
        eprintln!("run {attempt}: metrics = {:?}", report.metrics);
        assert_same_output(&format!("run {attempt}"), &report.complex_events, &expected);
    }
}

#[test]
fn threaded_matches_sequential_across_batch_sizes_and_shard_counts() {
    // Deterministic-equivalence matrix for the batched/sharded data path
    // and the lazy dependency tree under real threads: k ∈ {1,2,4,8} ×
    // batch ∈ {1,64,1024} × shards ∈ {1,8} all deliver the sequential
    // output, on any machine and any interleaving. Lazy materialization is
    // the racy part (clones are taken from *live* source state that
    // instances mutate concurrently), which is exactly why it runs under
    // real threads here.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1000, 83), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;
    for k in [1usize, 2, 4, 8] {
        for batch in [1usize, 64, 1024] {
            for shards in [1usize, 8] {
                let config = SpectreConfig::with_batching(k, batch, shards);
                let report = run(&query, events.clone(), &config, Mode::Threaded);
                assert_same_output(
                    &format!("threaded k={k} batch={batch} shards={shards}"),
                    &report.complex_events,
                    &expected,
                );
            }
        }
    }
}

#[test]
fn threaded_matches_sequential_across_version_caps() {
    // The `max_tree_versions` rows under real threads: pending-attach
    // markers materialize while instances concurrently mutate the live
    // source state the fresh versions will read. Pending windows count
    // toward the speculative load, so a tight cap keeps materializing at
    // the back-pressure edge while a loose one lets backlogs pend — any
    // interleaving of either must deliver the sequential output.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1000, 83), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;
    for cap in [8usize, 1024] {
        for k in [1usize, 2, 4, 8] {
            let config = SpectreConfig {
                max_tree_versions: cap,
                ..SpectreConfig::with_instances(k)
            };
            let report = run(&query, events.clone(), &config, Mode::Threaded);
            assert_same_output(
                &format!("threaded k={k} cap={cap}"),
                &report.complex_events,
                &expected,
            );
        }
    }
}

#[test]
fn threaded_aggregate_metrics_equal_the_sum_of_per_worker_blocks() {
    // Each instance owns a cache-padded counter block for the hot metrics
    // (events processed/suppressed, idle and stalled steps) so k workers
    // never contend on one cache line. The decomposition must stay exact
    // at every instance count: instances route every increment through
    // their own block, so the aggregate snapshot — base residual plus the
    // block sums — equals the plain block sums here, and the per-query
    // share of a single-query session equals the aggregate. Runs under
    // real threads, where a lost or double-counted increment would be a
    // race, not an arithmetic slip.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1000, 83), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let expected = run_sequential(&query, &events).complex_events;
    for k in [1usize, 2, 4, 8] {
        let config = SpectreConfig::with_batching(k, 64, 8);
        let mut engine = SpectreEngine::builder(&query)
            .config(config)
            .threaded()
            .try_build()
            .unwrap();
        engine.ingest(events.iter().cloned()).unwrap();
        let report = engine.try_finish().expect("fresh session finishes once");
        assert_same_output(&format!("engine k={k}"), &report.complex_events, &expected);
        // Workers are joined after finish, so the block snapshots are
        // final and race-free.
        let workers = engine.worker_metrics();
        assert_eq!(workers.len(), k, "one counter block per instance");
        let m = &report.metrics;
        let sums = workers.iter().fold([0u64; 4], |acc, w| {
            [
                acc[0] + w.events_processed,
                acc[1] + w.events_suppressed,
                acc[2] + w.idle_steps,
                acc[3] + w.stalled_steps,
            ]
        });
        let label = format!("k={k}");
        assert_eq!(sums[0], m.events_processed, "events_processed {label}");
        assert_eq!(sums[1], m.events_suppressed, "events_suppressed {label}");
        assert_eq!(sums[2], m.idle_steps, "idle_steps {label}");
        assert_eq!(sums[3], m.stalled_steps, "stalled_steps {label}");
        assert!(m.events_processed >= events.len() as u64);
        // Single-query session: the query's share of the summable hot
        // counters is the whole aggregate.
        let (_, qm) = report
            .queries
            .iter()
            .map(|(qid, qr)| (*qid, &qr.metrics))
            .next()
            .expect("one deployed query");
        assert_eq!(qm.events_processed, m.events_processed, "{label}");
        assert_eq!(qm.events_suppressed, m.events_suppressed, "{label}");
    }
}

#[test]
fn threaded_reports_plausible_metrics() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(500, 73), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 2, 100, Direction::Rising));
    let config = SpectreConfig::with_instances(2);
    let report = run(&query, events, &config, Mode::Threaded);
    let m = &report.metrics;
    assert!(
        m.events_processed >= 500,
        "each event processed at least once"
    );
    assert!(m.windows_retired > 0);
    assert!(m.sched_cycles > 0);
    assert!(report.throughput() > 0.0);
}

#[test]
fn abandon_regime_matches_sequential_while_the_predictor_refreshes() {
    // Q1 at q = 130 over ws = 200 with consumption: no group ever
    // completes, every completion branch is dropped, and the Markov
    // predictor refreshes throughout (the benchmark's `spec_abandon`
    // shape). The equivalence matrices above never leave the prior.
    let (query, events) = q1_regime(130, 19);
    let expected = run_sequential(&query, &events).complex_events;
    let check = |label: &str, got: &[_], metrics: &MetricsSnapshot| {
        assert_same_output(label, got, &expected);
        assert!(metrics.predictor_refreshes > 0, "{label}: {metrics:?}");
        assert!(metrics.cgs_created > 0, "{label}: {metrics:?}");
        assert_eq!(metrics.cgs_completed, 0, "{label}: {metrics:?}");
    };
    for k in [1usize, 2] {
        let config = SpectreConfig::with_instances(k);
        let report = run(&query, events.clone(), &config, Mode::Simulated);
        check(
            &format!("sim k={k}"),
            &report.complex_events,
            &report.metrics,
        );
    }
    let config = SpectreConfig::with_instances(2);
    let report = run(&query, events, &config, Mode::Threaded);
    check("threaded k=2", &report.complex_events, &report.metrics);
}

/// Q1 at pattern length `q` over ws = 200 with consumption, on 50 k
/// seeded NYSE events (300 symbols, 16 leaders). The pattern/window ratio
/// picks the regime: q = 40 is the benchmark's `spec_complete` shape
/// (groups mostly complete, so completion branches are rebuilt,
/// materialized and rolled back), q = 130 its `spec_abandon` shape.
fn q1_regime(q: usize, seed: u64) -> (Arc<spectre_query::Query>, Vec<spectre_events::Event>) {
    let mut schema = Schema::new();
    let config = NyseConfig {
        symbols: 300,
        leaders: 16,
        events: 50_000,
        seed,
        ..NyseConfig::default()
    };
    let events: Vec<_> = NyseGenerator::new(config, &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, q, 200, Direction::Rising));
    (query, events)
}

#[test]
fn completion_regime_matches_sequential_without_rebuilding_the_backlog() {
    // The twin of the abandon-regime test for the other half of the
    // tree: a completion or a rollback rebuilds one version, whatever the
    // backlog of pending windows, so the versions a run creates stay
    // within a small multiple of the windows it retires plus the groups
    // it opens (≈ 126 × before rebuilt tails became thunks).
    let (query, events) = q1_regime(40, 23);
    let expected = run_sequential(&query, &events).complex_events;
    let check = |label: &str, got: &[_], m: &MetricsSnapshot| {
        assert_same_output(label, got, &expected);
        assert!(m.cgs_completed > 0, "{label}: {m:?}");
        assert!(
            m.versions_created <= 4 * (m.windows_retired + m.cgs_created),
            "{label}: {m:?}"
        );
    };
    let mut rollbacks = 0;
    for k in [1usize, 2, 4] {
        let config = SpectreConfig::with_instances(k);
        let report = run(&query, events.clone(), &config, Mode::Simulated);
        check(
            &format!("sim k={k}"),
            &report.complex_events,
            &report.metrics,
        );
        rollbacks += report.metrics.rollbacks;
    }
    // Whether the threaded run rolls back depends on how far its workers
    // trail the splitter; the simulated schedules are deterministic and
    // k = 4 speculates deep enough to be wrong.
    assert!(rollbacks > 0, "no simulated run rolled back");
    let config = SpectreConfig::with_instances(2);
    let report = run(&query, events, &config, Mode::Threaded);
    check("threaded k=2", &report.complex_events, &report.metrics);
}

#[test]
fn versions_created_do_not_grow_with_the_backlog_cap() {
    // The whole stream sits in the feed before the first cycle, so every
    // run ingests up to its `max_tree_versions` cap at once and works the
    // backlog off from there: the deepest backlog the cap allows. The
    // versions created must not depend on that depth.
    let (query, events) = q1_regime(40, 23);
    let expected = run_sequential(&query, &events).complex_events;
    let created: Vec<u64> = [64usize, 256, 1024]
        .into_iter()
        .map(|cap| {
            let config = SpectreConfig {
                max_tree_versions: cap,
                ingest_per_cycle: events.len(),
                ..SpectreConfig::with_instances(2)
            };
            let report = run(&query, events.clone(), &config, Mode::Simulated);
            assert_same_output(&format!("cap={cap}"), &report.complex_events, &expected);
            assert!(report.metrics.cgs_completed > 0);
            report.metrics.versions_created
        })
        .collect();
    let (min, max) = (
        *created.iter().min().unwrap(),
        *created.iter().max().unwrap(),
    );
    assert!(
        max as f64 <= 1.2 * min as f64,
        "versions created per cap: {created:?}"
    );
}

#[test]
fn mixed_regime_matches_sequential_at_every_instance_count() {
    // Q1 at q = 110 over ws = 200: most groups abandon, enough complete to
    // keep the output non-trivial, so both halves of the tree run in one
    // stream. Every k must deliver the sequential output under real
    // threads; k = 8 oversubscribes a small host on purpose, which is where
    // the worker interleavings are most varied. Rollbacks are not asserted:
    // whether a run rolls back depends on the thread schedule.
    let (query, events) = q1_regime(110, 42);
    let expected = run_sequential(&query, &events).complex_events;
    for k in [1usize, 2, 4, 8] {
        let config = SpectreConfig::with_instances(k);
        let report = run(&query, events.clone(), &config, Mode::Threaded);
        let m = &report.metrics;
        let label = format!("threaded k={k}");
        assert_same_output(&label, &report.complex_events, &expected);
        assert!(m.cgs_completed > 0, "{label}: {m:?}");
        assert!(m.cgs_abandoned > 0, "{label}: {m:?}");
    }
}
