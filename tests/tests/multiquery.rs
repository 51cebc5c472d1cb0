//! Multi-query engine sessions: N queries hosted in one [`SpectreEngine`]
//! must each produce output bit-identical to a single-query session of
//! their own — across the k × batch matrix, in both execution
//! modes — while same-spec queries share window buffers in the store
//! (each window's events held exactly once). Deploying or retiring a
//! query mid-stream must leave the other queries' outputs untouched, and
//! the aggregate metric counters must equal the sum of the per-query
//! shares for every logically-per-query counter.

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::{QueryId, ReorderConfig, Report, SpectreConfig, SpectreEngine, WatermarkPolicy};
use spectre_datasets::{bounded_shuffle, NyseConfig, NyseGenerator};
use spectre_events::{Event, Schema};
use spectre_integration::assert_same_output;
use spectre_query::queries::{self, Direction};
use spectre_query::{ComplexEvent, Query};

/// A seeded NYSE stream plus two queries: `a` (the spec most tests share
/// across several deployments) and `b` with a different window spec.
fn fixture(events: usize, seed: u64) -> (Arc<Query>, Arc<Query>, Vec<Event>) {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(events, seed), &mut schema).collect();
    let a = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let b = Arc::new(queries::q1(&mut schema, 2, 100, Direction::Rising));
    (a, b, events)
}

fn multi_session(
    queries: &[&Arc<Query>],
    config: SpectreConfig,
    threaded: bool,
) -> (SpectreEngine, Vec<QueryId>) {
    let mut builder = SpectreEngine::multi_builder().config(config);
    let ids: Vec<QueryId> = queries.iter().map(|q| builder.add_query(q)).collect();
    let engine = if threaded {
        builder.threaded().try_build().unwrap()
    } else {
        builder.try_build().unwrap()
    };
    (engine, ids)
}

fn query_outputs(report: &Report, qid: QueryId) -> &[ComplexEvent] {
    &report
        .queries
        .get(&qid)
        .unwrap_or_else(|| panic!("{qid} missing from report"))
        .complex_events
}

#[test]
fn hosted_queries_match_solo_sessions_across_the_matrix() {
    // Two same-spec deployments of `a` plus the different-spec `b`, all in
    // one simulated session: every per-query stream must be bit-identical
    // to the sequential reference (= a solo session of its own).
    let (a, b, events) = fixture(1_500, 17);
    let expected_a = run_sequential(&a, &events).complex_events;
    let expected_b = run_sequential(&b, &events).complex_events;
    assert!(!expected_a.is_empty() && !expected_b.is_empty());
    for k in [1usize, 2, 4] {
        for batch in [1usize, 64] {
            let config = SpectreConfig::with_batching(k, batch, 8);
            let (engine, ids) = multi_session(&[&a, &a, &b], config, false);
            let report = engine.run(events.clone()).unwrap();
            let tag = |q: &str| format!("sim {q} k={k} batch={batch}");
            assert_same_output(&tag("a#0"), query_outputs(&report, ids[0]), &expected_a);
            assert_same_output(&tag("a#1"), query_outputs(&report, ids[1]), &expected_a);
            assert_same_output(&tag("b"), query_outputs(&report, ids[2]), &expected_b);
        }
    }
}

#[test]
fn threaded_four_same_spec_queries_share_windows_and_match_solo() {
    // The acceptance scenario: one threaded session hosting four same-spec
    // queries. Each per-query output stream is bit-identical to a solo
    // session's; the shared store opened each window exactly once (the
    // same count a solo session produces) while retiring it four times.
    let (a, _, events) = fixture(1_200, 29);
    let expected = run_sequential(&a, &events).complex_events;
    assert!(!expected.is_empty());
    let config = SpectreConfig::with_instances(2);

    let solo = SpectreEngine::builder(&a)
        .config(config.clone())
        .threaded()
        .try_build()
        .unwrap()
        .run(events.clone())
        .unwrap();
    assert_same_output("solo threaded", &solo.complex_events, &expected);

    let (engine, ids) = multi_session(&[&a, &a, &a, &a], config, true);
    let report = engine.run(events).unwrap();
    for (i, qid) in ids.iter().enumerate() {
        assert_same_output(
            &format!("hosted a#{i}"),
            query_outputs(&report, *qid),
            &expected,
        );
    }
    // Window dedup, observed through the store counters.
    assert_eq!(
        report.metrics.store_windows_opened, solo.metrics.store_windows_opened,
        "four same-spec queries must open no more store windows than one"
    );
    assert_eq!(
        report.metrics.windows_retired,
        4 * solo.metrics.windows_retired,
        "every query still retires its own view of each window"
    );
}

#[test]
fn deploying_mid_stream_leaves_running_queries_unchanged() {
    // Half-way through the stream, deploy a second same-spec query (joins
    // the running spec group) and a different-spec query (opens a fresh
    // group mid-stream). The original query's output must stay bit-
    // identical to its solo run, the late queries must start producing
    // with their own window numbering, and the whole construction must be
    // deterministic (two identical runs agree exactly).
    let (a, b, events) = fixture(1_500, 23);
    let expected_a = run_sequential(&a, &events).complex_events;
    assert!(!expected_a.is_empty());

    let run_once = || {
        let (mut engine, ids) = multi_session(&[&a], SpectreConfig::with_instances(2), false);
        engine.ingest(events[..750].to_vec()).unwrap();
        let late_same = engine.deploy_query(&a).expect("deploy same-spec");
        let late_diff = engine.deploy_query(&b).expect("deploy different-spec");
        assert_eq!(engine.query_ids(), vec![ids[0], late_same, late_diff]);
        engine.ingest(events[750..].to_vec()).unwrap();
        let report = engine.try_finish().expect("finish");
        (ids[0], late_same, late_diff, report)
    };

    let (q0, late_same, late_diff, report) = run_once();
    assert_same_output("original query", query_outputs(&report, q0), &expected_a);
    let late = query_outputs(&report, late_same);
    assert!(
        !late.is_empty(),
        "a query deployed at the half-way point still sees half the stream"
    );
    // Window ids are query-local: the late query numbers its own windows
    // from zero, so having seen only a suffix of the group's windows, its
    // ids stay strictly below the full run's.
    let max_late = late.iter().map(|ce| ce.window_id).max().unwrap();
    let max_full = expected_a.iter().map(|ce| ce.window_id).max().unwrap();
    assert!(
        max_late < max_full,
        "late ids {max_late} < full ids {max_full}"
    );

    let (_, late_same2, late_diff2, report2) = run_once();
    assert_same_output(
        "late same-spec query is deterministic",
        query_outputs(&report2, late_same2),
        query_outputs(&report, late_same),
    );
    assert_same_output(
        "late different-spec query is deterministic",
        query_outputs(&report2, late_diff2),
        query_outputs(&report, late_diff),
    );
}

#[test]
fn deploying_during_a_disordered_burst_matches_solo_runs() {
    // Queries deployed *while a disordered burst is still parked in the
    // reorder buffer* must match their solo runs over the whole stream: a
    // punctuated stage ingests nothing before the first watermark, so the
    // late deployments still see every event once the buffer flushes — and
    // the original query's output is untouched by the mid-burst deploys.
    let (a, b, events) = fixture(1_500, 43);
    let expected_a = run_sequential(&a, &events).complex_events;
    let expected_b = run_sequential(&b, &events).complex_events;
    assert!(!expected_a.is_empty() && !expected_b.is_empty());
    let shuffled = bounded_shuffle(&events, 60_000, 7);
    assert_ne!(shuffled, events, "the burst must actually be disordered");

    let reorder = ReorderConfig::bounded(0)
        .with_watermark(WatermarkPolicy::Punctuated)
        .with_capacity(2_048);
    let config = SpectreConfig {
        reorder: Some(reorder),
        ..SpectreConfig::with_instances(2)
    };
    let (mut engine, ids) = multi_session(&[&a], config, false);
    engine.ingest(shuffled[..750].to_vec()).unwrap();
    assert_eq!(
        engine.events_ingested(),
        0,
        "a punctuated stage parks the burst in the buffer"
    );
    let late_same = engine.deploy_query(&a).expect("deploy same-spec");
    let late_diff = engine.deploy_query(&b).expect("deploy different-spec");
    engine.ingest(shuffled[750..].to_vec()).unwrap();
    let report = engine.try_finish().expect("finish");
    assert_same_output("original a", query_outputs(&report, ids[0]), &expected_a);
    assert_same_output(
        "mid-burst same-spec deploy",
        query_outputs(&report, late_same),
        &expected_a,
    );
    assert_same_output(
        "mid-burst different-spec deploy",
        query_outputs(&report, late_diff),
        &expected_b,
    );
    assert_eq!(report.metrics.late_events_dropped, 0);
    assert_eq!(report.input_events, 1_500);
}

#[test]
fn retiring_during_a_disordered_burst_matches_solo_runs() {
    // The mirror image of the deploy-mid-burst test: retire a query *while
    // a disordered burst is still parked in the reorder buffer*. The
    // punctuated stage has ingested nothing yet, so the retired query saw
    // no event of the burst — and the survivors' outputs over the whole
    // stream must stay bit-identical to their solo runs.
    let (a, b, events) = fixture(1_500, 47);
    let expected_a = run_sequential(&a, &events).complex_events;
    let expected_b = run_sequential(&b, &events).complex_events;
    assert!(!expected_a.is_empty() && !expected_b.is_empty());
    let shuffled = bounded_shuffle(&events, 60_000, 7);
    assert_ne!(shuffled, events, "the burst must actually be disordered");

    let reorder = ReorderConfig::bounded(0)
        .with_watermark(WatermarkPolicy::Punctuated)
        .with_capacity(2_048);
    let config = SpectreConfig {
        reorder: Some(reorder),
        ..SpectreConfig::with_instances(2)
    };
    let (mut engine, ids) = multi_session(&[&a, &a, &b], config, false);
    engine.ingest(shuffled[..750].to_vec()).unwrap();
    assert_eq!(
        engine.events_ingested(),
        0,
        "a punctuated stage parks the burst in the buffer"
    );
    let drained = engine.retire_query(ids[1]).expect("retire mid-burst");
    assert!(
        drained.is_empty(),
        "nothing was ingested, so the retired query had committed nothing"
    );
    engine.ingest(shuffled[750..].to_vec()).unwrap();
    let report = engine.try_finish().expect("finish");
    assert_same_output("survivor a", query_outputs(&report, ids[0]), &expected_a);
    assert_same_output("survivor b", query_outputs(&report, ids[2]), &expected_b);
    assert!(
        !report.queries.contains_key(&ids[1]),
        "retired queries do not reappear in the report"
    );
    assert_eq!(report.metrics.late_events_dropped, 0);
    assert_eq!(report.input_events, 1_500);
}

#[test]
fn retiring_mid_stream_leaves_surviving_queries_unchanged() {
    let (a, _, events) = fixture(1_500, 31);
    let expected = run_sequential(&a, &events).complex_events;
    assert!(!expected.is_empty());

    let (mut engine, ids) = multi_session(&[&a, &a], SpectreConfig::with_instances(2), false);
    engine.ingest(events[..750].to_vec()).unwrap();
    let drained = engine.retire_query(ids[1]).expect("retire deployed query");
    // What the retired query had committed by then is a clean prefix of
    // its (= the solo) output stream — retirement loses nothing that was
    // already confirmed, and invents nothing.
    assert!(
        expected.starts_with(&drained),
        "retired query's drained outputs are a prefix of its solo stream"
    );
    engine.ingest(events[750..].to_vec()).unwrap();
    let report = engine.try_finish().expect("finish");
    assert_same_output("survivor", query_outputs(&report, ids[0]), &expected);
    assert!(
        !report.queries.contains_key(&ids[1]),
        "retired queries do not reappear in the report"
    );
    // The survivor alone holds every remaining window: each store buffer
    // was released exactly once by the retire and once by the survivor.
    assert!(report.metrics.windows_retired > 0);
}

#[test]
fn aggregate_metrics_are_the_sum_of_per_query_shares() {
    let (a, b, events) = fixture(1_200, 37);
    let (engine, ids) = multi_session(&[&a, &a, &b], SpectreConfig::with_instances(3), false);
    let report = engine.run(events).unwrap();
    assert_eq!(report.queries.len(), ids.len());
    let total = report.metrics;
    // Every logically-per-query counter must decompose exactly: the
    // aggregate is the sum of the per-query shares, nothing double-counted
    // and nothing attributed to the void. Engine-scoped counters
    // (sched_cycles, idle/stalled steps, store_windows_opened) and the
    // per-tree gauge max_tree_versions are excluded by design.
    macro_rules! assert_decomposes {
        ($($field:ident),+ $(,)?) => {$(
            let sum: u64 = report.queries.values().map(|q| q.metrics.$field).sum();
            assert_eq!(
                total.$field, sum,
                concat!(stringify!($field), " must equal the sum of per-query shares"),
            );
        )+};
    }
    assert_decomposes!(
        events_processed,
        events_suppressed,
        cgs_created,
        cgs_completed,
        cgs_abandoned,
        versions_created,
        versions_dropped,
        versions_materialized,
        lazy_versions_dropped,
        predictor_refreshes,
        predictor_refresh_nanos,
        rollbacks,
        windows_retired,
        outputs_emitted,
        events_reordered,
        late_events_dropped,
        late_events_admitted,
        watermarks_advanced,
    );
    assert!(total.outputs_emitted > 0, "the run produced outputs");
    assert_eq!(
        total.outputs_emitted as usize,
        report.complex_events.len(),
        "nothing was drained, so emitted == reported"
    );
}
