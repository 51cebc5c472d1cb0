//! Tenant-aware sessions: tagging every query with the same tenant must
//! change nothing — outputs *and* schedules bit-identical to the
//! untenanted engine across the k × batch matrix — while
//! pattern-derived ingestion filters skip windows a query cannot match in
//! without altering its output, quota violations surface as typed builder
//! errors instead of panics, and per-tenant metric rollups sum exactly to
//! the aggregate counters (including across a mid-stream retire).

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::{
    EngineError, QueryId, Report, SpectreConfig, SpectreEngine, SpectreEngineBuilder, TenantId,
    TenantQuota,
};
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::{Event, Schema};
use spectre_integration::{assert_same_output, mini};
use spectre_query::queries::{self, Direction};
use spectre_query::{ComplexEvent, ConsumptionPolicy, Expr, Pattern, Query, WindowSpec};

fn nyse_fixture(events: usize, seed: u64) -> (Arc<Query>, Vec<Event>) {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(events, seed), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    (query, events)
}

fn query_outputs(report: &Report, qid: QueryId) -> &[ComplexEvent] {
    &report
        .queries
        .get(&qid)
        .unwrap_or_else(|| panic!("{qid} missing from report"))
        .complex_events
}

/// A mini-vocabulary A-then-B query whose derived filter rejects every
/// event with `x ∉ {1, 2}` — windows made of rejected events are skipped.
fn ab_query() -> (mini::MiniVocab, Arc<Query>) {
    let mut schema = Schema::new();
    let v = mini::vocab(&mut schema);
    let query = Arc::new(
        Query::builder("ab")
            .pattern(
                Pattern::builder()
                    .one("A", Expr::current(v.x).eq_(Expr::value(1.0)))
                    .one("B", Expr::current(v.x).eq_(Expr::value(2.0)))
                    .build()
                    .unwrap(),
            )
            .window(WindowSpec::count_sliding(4, 2).unwrap())
            .consumption(ConsumptionPolicy::All)
            .build()
            .unwrap(),
    );
    (v, query)
}

#[test]
fn single_tenant_sessions_match_untenanted_bit_for_bit() {
    // Tagging the only query with a non-default tenant must reduce exactly
    // to the untenanted engine: same outputs AND the same schedule, which
    // the deterministic simulation exposes as an identical metrics
    // snapshot (versions materialized, rollbacks, predictor refreshes —
    // any scheduling divergence would shift at least one counter).
    let (query, events) = nyse_fixture(1_200, 19);
    let expected = run_sequential(&query, &events).complex_events;
    assert!(!expected.is_empty());
    for k in [1usize, 2, 4] {
        for batch in [1usize, 64] {
            let config = SpectreConfig::with_batching(k, batch, 8);
            let plain = {
                let mut b = SpectreEngine::multi_builder().config(config.clone());
                let qid = b.add_query(&query);
                (b.try_build().unwrap().run(events.clone()).unwrap(), qid)
            };
            let tagged = {
                let mut b = SpectreEngine::multi_builder().config(config);
                let qid = b.add_query_for(TenantId(5), &query);
                (b.try_build().unwrap().run(events.clone()).unwrap(), qid)
            };
            let tag = format!("sim k={k} batch={batch}");
            assert_same_output(&tag, query_outputs(&plain.0, plain.1), &expected);
            assert_same_output(&tag, query_outputs(&tagged.0, tagged.1), &expected);
            assert_eq!(
                plain.0.metrics, tagged.0.metrics,
                "{tag}: tenant tagging must not perturb the schedule"
            );
            // The single tenant's rollup IS its only query's share
            // (engine-scoped counters like sched_cycles stay out of
            // rollups by design).
            assert_eq!(tagged.0.tenants.len(), 1);
            assert_eq!(
                tagged.0.tenants[&TenantId(5)],
                tagged.0.queries[&tagged.1].metrics
            );
        }
    }
}

#[test]
fn threaded_single_tenant_matches_untenanted_outputs() {
    let (query, events) = nyse_fixture(1_200, 41);
    let expected = run_sequential(&query, &events).complex_events;
    assert!(!expected.is_empty());
    let config = SpectreConfig::with_instances(2);
    let mut b = SpectreEngine::multi_builder().config(config);
    let qid = b.add_query_for(TenantId(9), &query);
    let report = b.threaded().try_build().unwrap().run(events).unwrap();
    assert_same_output("threaded tagged", query_outputs(&report, qid), &expected);
    assert_eq!(report.queries[&qid].tenant, TenantId(9));
}

#[test]
fn filters_skip_irrelevant_windows_without_changing_output() {
    // Long stretches of x=7 noise open windows containing nothing the A-B
    // query can bind: with the pattern-derived prefilter those windows are
    // never attached to the dependency tree (windows_skipped counts them),
    // and the output still matches the filter-free sequential reference.
    let (v, query) = ab_query();
    let mut xs = Vec::new();
    for block in 0..40 {
        if block % 4 == 0 {
            xs.extend_from_slice(&[1.0, 7.0, 2.0, 7.0]);
        } else {
            xs.extend_from_slice(&[7.0, 7.0, 7.0, 7.0]);
        }
    }
    let events = mini::stream(v, &xs);
    let expected = run_sequential(&query, &events).complex_events;
    assert!(!expected.is_empty());
    for threaded in [false, true] {
        let mut b = SpectreEngine::multi_builder().config(SpectreConfig::with_instances(2));
        let qid = b.add_query(&query);
        let engine = if threaded {
            b.threaded().try_build().unwrap()
        } else {
            b.try_build().unwrap()
        };
        let report = engine.run(events.clone()).unwrap();
        let tag = if threaded { "threaded" } else { "sim" };
        assert_same_output(tag, query_outputs(&report, qid), &expected);
        assert!(
            report.metrics.windows_skipped > 0,
            "{tag}: the all-noise windows must be skipped, not attached"
        );
        assert_eq!(
            report.queries[&qid].metrics.windows_skipped, report.metrics.windows_skipped,
            "{tag}: the only query owns every skip"
        );
        // A skipped window never reaches the tree, so it is not retired;
        // the windows with relevant events still are.
        assert!(
            report.metrics.windows_retired > 0,
            "{tag}: windows with relevant events are processed normally"
        );
    }
}

#[test]
fn quota_violations_surface_as_builder_errors() {
    let (query, _) = nyse_fixture(16, 3);

    // An invalid engine knob is a typed error, not a panic.
    let mut b = SpectreEngine::multi_builder().config(SpectreConfig {
        instances: 0,
        ..SpectreConfig::with_instances(2)
    });
    b.add_query(&query);
    match b.try_build() {
        Err(EngineError::InvalidConfig(msg)) => {
            assert!(msg.contains("at least one operator instance"), "{msg}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }

    // So is an invalid tenant quota.
    let mut b = SpectreEngine::multi_builder().config(SpectreConfig::with_instances(2));
    b.add_query_for(TenantId(1), &query);
    b.set_quota(TenantId(1), TenantQuota::default().with_weight(0));
    match b.try_build() {
        Err(EngineError::InvalidConfig(msg)) => {
            assert!(msg.contains("tenant weight must be positive"), "{msg}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }

    // A speculation cap above the engine-wide ceiling is rejected too.
    let config = SpectreConfig::with_instances(2);
    let too_high = config.max_tree_versions + 1;
    let mut b = SpectreEngine::multi_builder().config(config);
    b.add_query_for(TenantId(1), &query);
    b.set_quota(
        TenantId(1),
        TenantQuota::default().with_max_versions(too_high),
    );
    match b.try_build() {
        Err(EngineError::InvalidConfig(msg)) => {
            assert!(msg.contains("exceeds max_tree_versions"), "{msg}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }

    // Overrunning a tenant's query cap at build time names the tenant.
    let mut b = SpectreEngine::multi_builder().config(SpectreConfig::with_instances(2));
    b.add_query_for(TenantId(2), &query);
    b.add_query_for(TenantId(2), &query);
    b.set_quota(TenantId(2), TenantQuota::default().with_max_queries(1));
    match b.try_build() {
        Err(EngineError::QuotaExceeded {
            tenant,
            max_queries,
        }) => {
            assert_eq!(tenant, TenantId(2));
            assert_eq!(max_queries, 1);
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
}

#[test]
fn live_deploys_respect_the_query_quota() {
    let (query, events) = nyse_fixture(600, 11);
    let mut b = SpectreEngine::multi_builder().config(SpectreConfig::with_instances(2));
    let first = b.add_query_for(TenantId(3), &query);
    b.set_quota(TenantId(3), TenantQuota::default().with_max_queries(2));
    let mut engine = b.try_build().expect("one query is under the cap");
    engine.ingest(events[..300].to_vec()).unwrap();
    // Second deploy fills the quota; the third is rejected mid-stream and
    // leaves the session fully operational.
    let second = engine
        .deploy_query_for(TenantId(3), &query)
        .expect("second deploy fills the quota");
    match engine.deploy_query_for(TenantId(3), &query) {
        Err(EngineError::QuotaExceeded { tenant, .. }) => assert_eq!(tenant, TenantId(3)),
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    // A different tenant is unaffected by t3's cap.
    let other = engine
        .deploy_query_for(TenantId(4), &query)
        .expect("other tenants have their own caps");
    engine.ingest(events[300..].to_vec()).unwrap();
    let report = engine.try_finish().expect("finish");
    for qid in [first, second, other] {
        assert!(report.queries.contains_key(&qid));
    }
    assert_eq!(report.queries[&first].tenant, TenantId(3));
    assert_eq!(report.queries[&other].tenant, TenantId(4));
}

#[test]
fn tenant_rollups_sum_to_the_aggregate() {
    // Two tenants with different weights and a mid-stream retire: every
    // logically-per-query counter must decompose exactly across the
    // per-tenant rollups — the retired query's share is folded into its
    // tenant's residual, nothing double-counted, nothing lost.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1_200, 53), &mut schema).collect();
    let a = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let b = Arc::new(queries::q1(&mut schema, 2, 100, Direction::Rising));

    let mut builder = SpectreEngine::multi_builder().config(SpectreConfig::with_instances(3));
    builder.add_query_for(TenantId(1), &a);
    let retired = builder.add_query_for(TenantId(1), &a);
    builder.add_query_for(TenantId(2), &b);
    builder.set_quota(TenantId(1), TenantQuota::default().with_weight(3));
    let mut engine = builder.try_build().expect("build");
    engine.ingest(events[..600].to_vec()).unwrap();
    engine.retire_query(retired).expect("retire mid-stream");
    engine.ingest(events[600..].to_vec()).unwrap();
    let report = engine.try_finish().expect("finish");

    assert_eq!(report.tenants.len(), 2, "both tenants report a rollup");
    let total = report.metrics;
    macro_rules! assert_decomposes {
        ($($field:ident),+ $(,)?) => {$(
            let sum: u64 = report.tenants.values().map(|t| t.$field).sum();
            assert_eq!(
                total.$field, sum,
                concat!(stringify!($field), " must equal the sum of tenant rollups"),
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
        windows_skipped,
        outputs_emitted,
        events_reordered,
        late_events_dropped,
        late_events_admitted,
        watermarks_advanced,
    );
    assert!(total.outputs_emitted > 0, "the run produced outputs");
    // The live session exposes the same rollups before finish().
    let mut engine = SpectreEngine::multi_builder()
        .config(SpectreConfig::with_instances(2))
        .try_build()
        .unwrap();
    engine.deploy_query_for(TenantId(7), &a).expect("deploy");
    engine.ingest(events[..200].to_vec()).unwrap();
    let live = engine.tenant_metrics();
    assert_eq!(live.len(), 1);
    assert_eq!(live[0].0, TenantId(7));
}

#[test]
fn weighted_tenants_still_produce_exact_outputs() {
    // Fair-share scheduling reorders *speculation*, never *semantics*:
    // whatever the weights, every hosted query's output stays bit-identical
    // to its solo sequential run.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1_200, 61), &mut schema).collect();
    let a = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let b = Arc::new(queries::q1(&mut schema, 2, 100, Direction::Rising));
    let expected_a = run_sequential(&a, &events).complex_events;
    let expected_b = run_sequential(&b, &events).complex_events;
    assert!(!expected_a.is_empty() && !expected_b.is_empty());
    for threaded in [false, true] {
        let mut builder = SpectreEngine::multi_builder().config(SpectreConfig::with_instances(2));
        let qa = builder.add_query_for(TenantId(1), &a);
        let qb = builder.add_query_for(TenantId(2), &b);
        builder.set_quota(TenantId(1), TenantQuota::default().with_weight(4));
        builder.set_quota(TenantId(2), TenantQuota::default().with_max_versions(64));
        let engine = if threaded {
            builder.threaded().try_build().unwrap()
        } else {
            builder.try_build().unwrap()
        };
        let report = engine.run(events.clone()).unwrap();
        let tag = if threaded { "threaded" } else { "sim" };
        assert_same_output(&format!("{tag} a"), query_outputs(&report, qa), &expected_a);
        assert_same_output(&format!("{tag} b"), query_outputs(&report, qb), &expected_b);
    }
}

#[test]
fn a_light_tenant_keeps_its_outputs_and_its_share_beside_a_heavy_tenant() {
    // A light data-path tenant (Q1 q = 3 without consumption) shares a
    // k = 4 session with a speculation-heavy one (Q1 q = 110 with
    // consumption), uncapped and with the heavy tenant's speculation
    // capped. Both tenants' outputs stay exact. In the simulation the light
    // tenant's share of the session is deterministic: the shared run must
    // take at most ten times the rounds of the light tenant's solo run
    // (about twice as many at this pairing).
    let mut schema = Schema::new();
    let config = NyseConfig {
        symbols: 300,
        leaders: 16,
        events: 20_000,
        seed: 42,
        ..NyseConfig::default()
    };
    let events: Vec<_> = NyseGenerator::new(config, &mut schema).collect();
    let base = queries::q1(&mut schema, 3, 200, Direction::Rising);
    let light = Arc::new(
        Query::builder("Q1-NC")
            .pattern_arc(Arc::clone(base.pattern()))
            .window(base.window().clone())
            .selection(base.selection())
            .consumption(ConsumptionPolicy::None)
            .build()
            .unwrap(),
    );
    let heavy = Arc::new(queries::q1(&mut schema, 110, 200, Direction::Rising));
    let expected_light = run_sequential(&light, &events).complex_events;
    let expected_heavy = run_sequential(&heavy, &events).complex_events;
    assert!(!expected_light.is_empty() && !expected_heavy.is_empty());
    let config = SpectreConfig::with_instances(4);
    for threaded in [false, true] {
        let tag = if threaded { "threaded" } else { "sim" };
        let build = |b: SpectreEngineBuilder| {
            if threaded {
                b.threaded().try_build().unwrap()
            } else {
                b.simulated().try_build().unwrap()
            }
        };
        let mut solo = SpectreEngine::multi_builder().config(config.clone());
        let qs = solo.add_query(&light);
        let solo = build(solo).run(events.clone()).unwrap();
        assert_same_output(
            &format!("{tag} solo"),
            query_outputs(&solo, qs),
            &expected_light,
        );
        for quota in [None, Some(TenantQuota::default().with_max_versions(64))] {
            let tag = format!("{tag} capped={}", quota.is_some());
            let mut shared = SpectreEngine::multi_builder().config(config.clone());
            let ql = shared.add_query_for(TenantId(1), &light);
            let qh = shared.add_query_for(TenantId(2), &heavy);
            if let Some(quota) = quota {
                shared.set_quota(TenantId(2), quota);
            }
            let shared = build(shared).run(events.clone()).unwrap();
            assert_same_output(
                &format!("{tag} light"),
                query_outputs(&shared, ql),
                &expected_light,
            );
            assert_same_output(
                &format!("{tag} heavy"),
                query_outputs(&shared, qh),
                &expected_heavy,
            );
            if !threaded {
                let ratio = solo.rounds.unwrap() as f64 / shared.rounds.unwrap() as f64;
                assert!(ratio >= 0.10, "{tag}: light tenant share {ratio:.3}");
            }
        }
    }
}
