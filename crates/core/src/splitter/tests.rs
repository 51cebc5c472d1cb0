//! Unit tests of the splitter's cycle phases.

use super::*;
use crate::config::TenantQuota;
use crate::instance::{InstanceCore, StepOutcome};
use crate::shared::RUN_AHEAD_DEPTH;
use spectre_events::{AttrKey, EventType, Schema};
use spectre_query::{ConsumptionPolicy, Expr, Pattern, Query, WindowSpec};

/// A splitter hosting `query` alone, in the default tenant.
pub(super) fn single(
    query: Arc<Query>,
    config: SpectreConfig,
    shared: Arc<SharedState>,
) -> Splitter {
    let mut splitter = Splitter::multi(config, shared);
    splitter.deploy_query(query).unwrap();
    splitter
}

pub(super) fn ev(seq: u64, x: f64) -> Event {
    Event::builder(EventType::new(0))
        .seq(seq)
        .ts(seq)
        .attr(AttrKey::new(0), x)
        .build()
}

pub(super) fn ab_query() -> Arc<Query> {
    let x = AttrKey::new(0);
    Arc::new(
        Query::builder("t")
            .pattern(
                Pattern::builder()
                    .one("A", Expr::current(x).eq_(Expr::value(1.0)))
                    .one("B", Expr::current(x).eq_(Expr::value(2.0)))
                    .build()
                    .unwrap(),
            )
            .window(WindowSpec::count_sliding(4, 2).unwrap())
            .consumption(ConsumptionPolicy::All)
            .build()
            .unwrap(),
    )
}

fn untag(tagged: Vec<(QueryId, ComplexEvent)>) -> Vec<ComplexEvent> {
    tagged.into_iter().map(|(_, ce)| ce).collect()
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "timestamp-monotone")]
fn non_monotone_feed_is_caught_behind_a_reorder_stage() {
    let config = SpectreConfig::with_instances(1);
    let shared = SharedState::for_config(&config);
    let mut splitter = single(ab_query(), config, shared);
    splitter.expect_monotone(true);
    splitter.feed(ev(0, 1.0)); // ts 0
    splitter.feed(ev(5, 2.0)); // ts 5
    splitter.feed(ev(3, 1.0)); // ts 3 regresses — contract violation
}

#[test]
fn feed_late_bypasses_the_monotone_contract() {
    let config = SpectreConfig::with_instances(1);
    let shared = SharedState::for_config(&config);
    let mut splitter = single(ab_query(), config, shared);
    splitter.expect_monotone(true);
    splitter.feed(ev(5, 1.0));
    splitter.feed_late(ev(3, 2.0)); // admitted late: exempt
    splitter.feed(ev(5, 1.0)); // equal ts is fine
}

#[test]
fn reorder_stats_decompose_over_deployed_queries() {
    let config = SpectreConfig::with_instances(1);
    let shared = SharedState::for_config(&config);
    let mut splitter = Splitter::multi(config, Arc::clone(&shared));
    let stats = crate::reorder::ReorderStats {
        reordered: 3,
        late_dropped: 2,
        late_admitted: 1,
        watermarks: 7,
    };
    // No queries deployed: nothing to attribute the delta to.
    splitter.record_reorder(&stats);
    assert_eq!(shared.metrics.snapshot().events_reordered, 0);
    splitter.deploy_query(ab_query()).unwrap();
    splitter.deploy_query(ab_query()).unwrap();
    splitter.record_reorder(&stats);
    let global = shared.metrics.snapshot();
    assert_eq!(global.events_reordered, 6);
    assert_eq!(global.late_events_dropped, 4);
    assert_eq!(global.late_events_admitted, 2);
    assert_eq!(global.watermarks_advanced, 14);
    for (_, per) in splitter.per_query_metrics() {
        assert_eq!(per.events_reordered, 3);
        assert_eq!(per.late_events_dropped, 2);
        assert_eq!(per.late_events_admitted, 1);
        assert_eq!(per.watermarks_advanced, 7);
    }
}

/// Drives splitter + instances single-threadedly until done.
fn drive_config(query: Arc<Query>, events: Vec<Event>, config: SpectreConfig) -> Vec<ComplexEvent> {
    let shared = SharedState::for_config(&config);
    let k = config.instances;
    let check_freq = config.consistency_check_freq;
    let batch = config.batch_size;
    let mut splitter = single(query, config, Arc::clone(&shared));
    for event in events {
        splitter.feed(event);
    }
    splitter.end_of_stream();
    let mut instances: Vec<_> = (0..k)
        .map(|i| InstanceCore::new(i, check_freq).with_batch(batch))
        .collect();
    for round in 0..1_000_000u64 {
        if splitter.cycle() {
            return untag(splitter.take_outputs());
        }
        for inst in &mut instances {
            let _ = inst.step(&shared);
        }
        let _ = round;
    }
    panic!("did not converge");
}

fn drive(query: Arc<Query>, events: Vec<Event>, k: usize) -> Vec<ComplexEvent> {
    drive_config(query, events, SpectreConfig::with_instances(k))
}

#[test]
fn small_stream_matches_sequential_reference() {
    let _ = Schema::new();
    let query = ab_query();
    let events: Vec<Event> = vec![
        ev(0, 1.0),
        ev(1, 2.0),
        ev(2, 1.0),
        ev(3, 9.0),
        ev(4, 2.0),
        ev(5, 1.0),
        ev(6, 2.0),
        ev(7, 9.0),
    ];
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
    for k in [1usize, 2, 4] {
        let got = drive(Arc::clone(&query), events.clone(), k);
        assert_eq!(got, expected, "k = {k}");
    }
}

#[test]
fn empty_stream_terminates() {
    let query = ab_query();
    let got = drive(query, vec![], 2);
    assert!(got.is_empty());
}

#[test]
fn stream_without_matches_terminates() {
    let query = ab_query();
    let events: Vec<Event> = (0..50).map(|i| ev(i, 9.0)).collect();
    let got = drive(query, events, 3);
    assert!(got.is_empty());
}

#[test]
fn outputs_identical_across_batch_sizes_and_shard_counts() {
    // The batched hand-off and store sharding are pure mechanics: for
    // any batch size (including the degenerate 1 = the original
    // event-at-a-time path) and any shard count, the emitted complex
    // events are identical.
    let query = ab_query();
    let events: Vec<Event> = (0..200)
        .map(|i| ev(i, [1.0, 9.0, 2.0, 1.0, 2.0, 9.0][i as usize % 6]))
        .collect();
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
    assert!(!expected.is_empty());
    for batch in [1usize, 7, 64, 1024] {
        for shards in [1usize, 8] {
            let config = SpectreConfig::with_batching(3, batch, shards);
            let got = drive_config(Arc::clone(&query), events.clone(), config);
            assert_eq!(got, expected, "batch = {batch}, shards = {shards}");
        }
    }
}

#[test]
fn single_instance_behaves_like_sequential() {
    let query = ab_query();
    let events: Vec<Event> = (0..100)
        .map(|i| ev(i, [1.0, 9.0, 2.0, 9.0][i as usize % 4]))
        .collect();
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
    let got = drive(query, events, 1);
    assert_eq!(got, expected);
}

/// Checks the run-ahead invariants after a cycle and returns how many
/// versions are queued: every queued version is final (consumption-free
/// query, closed and fully ingested window), no FIFO is over capacity,
/// and every version is in exactly one place.
fn check_run_ahead(splitter: &Splitter) -> usize {
    let ingested = splitter.shared.ingested.load(Ordering::Acquire);
    let mut seen: Vec<&Arc<VersionState>> = Vec::new();
    for (i, queued) in splitter.ahead_shadow.iter().enumerate() {
        assert!(queued.len() <= RUN_AHEAD_DEPTH);
        assert!(splitter.shared.slots[i].ahead_len() >= queued.len());
        for v in queued {
            assert!(v.query().consumption().is_none());
            assert!(v.window().end_pos().is_some_and(|end| end <= ingested));
            let head = splitter.sched_shadow.iter().flatten();
            assert!(!head.chain(seen.iter().copied()).any(|h| Arc::ptr_eq(h, v)));
            seen.push(v);
        }
    }
    seen.len()
}

#[test]
fn run_ahead_queues_only_final_versions_each_in_one_place() {
    let events: Vec<Event> = (0..240)
        .map(|i| ev(i, [1.0, 9.0, 2.0, 1.0, 2.0, 9.0][i as usize % 6]))
        .collect();
    let consuming = ab_query();
    let free = Arc::new(
        Query::builder("t-nc")
            .pattern_arc(Arc::clone(consuming.pattern()))
            .window(consuming.window().clone())
            .consumption(ConsumptionPolicy::None)
            .build()
            .unwrap(),
    );
    for query in [free, consuming] {
        let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
        let config = SpectreConfig {
            ingest_per_cycle: 16,
            ..SpectreConfig::with_instances(2)
        };
        let shared = SharedState::for_config(&config);
        let mut splitter = single(Arc::clone(&query), config, Arc::clone(&shared));
        for event in events.iter().cloned() {
            splitter.feed(event);
        }
        splitter.end_of_stream();
        let mut instances: Vec<_> = (0..2).map(|i| InstanceCore::new(i, 4)).collect();
        let mut peak_queued = 0;
        while !splitter.cycle() {
            peak_queued = peak_queued.max(check_run_ahead(&splitter));
            for inst in &mut instances {
                let _ = inst.step(&shared);
            }
        }
        assert_eq!(untag(splitter.take_outputs()), expected);
        let m = shared.metrics.snapshot();
        if query.consumption().is_none() {
            assert_eq!(
                m.versions_created, m.windows_retired,
                "one version per window"
            );
            assert!(peak_queued > 0 && m.versions_run_ahead > 0, "{m:?}");
        } else {
            assert_eq!((peak_queued, m.versions_run_ahead), (0, 0));
        }
    }
}

/// Runs `cycles` scheduling cycles of a splitter hosting, per
/// `(tenant weight, query count)` entry, a tenant with that many
/// `ab_query` deployments, and returns each cycle's slot holders. No
/// instance ever steps, so no version finishes: every query keeps
/// nominations, and who holds the slots is pure scheduler policy.
fn slot_holders(
    k: usize,
    tenants: &[(u32, usize)],
    cycles: usize,
) -> (Splitter, Vec<Vec<QueryId>>) {
    let config = SpectreConfig::with_instances(k);
    let shared = SharedState::for_config(&config);
    let mut splitter = Splitter::multi(config, shared);
    for (t, &(weight, members)) in (0u32..).zip(tenants) {
        let quota = TenantQuota::default().with_weight(weight);
        splitter.set_tenant_quota(TenantId(t), quota).unwrap();
        for _ in 0..members {
            splitter.deploy_query_for(TenantId(t), ab_query()).unwrap();
        }
    }
    for i in 0..40 {
        splitter.feed(ev(i, 1.0));
    }
    let holders = (0..cycles)
        .map(|_| {
            splitter.cycle();
            let slots = splitter.sched_shadow.iter().flatten();
            slots.map(|v| v.query_id()).collect()
        })
        .collect();
    (splitter, holders)
}

#[test]
fn every_query_of_one_tenant_gets_a_slot_within_n_over_k_cycles() {
    // In every run of ⌈n/k⌉ consecutive cycles, not only the first.
    for n in 1..=6usize {
        for k in 1..=4usize {
            let (splitter, holders) = slot_holders(k, &[(1, n)], 60);
            let wait = n.div_ceil(k);
            for (c, window) in holders.windows(wait).enumerate() {
                assert!(window.iter().all(|h| h.len() == k), "every slot is granted");
                for qid in splitter.query_ids() {
                    assert!(
                        window.iter().any(|h| h.contains(&qid)),
                        "n={n} k={k}: {qid} had no slot in cycles {c}..{}",
                        c + wait,
                    );
                }
            }
        }
    }
}

#[test]
fn tenant_weights_split_slots_across_a_tenants_queries() {
    // Tenant 0 (weight 3) hosts two queries, tenant 1 (weight 1) one.
    for k in [2usize, 4] {
        let (splitter, holders) = slot_holders(k, &[(3, 2), (1, 1)], 40);
        let mut per_query: HashMap<QueryId, usize> = HashMap::new();
        for qid in holders.iter().flatten() {
            *per_query.entry(*qid).or_default() += 1;
        }
        let per_tenant = |t: u32| -> usize {
            per_query
                .iter()
                .filter(|(q, _)| splitter.query_tenant(**q) == Some(TenantId(t)))
                .map(|(_, n)| n)
                .sum()
        };
        assert_eq!(per_tenant(0) + per_tenant(1), 40 * k);
        assert_eq!(per_tenant(0), 3 * per_tenant(1), "k={k}: {per_query:?}");
        let ids = splitter.query_ids();
        assert_eq!(per_query[&ids[0]], per_query[&ids[1]], "k={k}");
    }
}

#[test]
fn two_same_spec_queries_share_store_buffers() {
    // Two queries with equal window specs: every window is stored once
    // (one store buffer per group window), each query still gets its
    // own outputs with its own local window ids.
    let query_a = ab_query();
    let query_b = ab_query();
    let events: Vec<Event> = (0..60)
        .map(|i| ev(i, [1.0, 9.0, 2.0, 1.0, 2.0, 9.0][i as usize % 6]))
        .collect();
    let expected = spectre_baselines::run_sequential(&query_a, &events).complex_events;
    assert!(!expected.is_empty());

    let config = SpectreConfig::with_instances(2);
    let shared = SharedState::for_config(&config);
    let mut splitter = Splitter::multi(config.clone(), Arc::clone(&shared));
    let qa = splitter.deploy_query(Arc::clone(&query_a)).unwrap();
    let qb = splitter.deploy_query(Arc::clone(&query_b)).unwrap();
    assert_ne!(qa, qb);
    for event in &events {
        splitter.feed(event.clone());
    }
    splitter.end_of_stream();
    let mut instances: Vec<_> = (0..2)
        .map(|i| InstanceCore::new(i, config.consistency_check_freq))
        .collect();
    for _ in 0..1_000_000u64 {
        if splitter.cycle() {
            let outputs = splitter.take_outputs();
            let a: Vec<ComplexEvent> = outputs
                .iter()
                .filter(|(q, _)| *q == qa)
                .map(|(_, ce)| ce.clone())
                .collect();
            let b: Vec<ComplexEvent> = outputs
                .iter()
                .filter(|(q, _)| *q == qb)
                .map(|(_, ce)| ce.clone())
                .collect();
            assert_eq!(a, expected, "query A");
            assert_eq!(b, expected, "query B");
            // Dedup: the session opened exactly as many store buffers
            // as one query alone would have (windows stored once).
            let snap = shared.metrics.snapshot();
            assert_eq!(snap.store_windows_opened * 2, snap.windows_retired);
            return;
        }
        for inst in &mut instances {
            let _ = inst.step(&shared);
        }
    }
    panic!("did not converge");
}

#[test]
fn retire_unknown_query_is_none() {
    let mut splitter = Splitter::multi(SpectreConfig::with_instances(1), SharedState::new(1));
    assert!(splitter.retire_query(QueryId(3)).is_none());
    let qid = splitter.deploy_query(ab_query()).unwrap();
    assert!(splitter.query_ids().contains(&qid));
    assert!(splitter.retire_query(qid).is_some());
    assert!(!splitter.query_ids().contains(&qid));
    assert!(splitter.retire_query(qid).is_none(), "ids are not reused");
}

#[test]
fn warmup_window_size_estimate_derives_from_spec() {
    use spectre_query::window::{WindowClose, WindowOpen};

    // Count windows: the estimate is exact before the first close.
    let shared = SharedState::new(1);
    let splitter = single(
        ab_query(), // ws = 4
        SpectreConfig::with_instances(1),
        shared,
    );
    assert_eq!(splitter.queries[0].avg_window_size, 4.0);

    // Time windows: the duration in ticks stands in for the event
    // count — derived from the spec, not a hardcoded constant.
    let x = AttrKey::new(0);
    let time_query = Arc::new(
        Query::builder("t")
            .pattern(
                Pattern::builder()
                    .one("A", Expr::current(x).eq_(Expr::value(1.0)))
                    .build()
                    .unwrap(),
            )
            .window(WindowSpec::new(WindowOpen::EverySlide(5), WindowClose::Time(250)).unwrap())
            .build()
            .unwrap(),
    );
    let shared = SharedState::new(1);
    let mut splitter = single(time_query, SpectreConfig::with_instances(1), shared);
    for i in 0..4 {
        splitter.feed(ev(i, 9.0));
    }
    splitter.end_of_stream();
    assert_eq!(splitter.queries[0].avg_window_size, 250.0);
    // The first cycle ingests the whole (short) stream and the final
    // flush closes the only window at 4 events: the measured length
    // replaces the warm-up estimate.
    splitter.cycle();
    assert_eq!(splitter.queries[0].avg_window_size, 4.0);
}

#[test]
fn prediction_events_left_clamps_to_at_least_one() {
    assert_eq!(Splitter::events_left(200.0, 10), 190);
    // At or past the average the horizon floors at one expected
    // event, matching the model's own clamp.
    assert_eq!(Splitter::events_left(200.0, 200), 1);
    assert_eq!(Splitter::events_left(200.0, 5000), 1);
    // A degenerate (zero) average must not produce a zero horizon.
    assert_eq!(Splitter::events_left(0.0, 0), 1);
}

#[test]
fn dry_feed_pauses_ingestion_until_end_of_stream() {
    // A feed that runs dry mid-stream pauses ingestion — cycles keep
    // doing maintenance without terminating — and ingestion resumes
    // seamlessly when more events arrive; explicit end-of-stream is
    // what lets the run wind down.
    let query = ab_query();
    let events: Vec<Event> = (0..40)
        .map(|i| ev(i, [1.0, 9.0, 2.0, 1.0, 2.0, 9.0][i as usize % 6]))
        .collect();
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;

    let shared = SharedState::new(1);
    let mut splitter = single(
        Arc::clone(&query),
        SpectreConfig::with_instances(1),
        Arc::clone(&shared),
    );
    let mut inst = InstanceCore::new(0, 64);
    let (head, tail) = events.split_at(7);
    for event in head {
        splitter.feed(event.clone());
    }
    for _ in 0..20 {
        assert!(!splitter.cycle(), "dry feed must not terminate the run");
        let _ = inst.step(&shared);
    }
    assert_eq!(splitter.events_ingested(), 7);
    for event in tail {
        splitter.feed(event.clone());
    }
    splitter.end_of_stream();
    for _ in 0..1_000_000u64 {
        if splitter.cycle() {
            assert_eq!(splitter.events_ingested(), 40);
            assert_eq!(untag(splitter.take_outputs()), expected);
            return;
        }
        let _ = inst.step(&shared);
    }
    panic!("did not converge");
}

#[test]
fn instance_outcomes_cover_stall() {
    // A splitter that ingests slowly: instances must stall, not skip.
    let query = ab_query();
    let shared = SharedState::new(1);
    let config = SpectreConfig {
        instances: 1,
        ingest_per_cycle: 1,
        ..Default::default()
    };
    let events: Vec<Event> = vec![ev(0, 1.0), ev(1, 2.0), ev(2, 9.0), ev(3, 9.0)];
    let mut splitter = single(query, config, Arc::clone(&shared));
    for event in events {
        splitter.feed(event);
    }
    splitter.end_of_stream();
    let mut inst = InstanceCore::new(0, 64);
    splitter.cycle();
    // one event ingested; process it, then stall
    assert_eq!(inst.step(&shared), StepOutcome::Worked);
    assert_eq!(inst.step(&shared), StepOutcome::Stalled);
    for _ in 0..100 {
        if splitter.cycle() {
            break;
        }
        let _ = inst.step(&shared);
    }
    assert!(shared.is_done());
}
