//! Unit tests of the splitter's cycle phases.

use super::*;
use crate::config::TenantQuota;
use crate::instance::{InstanceCore, StepOutcome};
use spectre_events::{AttrKey, EventType, Schema};
use spectre_query::{ConsumptionPolicy, Expr, Pattern, Query, WindowSpec};
use std::collections::BTreeMap;

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
fn reorder_stats_decompose_over_deployed_queries() {
    let config = SpectreConfig::with_instances(1);
    let shared = SharedState::for_config(&config);
    let mut splitter = Splitter::multi(config, Arc::clone(&shared));
    let stats = crate::reorder::ReorderStats {
        reordered: 3,
        late_dropped: 2,
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
    assert_eq!(global.watermarks_advanced, 14);
    for (_, per) in splitter.per_query_metrics() {
        assert_eq!(per.events_reordered, 3);
        assert_eq!(per.late_events_dropped, 2);
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
fn outputs_identical_across_batch_sizes() {
    // The batched hand-off is pure mechanics: for any batch size
    // (including the degenerate 1 = the original event-at-a-time path),
    // the emitted complex events are identical.
    let query = ab_query();
    let events: Vec<Event> = (0..200)
        .map(|i| ev(i, [1.0, 9.0, 2.0, 1.0, 2.0, 9.0][i as usize % 6]))
        .collect();
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
    assert!(!expected.is_empty());
    for batch in [1usize, 7, 64, 1024] {
        let config = SpectreConfig::with_batching(3, batch);
        let got = drive_config(Arc::clone(&query), events.clone(), config);
        assert_eq!(got, expected, "batch = {batch}");
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

#[test]
fn lane_queries_skip_the_tree_and_retire_in_order() {
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
        let mut lane_grants = 0;
        // Every window's buffer, kept past retirement: only a release
        // empties it while a handle lives.
        let mut bufs = BTreeMap::new();
        while !splitter.cycle() {
            let qs = &splitter.queries[0];
            let windows = qs.tree.windows().chain(qs.cells.iter().map(|c| &c.window));
            bufs.extend(windows.map(|w| (w.id, Arc::clone(&w.buf))));
            if qs.lane.is_some() {
                // No tree; every unretired window waits in order, and
                // slots hold lane grants only.
                assert!(qs.tree.is_empty() && qs.nominations.len() <= 2);
                let ids: Vec<u64> = qs.cells.iter().map(|c| c.window.id).collect();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
                for grant in splitter.sched_shadow.iter().flatten() {
                    assert!(matches!(grant, Grant::Lane(_)));
                    lane_grants += 1;
                }
            }
            for inst in &mut instances {
                let _ = inst.step(&shared);
            }
        }
        assert_eq!(untag(splitter.take_outputs()), expected);
        let m = shared.metrics.snapshot();
        assert_eq!(bufs.len() as u64, m.windows_retired, "every window seen");
        for (id, buf) in &bufs {
            assert!(buf.is_empty() && !buf.release(), "window {id} released");
        }
        if query.consumption().is_none() {
            assert_eq!((m.versions_created, m.max_tree_versions), (0, 0));
            assert_eq!(m.lane_windows, m.windows_retired);
            assert!(lane_grants > 0 && m.windows_retired > 0, "{m:?}");
        } else {
            assert!(m.versions_created >= m.windows_retired, "{m:?}");
            assert_eq!(m.lane_windows, 0);
        }
    }
}

#[test]
fn a_spent_lane_window_finishes_early_and_commits_at_its_close() {
    // Windows of 8 events open on x = 1; the pattern A B C D completes on
    // a window's 4th event, after which the anchored window can match
    // nothing more.
    let x = AttrKey::new(0);
    let is = |v: f64| Expr::current(x).eq_(Expr::value(v));
    let query = Arc::new(
        Query::builder("abcd")
            .pattern(
                Pattern::builder()
                    .one("A", is(1.0))
                    .one("B", is(2.0))
                    .one("C", is(3.0))
                    .one("D", is(4.0))
                    .build()
                    .unwrap(),
            )
            .window(WindowSpec::on_match_count(None, is(1.0), 8).unwrap())
            .consumption(ConsumptionPolicy::None)
            .build()
            .unwrap(),
    );
    let config = SpectreConfig::with_batching(1, 64);
    let shared = SharedState::for_config(&config);
    let mut splitter = single(query, config, Arc::clone(&shared));
    for (seq, x) in [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (4, 9.0), (5, 9.0)] {
        splitter.feed(ev(seq, x));
    }
    assert!(!splitter.cycle());
    let cell = Arc::clone(splitter.queries[0].cells.front().unwrap());

    // One step reads all six events but feeds only the four the match
    // needs, then finishes the still open window and releases its buffer.
    let mut inst = InstanceCore::new(0, 64).with_batch(64);
    assert_eq!(inst.step(&shared), StepOutcome::Finished);
    assert!(cell.is_done() && cell.window.end_pos().is_none());
    let m = shared.metrics.snapshot();
    assert_eq!((m.events_processed, m.lane_windows), (4, 1));
    assert!(cell.window.buf.is_empty() && !cell.window.buf.release());

    // Done but open: retirement leaves the cell where it is.
    splitter.retire();
    assert_eq!(splitter.queries[0].cells.len(), 1);
    assert!(splitter.take_outputs().is_empty());
    assert_eq!(shared.metrics.snapshot().windows_retired, 0);

    // Event 8 closes the window; the flush that carries its last slice
    // leaves the released buffer empty, and the window commits once.
    for seq in 6..9 {
        splitter.feed(ev(seq, 9.0));
    }
    splitter.ingest();
    assert_eq!(cell.window.end_pos(), Some(8));
    assert!(cell.window.buf.is_empty());
    splitter.retire();
    let outputs = untag(splitter.take_outputs());
    assert_eq!(outputs.len(), 1);
    assert_eq!(outputs[0].constituents, vec![0, 1, 2, 3]);
    assert!(splitter.queries[0].cells.is_empty());
    splitter.retire();
    assert!(splitter.take_outputs().is_empty());
    let m = shared.metrics.snapshot();
    assert_eq!((m.windows_retired, m.outputs_emitted), (1, 1));
}

#[test]
fn a_spent_tree_version_finishes_early_and_commits_at_its_close() {
    // The lane test's query with consumption: its windows go through the
    // dependency tree, and the root version obeys the same rule.
    let x = AttrKey::new(0);
    let is = |v: f64| Expr::current(x).eq_(Expr::value(v));
    let query = Arc::new(
        Query::builder("abcd")
            .pattern(
                Pattern::builder()
                    .one("A", is(1.0))
                    .one("B", is(2.0))
                    .one("C", is(3.0))
                    .one("D", is(4.0))
                    .build()
                    .unwrap(),
            )
            .window(WindowSpec::on_match_count(None, is(1.0), 8).unwrap())
            .consumption(ConsumptionPolicy::All)
            .build()
            .unwrap(),
    );
    let config = SpectreConfig::with_batching(1, 64);
    let shared = SharedState::for_config(&config);
    let mut splitter = single(query, config, Arc::clone(&shared));
    for (seq, x) in [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (4, 9.0), (5, 9.0)] {
        splitter.feed(ev(seq, x));
    }
    assert!(!splitter.cycle());
    let root = Arc::clone(splitter.queries[0].tree.root_version().unwrap());

    // One step reads all six events but feeds only the four the match
    // needs, then finishes the root while its window is still open.
    let mut inst = InstanceCore::new(0, 64).with_batch(64);
    assert_eq!(inst.step(&shared), StepOutcome::Finished);
    assert!(root.is_finished() && root.window().end_pos().is_none());
    assert_eq!(shared.metrics.snapshot().events_processed, 4);

    // Finished, acked and unblocked, but open: the root stays.
    splitter.apply_ops();
    assert!(root.is_acked() && !splitter.queries[0].tree.root_blocked_by_cg());
    splitter.retire();
    assert!(splitter.take_outputs().is_empty());
    assert_eq!(shared.metrics.snapshot().windows_retired, 0);

    // Event 8 closes the window, and it commits once.
    for seq in 6..9 {
        splitter.feed(ev(seq, 9.0));
    }
    splitter.ingest();
    assert_eq!(root.window().end_pos(), Some(8));
    splitter.retire();
    let outputs = untag(splitter.take_outputs());
    assert_eq!(outputs.len(), 1);
    assert_eq!(outputs[0].constituents, vec![0, 1, 2, 3]);
    assert!(splitter.queries[0].tree.root_version().is_none());
    let m = shared.metrics.snapshot();
    assert_eq!((m.windows_retired, m.outputs_emitted), (1, 1));
    assert_eq!(m.events_processed, 4, "the closing events are not fed");
}

#[test]
fn released_buffers_take_no_later_slices() {
    // A filter-skipped window is released at its close while its final
    // slice still waits in `batch_closed`; a retired query's window is
    // released while its group keeps it open. The flushes after either
    // release must not refill the buffer.
    let config = SpectreConfig::with_instances(1);
    let shared = SharedState::for_config(&config);
    let mut splitter = single(ab_query(), config, Arc::clone(&shared));
    let newest_buf = |s: &Splitter| Arc::clone(&s.groups[0].open.last().unwrap().infos[0].1.buf);

    // Events 0 and 1 are irrelevant to the query: window 0 is deferred.
    for seq in 0..2 {
        splitter.feed(ev(seq, 9.0));
    }
    splitter.ingest();
    let skipped = newest_buf(&splitter);
    assert_eq!(skipped.len(), 2);
    // Event 4 closes window 0 in the batch that also holds its events 2
    // and 3: the skip releases the buffer before that batch is flushed.
    for seq in 2..5 {
        splitter.feed(ev(seq, 9.0));
    }
    splitter.ingest();
    assert_eq!(shared.metrics.snapshot().windows_skipped, 1);
    assert!(skipped.is_empty() && !skipped.release());

    // Event 5 is relevant and attaches windows 1 and 2; retiring the
    // query releases them while both are still open.
    splitter.feed(ev(5, 1.0));
    splitter.ingest();
    let open = newest_buf(&splitter);
    assert_eq!(open.len(), 2);
    splitter.retire_query(splitter.query_ids()[0]).unwrap();
    assert!(open.is_empty());
    for seq in 6..10 {
        splitter.feed(ev(seq, 9.0));
    }
    splitter.ingest();
    assert!(open.is_empty() && !open.release());
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
            slots.map(|g| g.query_id()).collect()
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
    // (one buffer per group window), each query still gets its
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
            // Dedup: the session opened exactly as many window buffers
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

/// Every open window's buffer reads exactly the stream positions from its
/// start up to the ingestion frontier, each once and in order.
fn assert_open_windows_read_to_frontier(splitter: &Splitter) {
    let frontier = splitter.events_ingested();
    for g in &splitter.groups {
        for ow in &g.open {
            let info = &ow.infos[0].1;
            let mut runs = Vec::new();
            let n = info.buf.read_run(0, usize::MAX, &mut runs);
            let seqs: Vec<u64> = runs
                .iter()
                .flat_map(|r| r.events())
                .map(Event::seq)
                .collect();
            assert_eq!(n, seqs.len());
            assert_eq!(
                seqs,
                (info.start_pos..frontier).collect::<Vec<_>>(),
                "window at {} after {frontier} ingested",
                info.start_pos
            );
        }
    }
}

#[test]
fn ingestion_cuts_resume_at_the_cursor_without_splitting_a_chunk() {
    // 8-event chunks read 3 events per cycle, a tree budget of 2 versions
    // and an uneven feed (some rounds feed nothing) cut cycles mid-chunk
    // by budget, back-pressure and a dry feed; end-of-stream cuts the last.
    let query = ab_query();
    let events: Vec<Event> = (0..200)
        .map(|i| ev(i, [1.0, 9.0, 2.0, 1.0, 2.0, 9.0, 9.0][i as usize % 7]))
        .collect();
    let expected = spectre_baselines::run_sequential(&query, &events).complex_events;
    let config = SpectreConfig {
        instances: 2,
        ingest_per_cycle: 3,
        batch_size: 8,
        max_tree_versions: 3,
        ..Default::default()
    };
    let shared = SharedState::for_config(&config);
    let mut splitter = single(Arc::clone(&query), config, Arc::clone(&shared));
    let mut instances: Vec<_> = (0..2)
        .map(|i| InstanceCore::new(i, 64).with_batch(8))
        .collect();
    let (mut fed, mut round) = (0usize, 0usize);
    let (mut budget_cuts, mut pressure_cuts, mut dry_cuts, mut mid_chunk) = (0, 0, 0, 0);
    loop {
        let n = [5, 0, 11, 2, 0, 7, 1, 9][round % 8].min(events.len() - fed);
        for event in &events[fed..fed + n] {
            splitter.feed(event.clone());
        }
        fed += n;
        if fed == events.len() {
            splitter.end_of_stream();
        }
        round += 1;
        let before = splitter.events_ingested();
        let done = splitter.cycle();
        let read = splitter.events_ingested() - before;
        assert_eq!(
            splitter.events_ingested() + splitter.feed_len() as u64,
            fed as u64,
            "every fed event is ingested or still in the feed"
        );
        assert_open_windows_read_to_frontier(&splitter);
        if done {
            break;
        }
        if splitter.cursor > 0 {
            mid_chunk += 1;
        }
        if splitter.feed_len() == 0 {
            dry_cuts += 1;
        } else if splitter.backpressured() {
            pressure_cuts += 1;
        } else if read == 3 {
            budget_cuts += 1;
        }
        for inst in &mut instances {
            let _ = inst.step(&shared);
        }
        assert!(round < 100_000, "did not converge");
    }
    assert_eq!(splitter.events_ingested(), 200);
    assert!(splitter.chunks.is_empty() && splitter.staging.is_empty());
    assert!(budget_cuts > 0 && pressure_cuts > 0 && dry_cuts > 0 && mid_chunk > 0);
    assert_eq!(untag(splitter.take_outputs()), expected);
}
