//! Criterion end-to-end benchmarks: the four engines over the same small
//! NYSE workload (Q1), plus the SPECTRE simulator at several instance
//! counts, plus the threaded runtime on paper-scale streams — the
//! batched/sharded data path against the unbatched single-shard
//! configuration, a consumption-heavy fixture driving the lazy
//! dependency tree, and a *streaming* mode:
//! the same data-path workload fed straight from the generator into a
//! [`SpectreEngine`] session with no `Vec` fixture at all. These are the
//! regression-guard companions to the figure binaries in `src/bin/`.
//!
//! Set `SPECTRE_BENCH_SUMMARY=<path>` to additionally write a small JSON
//! summary (events/s and peak tree size per threaded case) for CI bench
//! trend tracking; `scripts/bench_gate.py` diffs it against the checked-in
//! baseline in `crates/bench/baseline/`. Set `SPECTRE_BENCH_ONLY` to a
//! comma-separated list of section tags (`engines`, `threaded`,
//! `streaming`, `multiquery`, `consumption`, `reorder`, `scaling`,
//! `tenancy`, `server`) to run a subset —
//! the criterion shim has no CLI filter, and CI smoke steps use this to
//! gate one dimension without paying for the rest. The `server` tag runs
//! the spectre-server front-end end to end: two loopback clients
//! streaming strided halves of the stream through the framed wire
//! protocol into one hosted session.

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use spectre_baselines::{run_sequential, run_waitful, TrexEngine};
use spectre_core::{
    run_simulated, run_threaded, MetricsSnapshot, SpectreConfig, SpectreEngine, TenantId,
    TenantQuota,
};
use spectre_datasets::{bounded_shuffle, NyseConfig, NyseGenerator};
use spectre_events::{Event, Schema};
use spectre_query::queries::{self, Direction};
use spectre_query::{ConsumptionPolicy, Query};
use spectre_server::{FeedClient, IngestOrder, Server, ServerConfig};

/// `true` when the section should run: always without `SPECTRE_BENCH_ONLY`,
/// else only when the tag is in its comma-separated list.
fn enabled(tag: &str) -> bool {
    match std::env::var("SPECTRE_BENCH_ONLY") {
        Ok(only) => only.split(',').any(|t| t.trim() == tag),
        Err(_) => true,
    }
}

fn fixture() -> (Arc<Query>, Vec<Event>) {
    let mut schema = Schema::new();
    let config = NyseConfig {
        symbols: 100,
        leaders: 8,
        events: 5_000,
        seed: 42,
        ..NyseConfig::default()
    };
    let events: Vec<_> = NyseGenerator::new(config, &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 4, 200, Direction::Rising));
    (query, events)
}

fn bench_engines(c: &mut Criterion) {
    if !enabled("engines") {
        return;
    }
    let (query, events) = fixture();
    let mut group = c.benchmark_group("q1_5k_events");
    group.sample_size(10);

    group.bench_function("sequential", |b| {
        b.iter(|| black_box(run_sequential(&query, &events).complex_events.len()))
    });
    let trex = TrexEngine::new(Arc::clone(&query));
    group.bench_function("trex", |b| {
        b.iter(|| black_box(trex.run(&events).complex_events.len()))
    });
    group.bench_function("waitful_k4", |b| {
        b.iter(|| black_box(run_waitful(&query, &events, 4).makespan))
    });
    for k in [1usize, 4, 16] {
        group.bench_function(format!("spectre_sim_k{k}"), |b| {
            b.iter(|| {
                black_box(
                    run_simulated(&query, events.clone(), &SpectreConfig::with_instances(k)).rounds,
                )
            })
        });
    }
    group.finish();
}

/// NYSE generator configuration of the paper-scale threaded fixtures.
fn paper_nyse_config(events: usize) -> NyseConfig {
    NyseConfig {
        symbols: 300,
        leaders: 16,
        events,
        seed: 42,
        ..NyseConfig::default()
    }
}

/// The data-path-bound query: Q1's pattern and window without consumption,
/// so no speculation machinery runs and the splitter→store→instance
/// hand-off itself is what the numbers measure.
fn datapath_query(schema: &mut Schema) -> Arc<Query> {
    let base = queries::q1(schema, 3, 200, Direction::Rising);
    Arc::new(
        Query::builder("Q1-NC")
            .pattern_arc(Arc::clone(base.pattern()))
            .window(base.window().clone())
            .selection(base.selection())
            .consumption(ConsumptionPolicy::None)
            .build()
            .expect("valid fixture query"),
    )
}

/// Paper-scale (default 1 M events, `SPECTRE_BENCH_EVENTS` to override)
/// data-path-bound fixture, materialized as a `Vec` for the legacy-path
/// cases.
fn threaded_fixture() -> (Arc<Query>, Vec<Event>) {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(
        paper_nyse_config(spectre_bench::threaded_bench_events()),
        &mut schema,
    )
    .collect();
    let query = datapath_query(&mut schema);
    (query, events)
}

fn bench_threaded(c: &mut Criterion) {
    if !enabled("threaded") {
        return;
    }
    let (query, events) = threaded_fixture();
    let mut group = c.benchmark_group(format!("threaded_e2e_{}k_events", events.len() / 1000));
    group.sample_size(3);
    // The original event-at-a-time, single-lock hand-off …
    group.bench_function("unbatched_1shard_k2", |b| {
        b.iter(|| {
            let config = SpectreConfig::with_batching(2, 1, 1);
            black_box(
                run_threaded(&query, events.clone(), &config)
                    .complex_events
                    .len(),
            )
        })
    });
    // … versus the default batched hand-off + sharded window store.
    group.bench_function("batched64_8shards_k2", |b| {
        b.iter(|| {
            let config = SpectreConfig::with_batching(2, 64, 8);
            black_box(
                run_threaded(&query, events.clone(), &config)
                    .complex_events
                    .len(),
            )
        })
    });
    group.finish();
}

/// Consumption-heavy fixture: Q1 *with* its consumption policy at a high
/// pattern/window ratio (q = 110, ws = 200 → most partial matches abandon,
/// the paper's high-ratio regime, while enough complete to keep the
/// output non-trivial). Here the speculative machinery — group creation,
/// completion-branch copies, resolutions — dominates the data path, which
/// is exactly what the lazy dependency tree targets.
fn consumption_fixture() -> (Arc<Query>, Vec<Event>) {
    let mut schema = Schema::new();
    let config = NyseConfig {
        symbols: 300,
        leaders: 16,
        events: spectre_bench::threaded_bench_events(),
        seed: 42,
        ..NyseConfig::default()
    };
    let events: Vec<_> = NyseGenerator::new(config, &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 110, 200, Direction::Rising));
    (query, events)
}

/// Last metrics + output count per threaded case, stashed by
/// [`bench_consumption`] / [`bench_streaming`] so [`emit_summary`] can
/// report speculation metrics without re-running the (expensive) cases.
static CASE_METRICS: std::sync::Mutex<Vec<(&'static str, MetricsSnapshot, usize)>> =
    std::sync::Mutex::new(Vec::new());

fn stash_case(name: &'static str, metrics: MetricsSnapshot, outputs: usize) {
    let mut stash = CASE_METRICS.lock().expect("metrics stash");
    stash.retain(|(n, _, _)| *n != name);
    stash.push((name, metrics, outputs));
}

fn bench_consumption(c: &mut Criterion) {
    if !enabled("consumption") {
        return;
    }
    let (query, events) = consumption_fixture();
    let mut group = c.benchmark_group(format!(
        "threaded_consumption_{}k_events",
        events.len() / 1000
    ));
    group.sample_size(2);
    let config = SpectreConfig::with_batching(2, 64, 8);
    group.bench_function("consumption_lazy_k2", |b| {
        b.iter(|| {
            let report = run_threaded(&query, events.clone(), &config);
            let out = report.complex_events.len();
            stash_case("consumption_lazy_k2", report.metrics, out);
            black_box(out)
        })
    });
    group.finish();
}

/// Streaming mode: the data-path workload fed straight from the NYSE
/// generator into a threaded [`SpectreEngine`] session — no `Vec` fixture
/// exists at any point; outputs are drained incrementally every generator
/// chunk. The measured time therefore *includes* event generation, which
/// is exactly the streaming deployment's cost profile.
fn bench_streaming(c: &mut Criterion) {
    if !enabled("streaming") {
        return;
    }
    let events_n = spectre_bench::threaded_bench_events();
    let mut schema = Schema::new();
    let query = datapath_query(&mut schema);
    let mut group = c.benchmark_group(format!("threaded_streaming_{}k_events", events_n / 1000));
    group.sample_size(2);
    group.bench_function("streaming_k2", |b| {
        b.iter(|| {
            let config = SpectreConfig::with_batching(2, 64, 8);
            let mut engine = SpectreEngine::builder(&query)
                .config(config)
                .threaded()
                .build();
            let mut source = NyseGenerator::new(paper_nyse_config(events_n), &mut schema);
            let mut outputs = 0usize;
            loop {
                let fed = engine.ingest(source.by_ref().take(65_536));
                outputs += engine.drain_outputs().len();
                if fed < 65_536 {
                    break;
                }
            }
            let report = engine.finish();
            outputs += report.complex_events.len();
            stash_case("streaming_k2", report.metrics, outputs);
            black_box(outputs)
        })
    });
    group.finish();
}

/// Multi-query sessions: the data-path workload with N same-spec queries
/// hosted in one threaded session. The shared spec group stores every
/// window's events once regardless of N, so the incremental cost per extra
/// query is pattern matching and retirement bookkeeping, not another copy
/// of the data path; the gate watches exactly that.
fn bench_multiquery(c: &mut Criterion) {
    if !enabled("multiquery") {
        return;
    }
    let (query, events) = threaded_fixture();
    let mut group = c.benchmark_group(format!(
        "threaded_multiquery_{}k_events",
        events.len() / 1000
    ));
    group.sample_size(2);
    for (n, name) in [(2usize, "multiquery_2q_k2"), (4, "multiquery_4q_k2")] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut builder =
                    SpectreEngine::multi_builder().config(SpectreConfig::with_batching(2, 64, 8));
                for _ in 0..n {
                    builder.add_query(&query);
                }
                let report = builder.threaded().build().run(events.clone());
                let out = report.complex_events.len();
                stash_case(name, report.metrics, out);
                black_box(out)
            })
        });
    }
    group.finish();
}

/// Disorder sweep: the data-path workload arriving out of order, repaired
/// by the reorder stage at bounded lateness `d` symbol-slots (the paper
/// fixture interleaves 300 symbols at 200 ticks per slot, so `d = 64`
/// means an event may trail up to 64 later arrivals). `d = 0` runs the
/// stage on the in-order stream — its pure pass-through overhead against
/// the `streaming_k2` case; the non-zero points price the actual buffering
/// and watermark work. Case names keep the `1m` tag of the paper-scale
/// default even when `SPECTRE_BENCH_EVENTS` shrinks the stream — the
/// group title carries the actual size.
fn bench_reorder(c: &mut Criterion) {
    if !enabled("reorder") {
        return;
    }
    let (query, events) = threaded_fixture();
    // One symbol-slot of the paper fixture in timestamp ticks.
    let slot = 60_000 / 300;
    let mut group = c.benchmark_group(format!("threaded_reorder_{}k_events", events.len() / 1000));
    group.sample_size(2);
    for (d, name) in [
        (0u64, "reorder_1m_d0"),
        (64, "reorder_1m_d64"),
        (1024, "reorder_1m_d1024"),
    ] {
        let delay = d * slot;
        let shuffled = bounded_shuffle(&events, delay, 42);
        group.bench_function(name, |b| {
            b.iter(|| {
                let config = SpectreConfig::with_batching(2, 64, 8).with_reorder(delay);
                let report = SpectreEngine::builder(&query)
                    .config(config)
                    .threaded()
                    .build()
                    .run(shuffled.clone());
                let out = report.complex_events.len();
                stash_case(name, report.metrics, out);
                black_box(out)
            })
        });
    }
    group.finish();
}

/// Multi-core scaling sweep: the consumption-heavy fixture (the paper's
/// high-ratio regime, where the speculation machinery dominates) at
/// `instances ∈ {1, 2, 4, 8}` under the default batched/sharded data path.
/// This is the throughput-vs-instances curve of the paper's Fig. 10 run
/// on real threads: `events_per_sec` per case lands in the bench summary,
/// so `scripts/bench_gate.py` tracks the whole curve against
/// `baseline/scaling_100k.json`. Every k must deliver *bit-identical*
/// output — the k = 1 run of each iteration is the reference the larger
/// instance counts are asserted against, so a scaling number from a run
/// that diverged can never land in the summary. Wall-clock ratios between
/// the k points are only meaningful on a host with ≥ 8 cores; on fewer
/// cores the workers time-slice and the curve flattens (the parking idle
/// tier keeps oversubscribed runs from burning the splitter's cycles).
fn bench_scaling(c: &mut Criterion) {
    if !enabled("scaling") {
        return;
    }
    let (query, events) = consumption_fixture();
    let mut group = c.benchmark_group(format!("threaded_scaling_{}k_events", events.len() / 1000));
    group.sample_size(2);
    let mut reference: Option<Vec<spectre_query::ComplexEvent>> = None;
    for (k, name) in [
        (1usize, "scaling_k1"),
        (2, "scaling_k2"),
        (4, "scaling_k4"),
        (8, "scaling_k8"),
    ] {
        let reference = &mut reference;
        group.bench_function(name, |b| {
            b.iter(|| {
                let config = SpectreConfig::with_batching(k, 64, 8);
                let report = run_threaded(&query, events.clone(), &config);
                let out = report.complex_events.len();
                match reference.as_ref() {
                    Some(expected) => assert_eq!(
                        &report.complex_events, expected,
                        "scaling sweep k={k} diverged from the k=1 output"
                    ),
                    None => *reference = Some(report.complex_events),
                }
                stash_case(name, report.metrics, out);
                black_box(out)
            })
        });
    }
    group.finish();
}

/// Extra raw JSON fields per summary case, merged by [`emit_summary`] —
/// used by [`bench_tenancy`] to record the isolation ratio and per-tenant
/// throughput next to the shim's timing fields.
static CASE_EXTRAS: std::sync::Mutex<Vec<(&'static str, String)>> =
    std::sync::Mutex::new(Vec::new());

fn stash_extra(name: &'static str, fields: String) {
    let mut stash = CASE_EXTRAS.lock().expect("extras stash");
    stash.retain(|(n, _)| *n != name);
    stash.push((name, fields));
}

/// Tenant isolation: a light (data-path) tenant sharing one session with a
/// speculation-heavy tenant (the consumption fixture's q = 110, ws = 200
/// query), against the light tenant's solo run. Each shared case records
/// an `isolation_ratio` summary field — the fraction of its solo
/// throughput the light tenant retains — plus both tenants' processed
/// event counts from the per-tenant rollups; the capped case *asserts*
/// the ratio stays above [`ISOLATION_FLOOR`], and the light tenant's
/// outputs are asserted bit-identical to its solo run in every shared
/// case (isolation never buys semantic drift).
///
/// What the floor can honestly be: a shared session is one feed and one
/// splitter thread, and all queries see the same stream prefix
/// (`Splitter::backpressured` — one slow query throttling the shared feed
/// is *deliberate*). Session makespan therefore approaches the serial sum
/// of the tenants' solo runs, so the ratio's architectural ceiling is
/// `light_solo / (light_solo + heavy_solo)` — ≈ 0.2 for this pairing,
/// whatever the schedule does. What tenancy adds within that envelope is
/// slot fair-share (the light tenant is never starved of its weighted
/// share of instances), a budget on schedule-driven speculative
/// materializations, and exact per-tenant accounting; the floor guards
/// against that bookkeeping ever collapsing the light tenant's service
/// (a regression below it means tenancy overhead, not workload shape).
const ISOLATION_FLOOR: f64 = 0.10;

fn bench_tenancy(c: &mut Criterion) {
    if !enabled("tenancy") {
        return;
    }
    let events_n = spectre_bench::threaded_bench_events();
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(paper_nyse_config(events_n), &mut schema).collect();
    let light = datapath_query(&mut schema);
    let heavy = Arc::new(queries::q1(&mut schema, 110, 200, Direction::Rising));
    let mut group = c.benchmark_group(format!("threaded_tenancy_{}k_events", events.len() / 1000));
    group.sample_size(2);
    let light_tenant = TenantId(1);
    let heavy_tenant = TenantId(2);

    let mut light_solo_secs = f64::INFINITY;
    let mut light_expected: Vec<spectre_query::ComplexEvent> = Vec::new();
    {
        let (solo, expected) = (&mut light_solo_secs, &mut light_expected);
        group.bench_function("tenancy_light_solo_k4", |b| {
            b.iter(|| {
                let config = SpectreConfig::with_batching(4, 64, 8);
                let start = Instant::now();
                let report = run_threaded(&light, events.clone(), &config);
                *solo = solo.min(start.elapsed().as_secs_f64());
                let out = report.complex_events.len();
                stash_case("tenancy_light_solo_k4", report.metrics, out);
                *expected = report.complex_events;
                black_box(out)
            })
        });
    }

    let cases: [(&'static str, Option<TenantQuota>); 2] = [
        ("tenancy_pair_uncapped_k4", None),
        (
            "tenancy_pair_capped_k4",
            Some(TenantQuota::default().with_max_versions(64)),
        ),
    ];
    for (name, quota) in cases {
        let mut shared_secs = f64::INFINITY;
        {
            let (shared, expected) = (&mut shared_secs, &light_expected);
            group.bench_function(name, |b| {
                b.iter(|| {
                    let mut builder = SpectreEngine::multi_builder()
                        .config(SpectreConfig::with_batching(4, 64, 8));
                    let ql = builder.add_query_for(light_tenant, &light);
                    builder.add_query_for(heavy_tenant, &heavy);
                    if let Some(q) = quota.clone() {
                        builder.set_quota(heavy_tenant, q);
                    }
                    let start = Instant::now();
                    let report = builder.threaded().build().run(events.clone());
                    let secs = start.elapsed().as_secs_f64();
                    *shared = shared.min(secs);
                    assert_eq!(
                        &report.queries[&ql].complex_events, expected,
                        "{name}: the light tenant's outputs diverged from its solo run"
                    );
                    let light_events = report.tenants[&light_tenant].events_processed;
                    let heavy_events = report.tenants[&heavy_tenant].events_processed;
                    stash_extra(
                        name,
                        format!(
                            "\"light_events_processed\": {light_events}, \
                             \"heavy_events_processed\": {heavy_events}"
                        ),
                    );
                    let out = report.complex_events.len();
                    stash_case(name, report.metrics, out);
                    black_box(out)
                })
            });
        }
        let ratio = light_solo_secs / shared_secs;
        println!("{name:<40} isolation ratio {ratio:.3} (light solo {light_solo_secs:.3}s, shared {shared_secs:.3}s)");
        let mut stash = CASE_EXTRAS.lock().expect("extras stash");
        if let Some((_, fields)) = stash.iter_mut().find(|(n, _)| *n == name) {
            *fields = format!("{fields}, \"isolation_ratio\": {ratio:.3}");
        }
        drop(stash);
        if name == "tenancy_pair_capped_k4" {
            assert!(
                ratio >= ISOLATION_FLOOR,
                "capping the heavy tenant must keep the light tenant at \
                 >= {ISOLATION_FLOOR} of its solo throughput, got {ratio:.3}"
            );
        }
    }
    group.finish();
}

/// The server front-end over the paper-scale stream: two loopback
/// clients stream strided halves through the framed wire protocol —
/// socket reads, decode, the middleware chain, credit round-trips, the
/// bounded feed channel, the sequence merge — into one threaded session,
/// then the session drains to its final report. Compares directly against
/// `batched64_8shards_k2` in the `threaded` section: the delta is the
/// whole network front-end.
fn bench_server(c: &mut Criterion) {
    if !enabled("server") {
        return;
    }
    let mut schema = Schema::new();
    let events: Vec<Event> = NyseGenerator::new(
        paper_nyse_config(spectre_bench::threaded_bench_events()),
        &mut schema,
    )
    .collect();
    let query = datapath_query(&mut schema);
    let mut group = c.benchmark_group(format!("threaded_server_{}k_events", events.len() / 1000));
    group.sample_size(2);
    group.bench_function("server_2clients_k2", |b| {
        b.iter(|| {
            let cfg = ServerConfig {
                engine: SpectreConfig::with_batching(2, 64, 8),
                threaded: true,
                order: IngestOrder::Seq,
                ..ServerConfig::default()
            };
            let handle = Server::start(
                cfg,
                schema.clone(),
                vec![(TenantId::DEFAULT, Arc::clone(&query))],
            )
            .expect("server starts");
            let addr = handle.ingest_addr();
            let clients: Vec<_> = (0..2u64)
                .map(|i| {
                    let events = events.clone();
                    std::thread::spawn(move || {
                        let mut client = FeedClient::connect(addr, 0).expect("connect");
                        for event in events.iter().filter(|e| e.seq() % 2 == i) {
                            client.send_event(event).expect("send");
                        }
                        client.finish().expect("finish");
                    })
                })
                .collect();
            for client in clients {
                client.join().expect("client thread");
            }
            handle.drain();
            let outcome = handle.join().expect("drain");
            assert_eq!(outcome.report.input_events, events.len() as u64);
            let outputs: usize = outcome.outputs.values().map(Vec::len).sum();
            stash_case("server_2clients_k2", outcome.report.metrics, outputs);
            black_box(outputs)
        })
    });
    group.finish();
}

/// Writes the machine-readable bench summary for CI trend tracking when
/// `SPECTRE_BENCH_SUMMARY` names a path: per threaded case, events/s (from
/// the criterion shim's retained minimum) plus — for the consumption cases
/// — peak tree size and the lazy-speculation counters from the reports
/// [`bench_consumption`] stashed.
fn emit_summary(_c: &mut Criterion) {
    let Ok(path) = std::env::var("SPECTRE_BENCH_SUMMARY") else {
        return;
    };
    let events_n = spectre_bench::threaded_bench_events();
    let mut cases: Vec<(String, String)> = Vec::new();
    for summary in criterion::take_summaries() {
        let Some((group, name)) = summary.id.split_once('/') else {
            continue;
        };
        if !group.starts_with("threaded_") {
            continue;
        }
        let eps = events_n as f64 / summary.min.as_secs_f64();
        cases.push((
            name.to_string(),
            format!(
                "\"events_per_sec\": {eps:.0}, \"samples\": {}",
                summary.samples
            ),
        ));
    }
    // Speculation accounting from the runs the threaded cases already did.
    let reports = std::mem::take(&mut *CASE_METRICS.lock().expect("metrics stash"));
    for (name, m, outputs) in &reports {
        let extra = format!(
            "\"peak_tree\": {}, \"versions_materialized\": {}, \
             \"lazy_versions_dropped\": {}, \"predictor_refreshes\": {}, \
             \"predictor_refresh_ms\": {:.3}, \"outputs\": {}",
            m.max_tree_versions,
            m.versions_materialized,
            m.lazy_versions_dropped,
            m.predictor_refreshes,
            m.predictor_refresh_nanos as f64 / 1e6,
            outputs
        );
        match cases.iter_mut().find(|(n, _)| n == name) {
            Some((_, fields)) => *fields = format!("{fields}, {extra}"),
            None => cases.push((name.to_string(), extra)),
        }
    }
    // Bench-specific extra fields (isolation ratio, per-tenant rates).
    let extras = std::mem::take(&mut *CASE_EXTRAS.lock().expect("extras stash"));
    for (name, extra) in extras {
        match cases.iter_mut().find(|(n, _)| n == name) {
            Some((_, fields)) => *fields = format!("{fields}, {extra}"),
            None => cases.push((name.to_string(), extra)),
        }
    }
    let body: Vec<String> = cases
        .iter()
        .map(|(name, fields)| format!("    \"{name}\": {{ {fields} }}"))
        .collect();
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"events\": {events_n},\n  \"cases\": {{\n{}\n  }}\n}}\n",
        body.join(",\n")
    );
    // Cargo runs benches with the package directory as cwd; make parent
    // directories so relative paths from the workspace root work too.
    if let Some(parent) = std::path::Path::new(&path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create summary directory");
        }
    }
    std::fs::write(&path, json).expect("write bench summary");
    println!("bench summary written to {path}");
}

criterion_group!(
    end_to_end,
    bench_engines,
    bench_threaded,
    bench_streaming,
    bench_multiquery,
    bench_consumption,
    bench_reorder,
    bench_scaling,
    bench_tenancy,
    bench_server,
    emit_summary
);
criterion_main!(end_to_end);
