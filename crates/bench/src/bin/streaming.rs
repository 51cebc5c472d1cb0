//! Bounded-memory streaming smoke: feed a paper-scale NYSE stream (default
//! 4 M events, `SPECTRE_BENCH_EVENTS` to override — the paper's full
//! workload is 24 M; a malformed value exits 2) straight from the generator
//! into a threaded [`SpectreEngine`] session. No `Vec<Event>` fixture ever
//! exists: the generator is consumed incrementally under the engine's
//! back-pressure, outputs are drained as they commit, and at the end the
//! run *asserts* that the peak dependency-tree size stayed within the
//! speculative-load bound — the property that makes stream length
//! irrelevant to memory.
//!
//! ```sh
//! SPECTRE_BENCH_EVENTS=4000000 \
//!     cargo run --release -p spectre-bench --bin streaming
//! ```

use std::sync::Arc;
use std::time::Instant;

use spectre_core::{EngineError, SpectreConfig, SpectreEngine};
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::Schema;
use spectre_query::queries::{self, Direction};

fn main() -> Result<(), EngineError> {
    let events_n: usize = match std::env::var("SPECTRE_BENCH_EVENTS") {
        Ok(v) => spectre_bench::parse_positive("SPECTRE_BENCH_EVENTS", &v).unwrap_or_else(|err| {
            eprintln!("streaming: {err}");
            std::process::exit(2);
        }),
        Err(_) => 4_000_000,
    };
    let mut schema = Schema::new();
    // Q1 *with* its consumption policy, in the high-ratio regime
    // (q = 110, ws = 200): speculation — and therefore
    // the dependency tree the back-pressure must bound — actually runs,
    // and most partial matches abandon, which is where the tree grows.
    let query = Arc::new(queries::q1(&mut schema, 110, 200, Direction::Rising));
    let config = SpectreConfig::with_batching(2, 64);
    let cap = config.max_tree_versions;

    println!("streaming {events_n} events through an engine session (k = 2, load cap {cap})");
    let started = Instant::now();
    let mut engine = SpectreEngine::builder(&query)
        .config(config)
        .threaded()
        .try_build()?;
    let mut source = NyseGenerator::new(
        NyseConfig {
            symbols: 300,
            leaders: 16,
            events: events_n,
            seed: 42,
            ..NyseConfig::default()
        },
        &mut schema,
    );
    let mut outputs = 0usize;
    let report_every = 1_000_000u64;
    let mut next_report = report_every;
    loop {
        let fed = engine.ingest(source.by_ref().take(65_536))?;
        outputs += engine.try_drain_outputs()?.len();
        if engine.events_ingested() >= next_report {
            let m = engine.metrics();
            println!(
                "  {:>10} ingested  {:>8} outputs drained  peak tree {:>6}  ({:.1} s)",
                engine.events_ingested(),
                outputs,
                m.max_tree_versions,
                started.elapsed().as_secs_f64()
            );
            next_report += report_every;
        }
        if fed < 65_536 {
            break;
        }
    }
    let report = engine.try_finish()?;
    outputs += report.complex_events.len();

    let peak = report.metrics.max_tree_versions;
    println!(
        "done: {} events, {} complex events, {:.0} events/s, peak tree {} versions",
        report.input_events,
        outputs,
        report.throughput(),
        peak
    );
    assert_eq!(report.input_events, events_n as u64, "every event ingested");
    // The load bound counts versions + pending windows and is checked at
    // ingestion time, so the materialized-version peak may overshoot the
    // cap transiently — but it must stay in the cap's neighbourhood, not
    // scale with the stream.
    assert!(
        peak <= 2 * cap as u64,
        "peak tree size {peak} escaped the speculative-load bound {cap}"
    );
    println!("peak tree within the speculative-load bound ✔ (bounded memory)");
    Ok(())
}
