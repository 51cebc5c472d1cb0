//! §4.2.3: comparison against a T-REX-style general-purpose engine.
//!
//! The paper implemented Q1 in T-REX and measured ≈1,000 events/s, versus
//! SPECTRE's ≈10,800 events/s at a single instance (and linear scaling
//! beyond). We compare the real single-thread throughput of the
//! automaton-interpreting baseline, the real single-thread throughput of
//! SPECTRE's UDF-style sequential engine, SPECTRE's threaded runtime on
//! this machine, and its simulated multi-core scaling.

use std::sync::Arc;
use std::time::Instant;

use spectre_baselines::{run_sequential, TrexEngine};
use spectre_bench::{bench_events, calibrated_throughput, nyse_stream, print_row, sim_report};
use spectre_core::{EngineError, SpectreConfig, SpectreEngine};
use spectre_query::queries::{self, Direction};

fn main() -> Result<(), EngineError> {
    let ws: u64 = std::env::var("SPECTRE_BENCH_WS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(800);
    let q = ((0.01 * ws as f64) as usize).max(1);
    let events_n = bench_events();
    let (mut schema, events) = nyse_stream(events_n, 42);
    let query = Arc::new(queries::q1(&mut schema, q, ws, Direction::Rising));

    println!("# §4.2.3: SPECTRE vs T-REX-style engine (Q1, q = {q}, ws = {ws}, {events_n} events)");
    let widths = vec![34usize, 16, 12];
    print_row(
        &["engine".into(), "events/s".into(), "complex".into()],
        &widths,
    );

    // T-REX-style automaton engine, one thread, measured wall clock.
    let trex = TrexEngine::new(Arc::clone(&query));
    let t = Instant::now();
    let trex_result = trex.run(&events);
    let trex_rate = events.len() as f64 / t.elapsed().as_secs_f64();
    print_row(
        &[
            "T-REX-style (1 thread, measured)".into(),
            format!("{trex_rate:.0}"),
            format!("{}", trex_result.complex_events.len()),
        ],
        &widths,
    );

    // SPECTRE's UDF-style matcher, sequential, measured wall clock.
    let t = Instant::now();
    let seq = run_sequential(&query, &events);
    let seq_rate = events.len() as f64 / t.elapsed().as_secs_f64();
    print_row(
        &[
            "SPECTRE UDF sequential (measured)".into(),
            format!("{seq_rate:.0}"),
            format!("{}", seq.complex_events.len()),
        ],
        &widths,
    );

    // SPECTRE threaded on this machine (engine session, generator-free
    // feed of the shared fixture).
    for k in [1usize, 2, 4] {
        let report = SpectreEngine::builder(&query)
            .config(SpectreConfig::with_instances(k))
            .threaded()
            .try_build()?
            .run(events.iter().cloned())?;
        print_row(
            &[
                format!("SPECTRE threaded k={k} (measured)"),
                format!("{:.0}", report.throughput()),
                format!("{}", report.complex_events.len()),
            ],
            &widths,
        );
    }

    // SPECTRE simulated multi-core scaling (calibrated).
    for k in [1usize, 8, 32] {
        let report = sim_report(
            &query,
            events.iter().cloned(),
            &SpectreConfig::with_instances(k),
        );
        print_row(
            &[
                format!("SPECTRE simulated k={k} (calibrated)"),
                format!("{:.0}", calibrated_throughput(&report)),
                format!("{}", report.complex_events.len()),
            ],
            &widths,
        );
    }
    println!("# all engines must report identical complex-event counts");
    Ok(())
}
