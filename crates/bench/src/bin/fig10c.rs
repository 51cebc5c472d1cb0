//! Figure 10(c): splitter overhead — maintenance + scheduling cycles per
//! second vs. number of operator instances.
//!
//! Paper setting: Q1 on NYSE, q = 80, ws = 8000; the splitter performed
//! ≈4 M cycles/s at k = 1 down to ≈450 k cycles/s at k = 32. We measure the
//! real wall-clock time spent inside `Splitter::cycle` during a simulated
//! run (the cycle does identical work in simulation and threaded modes).

use std::sync::Arc;

use spectre_bench::{
    bench_events, bench_ks, bench_repeats, nyse_source, print_row, scheduling_cycles_per_sec,
    sim_report,
};
use spectre_core::SpectreConfig;
use spectre_events::Schema;
use spectre_query::queries::{self, Direction};

fn main() {
    let ws: u64 = std::env::var("SPECTRE_BENCH_WS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(800);
    let q = ((0.01 * ws as f64) as usize).max(1); // paper: q = 80 at ws = 8000
    let events_n = bench_events();
    let repeats = bench_repeats();

    println!("# Figure 10(c): scheduling decisions per second vs #operator instances");
    println!("# Q1, q = {q}, ws = {ws}, events = {events_n}");
    let header = vec![
        "k".to_string(),
        "cycles/s".to_string(),
        "cycles".to_string(),
        "splitter_ms".to_string(),
    ];
    let widths = vec![4usize, 14, 12, 12];
    print_row(&header, &widths);

    for k in bench_ks() {
        let mut best = 0.0f64;
        let mut cycles = 0u64;
        let mut wall_ms = 0.0;
        for rep in 0..repeats {
            // Generator-fed engine session: the stream is never materialized.
            let mut schema = Schema::new();
            let source = nyse_source(events_n, 42 + rep as u64, &mut schema);
            let query = Arc::new(queries::q1(&mut schema, q, ws, Direction::Rising));
            let report = sim_report(&query, source, &SpectreConfig::with_instances(k));
            let rate = scheduling_cycles_per_sec(&report);
            if rate > best {
                best = rate;
                cycles = report.metrics.sched_cycles;
                wall_ms = report.splitter_wall.map_or(0.0, |w| w.as_secs_f64() * 1e3);
            }
        }
        print_row(
            &[
                format!("{k}"),
                format!("{best:.0}"),
                format!("{cycles}"),
                format!("{wall_ms:.1}"),
            ],
            &widths,
        );
    }
}
