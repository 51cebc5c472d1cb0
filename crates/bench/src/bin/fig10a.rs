//! Figure 10(a): Q1 on NYSE — throughput vs. pattern-size/window-size ratio
//! for 1–32 operator instances.
//!
//! Paper setting: ws = 8000 events, q ∈ {40, 80, …, 2560} (ratios 0.005 to
//! 0.32), 24 M NYSE quotes, 10 repeats. Scaled default here: ws = 800,
//! q = ratio·ws, shorter stream (`SPECTRE_BENCH_EVENTS`), 3 repeats —
//! ratios (the x-axis) are identical.

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_bench::{
    bench_events, bench_ks, bench_repeats, nyse_source, nyse_stream, print_row, sim_throughput,
    Candlestick,
};
use spectre_core::SpectreConfig;
use spectre_events::Schema;
use spectre_query::queries::{self, Direction};

fn main() {
    let ws: u64 = std::env::var("SPECTRE_BENCH_WS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(800);
    let ratios = [0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32];
    let ks = bench_ks();
    let repeats = bench_repeats();
    let events_n = bench_events();

    println!("# Figure 10(a): Q1 on NYSE — throughput (events/s) vs ratio q/ws");
    println!("# ws = {ws}, events = {events_n}, repeats = {repeats}");
    let mut header = vec!["ratio".to_string(), "q".to_string(), "gt_prob".to_string()];
    header.extend(ks.iter().map(|k| format!("k={k}")));
    let widths: Vec<usize> = header.iter().map(|h| h.len().max(12)).collect();
    print_row(&header, &widths);

    // The sequential ground-truth baseline computes window ranges over the
    // full slice, so its stream is the one thing materialized — once, for
    // every ratio row. The throughput runs below are generator-fed engine
    // sessions; they never hold the stream.
    let (mut gt_schema, gt_events) = nyse_stream(events_n, 42);

    for ratio in ratios {
        let q = ((ratio * ws as f64).round() as usize).max(1);
        let mut cells = vec![format!("{ratio}"), format!("{q}")];
        // Ground truth completion probability from a sequential pass
        // (also reported by fig10d).
        {
            let query = Arc::new(queries::q1(&mut gt_schema, q, ws, Direction::Rising));
            let gt = run_sequential(&query, &gt_events).completion_probability();
            cells.push(format!("{:.2}", gt));
        }
        for &k in &ks {
            let mut samples = Vec::with_capacity(repeats);
            for rep in 0..repeats {
                let mut schema = Schema::new();
                let source = nyse_source(events_n, 42 + rep as u64, &mut schema);
                let query = Arc::new(queries::q1(&mut schema, q, ws, Direction::Rising));
                let config = SpectreConfig::with_instances(k);
                samples.push(sim_throughput(&query, source, &config));
            }
            cells.push(Candlestick::of(&samples).to_string());
        }
        let widths: Vec<usize> = header
            .iter()
            .zip(&cells)
            .map(|(h, c)| h.len().max(12).max(c.len()))
            .collect();
        print_row(&cells, &widths);
    }
}
