//! Figure 10(f): maximum dependency-tree size (window versions held at the
//! same time) vs. number of operator instances.
//!
//! Paper setting: Q1 on NYSE, q = 80, ws = 8000; tree sizes grew from 41
//! versions at k = 1 to ≈6,730 at k = 32.

use std::sync::Arc;

use spectre_bench::{bench_events, bench_ks, bench_repeats, nyse_source, print_row, sim_report};
use spectre_core::SpectreConfig;
use spectre_events::Schema;
use spectre_query::queries::{self, Direction};

fn main() {
    let ws: u64 = std::env::var("SPECTRE_BENCH_WS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(800);
    let q = ((0.01 * ws as f64) as usize).max(1);
    let events_n = bench_events();
    let repeats = bench_repeats();

    println!("# Figure 10(f): max dependency-tree size vs #operator instances");
    println!("# Q1, q = {q}, ws = {ws}, events = {events_n}");
    println!("# wasted-speculation accounting includes the lazy tree:");
    println!("#   versions_mat  = clones actually taken (scheduled/completed branches)");
    println!("#   lazy_dropped  = completion branches discarded before any clone");
    println!("# predictor cost: refreshes = completion-vector rebuilds,");
    println!("#   refresh_ms = cumulative wall-clock spent in them");
    let widths = vec![4usize, 14, 16, 16, 16, 16, 12, 12];
    print_row(
        &[
            "k".into(),
            "max_tree".into(),
            "versions_made".into(),
            "versions_drop".into(),
            "versions_mat".into(),
            "lazy_dropped".into(),
            "refreshes".into(),
            "refresh_ms".into(),
        ],
        &widths,
    );
    for k in bench_ks() {
        let mut max_tree = 0u64;
        let mut created = 0u64;
        let mut dropped = 0u64;
        let mut materialized = 0u64;
        let mut lazy_dropped = 0u64;
        let mut refreshes = 0u64;
        let mut refresh_nanos = 0u64;
        for rep in 0..repeats {
            // Generator-fed engine session: the stream is never materialized.
            let mut schema = Schema::new();
            let source = nyse_source(events_n, 42 + rep as u64, &mut schema);
            let query = Arc::new(queries::q1(&mut schema, q, ws, Direction::Rising));
            let report = sim_report(&query, source, &SpectreConfig::with_instances(k));
            max_tree = max_tree.max(report.metrics.max_tree_versions);
            created = created.max(report.metrics.versions_created);
            dropped = dropped.max(report.metrics.versions_dropped);
            materialized = materialized.max(report.metrics.versions_materialized);
            lazy_dropped = lazy_dropped.max(report.metrics.lazy_versions_dropped);
            refreshes = refreshes.max(report.metrics.predictor_refreshes);
            refresh_nanos = refresh_nanos.max(report.metrics.predictor_refresh_nanos);
        }
        print_row(
            &[
                format!("{k}"),
                format!("{max_tree}"),
                format!("{created}"),
                format!("{dropped}"),
                format!("{materialized}"),
                format!("{lazy_dropped}"),
                format!("{refreshes}"),
                format!("{:.1}", refresh_nanos as f64 / 1e6),
            ],
            &widths,
        );
    }
}
