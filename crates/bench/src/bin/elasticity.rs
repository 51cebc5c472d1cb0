//! Elasticity ablation (paper §4.2.1, discussion): the paper proposes
//! adapting the number of operator instances to the *completion probability*
//! of partial matches rather than to event rates or CPU load. This binary
//! validates the proposal: for workloads sweeping the completion
//! probability, it compares the measured throughput of (a) a fixed large
//! instance pool, (b) the paper-inspired recommendation from the
//! speculative-efficiency model, and (c) the best fixed k found by sweeping.
//!
//! The recommendation should track the best fixed k closely — reaching the
//! plateau at uncertain completion probabilities with a fraction of the
//! instances — while wasting no throughput at the certain extremes.

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_bench::{bench_events, nyse_stream, print_row, sim_throughput};
use spectre_core::elastic::{recommend_for, speculative_efficiency, ElasticConfig};
use spectre_core::SpectreConfig;
use spectre_query::queries::{self, Direction};

fn main() {
    let ws: u64 = std::env::var("SPECTRE_BENCH_WS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(800);
    let events_n = bench_events();
    let ratios = [0.005, 0.02, 0.08, 0.16, 0.32];
    let ks = [1usize, 2, 4, 8, 16, 32];
    let config = ElasticConfig {
        max_instances: 32,
        ..Default::default()
    };

    println!("# Elasticity: completion-probability-driven instance recommendation");
    println!("# Q1 on NYSE, ws = {ws}, events = {events_n}");
    let header: Vec<String> = [
        "ratio",
        "gt_prob",
        "rec_k",
        "thr(rec_k)",
        "best_k",
        "thr(best_k)",
        "thr(k=32)",
        "efficiency(rec_k)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let widths: Vec<usize> = header.iter().map(|h| h.len().max(12)).collect();
    print_row(&header, &widths);

    for ratio in ratios {
        let q = ((ratio * ws as f64).round() as usize).max(1);
        let (mut schema, events) = nyse_stream(events_n, 42);
        let query = Arc::new(queries::q1(&mut schema, q, ws, Direction::Rising));
        let gt = run_sequential(&query, &events).completion_probability();

        let mut thr = std::collections::HashMap::new();
        for &k in &ks {
            thr.insert(
                k,
                sim_throughput(
                    &query,
                    events.iter().cloned(),
                    &SpectreConfig::with_instances(k),
                ),
            );
        }
        let rec = recommend_for(&config, gt);
        // Measure the recommendation (it may fall between swept ks).
        let thr_rec = sim_throughput(
            &query,
            events.iter().cloned(),
            &SpectreConfig::with_instances(rec),
        );
        let (&best_k, &thr_best) = thr
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty sweep");

        let cells = vec![
            format!("{ratio}"),
            format!("{gt:.2}"),
            format!("{rec}"),
            format!("{thr_rec:.0}"),
            format!("{best_k}"),
            format!("{thr_best:.0}"),
            format!("{:.0}", thr[&32]),
            format!("{:.2}", speculative_efficiency(gt, rec)),
        ];
        print_row(&cells, &widths);
    }
}
