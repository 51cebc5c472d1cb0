//! Figure 11: the Markov completion-probability model vs. fixed
//! probabilities (Q3 on RAND, 32 operator instances).
//!
//! Paper setting: ws = 1000, slide = 100; (a) ratio 0.002 — ground-truth
//! completion probability 100 %, where the fixed-100 % model wins and the
//! Markov model must match it; (b) ratio 0.1 — ground truth ≈32 %, where a
//! fixed ≈20 % model wins and the Markov model must come close. Wrong fixed
//! probabilities pay a large throughput penalty.

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_bench::{
    bench_events, bench_repeats, calibrated_throughput, print_row, rand_source, rand_stream,
    sim_report, Candlestick,
};
use spectre_core::{PredictorKind, SpectreConfig};
use spectre_events::Schema;
use spectre_query::queries;

fn main() {
    let ws: u64 = std::env::var("SPECTRE_BENCH_WS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let slide = ws / 10;
    let k: usize = std::env::var("SPECTRE_BENCH_K")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let events_n = bench_events();
    let repeats = bench_repeats();

    for (panel, ratio) in [("a", 0.002), ("b", 0.1)] {
        let pattern_size = ((ratio * ws as f64).round() as usize).max(2);
        let members = pattern_size - 1; // Q3 = leader + SET(members)
        println!(
            "# Figure 11({panel}): Q3 ratio {ratio} (pattern size {pattern_size}), \
             ws = {ws}, slide = {slide}, k = {k}, events = {events_n}"
        );
        // Ground truth for context — the sequential baseline needs the
        // full slice, so this is the one materialized stream; the model
        // sweep below feeds generator sources into engine sessions.
        {
            let (mut schema, events, symbols) = rand_stream(events_n, 42);
            let query = Arc::new(queries::q3(
                &mut schema,
                symbols[0],
                &symbols[1..=members],
                ws,
                slide,
            ));
            let gt = run_sequential(&query, &events).completion_probability();
            println!("# ground-truth completion probability: {:.1}%", gt * 100.0);
        }
        let widths = vec![10usize, 28, 12, 12];
        print_row(
            &[
                "model".into(),
                "throughput".into(),
                "refreshes".into(),
                "refresh_ms".into(),
            ],
            &widths,
        );
        let mut models: Vec<(String, PredictorKind)> = (0..=5)
            .map(|i| {
                let p = i as f64 * 0.2;
                (format!("{:.0}%", p * 100.0), PredictorKind::Fixed(p))
            })
            .collect();
        models.push(("Markov".into(), PredictorKind::default()));

        for (name, predictor) in models {
            let mut samples = Vec::with_capacity(repeats);
            let mut refreshes = 0u64;
            let mut refresh_nanos = 0u64;
            for rep in 0..repeats {
                let mut schema = Schema::new();
                let source = rand_source(events_n, 42 + rep as u64, &mut schema);
                let symbols = source.symbols().to_vec();
                let query = Arc::new(queries::q3(
                    &mut schema,
                    symbols[0],
                    &symbols[1..=members],
                    ws,
                    slide,
                ));
                let config = SpectreConfig {
                    instances: k,
                    predictor: predictor.clone(),
                    ..Default::default()
                };
                let report = sim_report(&query, source, &config);
                samples.push(calibrated_throughput(&report));
                refreshes = refreshes.max(report.metrics.predictor_refreshes);
                refresh_nanos = refresh_nanos.max(report.metrics.predictor_refresh_nanos);
            }
            print_row(
                &[
                    name,
                    Candlestick::of(&samples).to_string(),
                    format!("{refreshes}"),
                    format!("{:.1}", refresh_nanos as f64 / 1e6),
                ],
                &widths,
            );
        }
        println!();
    }
}
