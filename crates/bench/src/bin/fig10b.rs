//! Figure 10(b): Q2 on NYSE — throughput vs. average-pattern-size/window-size
//! ratio for 1–32 operator instances.
//!
//! Paper setting: ws = 8000 events, slide = 1000; lower/upper price limits
//! arranged so average completed pattern sizes span ≈180–2223 events, plus a
//! configuration where no pattern can complete ("0 cplx"). We reproduce the
//! method: price-quantile bands of decreasing width sweep the average
//! pattern size; an inverted band yields the 0-cplx case. The measured
//! average pattern size and ground-truth completion probability are printed
//! per row (the latter is Figure 10(e)).

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_bench::{
    bench_events, bench_ks, bench_repeats, nyse_source, nyse_stream, print_row, sim_throughput,
    Candlestick,
};
use spectre_core::SpectreConfig;
use spectre_events::Schema;
use spectre_query::queries::{self, StockVocab};

/// Price quantile of the stream (for band construction).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let ws: u64 = std::env::var("SPECTRE_BENCH_WS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(800);
    let slide = (ws / 8).max(1);
    let ks = bench_ks();
    let repeats = bench_repeats();
    let events_n = bench_events();

    // Collect the close-price distribution once to build quantile bands.
    // The pass streams straight off the generator — no event `Vec` — and
    // stride-samples the closes so the sample buffer stays bounded
    // (≤ ~1 M f64s) even at the paper's 24 M-quote scale; band edges are
    // quantiles, which stride sampling of a stationary price process
    // preserves.
    let stride = (events_n / 1_000_000).max(1);
    let mut schema0 = Schema::new();
    let source0 = nyse_source(events_n, 42, &mut schema0);
    let vocab = StockVocab::install(&mut schema0);
    let mut closes: Vec<f64> = source0
        .filter_map(|e| e.f64(vocab.close_price))
        .step_by(stride)
        .collect();
    closes.sort_by(f64::total_cmp);
    // Narrow bands → frequent limit crossings → small patterns; wide bands →
    // large patterns; inverted band → no completions.
    let bands: Vec<(String, f64, f64)> = vec![
        (
            "q45-q55".into(),
            quantile(&closes, 0.45),
            quantile(&closes, 0.55),
        ),
        (
            "q40-q60".into(),
            quantile(&closes, 0.40),
            quantile(&closes, 0.60),
        ),
        (
            "q35-q65".into(),
            quantile(&closes, 0.35),
            quantile(&closes, 0.65),
        ),
        (
            "q30-q70".into(),
            quantile(&closes, 0.30),
            quantile(&closes, 0.70),
        ),
        (
            "q25-q75".into(),
            quantile(&closes, 0.25),
            quantile(&closes, 0.75),
        ),
        (
            "q20-q80".into(),
            quantile(&closes, 0.20),
            quantile(&closes, 0.80),
        ),
        (
            "q15-q85".into(),
            quantile(&closes, 0.15),
            quantile(&closes, 0.85),
        ),
        (
            "q10-q90".into(),
            quantile(&closes, 0.10),
            quantile(&closes, 0.90),
        ),
        (
            "0cplx".into(),
            // lower below every price: the A step (close < lower) never fires.
            quantile(&closes, 0.0) - 1.0,
            quantile(&closes, 1.0) + 1.0,
        ),
    ];

    println!("# Figure 10(b): Q2 on NYSE — throughput (events/s) vs avg pattern size / ws");
    println!("# ws = {ws}, slide = {slide}, events = {events_n}, repeats = {repeats}");
    let mut header = vec![
        "band".to_string(),
        "avg_len".to_string(),
        "ratio".to_string(),
        "gt_prob".to_string(),
    ];
    header.extend(ks.iter().map(|k| format!("k={k}")));

    print_row(
        &header,
        &header.iter().map(|h| h.len().max(12)).collect::<Vec<_>>(),
    );

    // The sequential ground-truth baseline needs the full slice (window
    // ranges are computed over it) — materialized once, reused by every
    // band row. The throughput runs are generator-fed engine sessions.
    let (mut gt_schema, gt_events) = nyse_stream(events_n, 42);

    for (name, lower, upper) in bands {
        // Measure average completed pattern size + ground truth sequentially.
        let (avg_len, gt_prob) = {
            let query = Arc::new(queries::q2(&mut gt_schema, lower, upper, ws, slide));
            let r = run_sequential(&query, &gt_events);
            let avg = if r.complex_events.is_empty() {
                f64::NAN
            } else {
                r.complex_events.iter().map(|c| c.len() as f64).sum::<f64>()
                    / r.complex_events.len() as f64
            };
            (avg, r.completion_probability())
        };
        let mut cells = vec![
            name.clone(),
            format!("{avg_len:.0}"),
            format!("{:.3}", avg_len / ws as f64),
            format!("{gt_prob:.2}"),
        ];
        for &k in &ks {
            let mut samples = Vec::with_capacity(repeats);
            for rep in 0..repeats {
                let mut schema = Schema::new();
                let source = nyse_source(events_n, 42 + rep as u64, &mut schema);
                let query = Arc::new(queries::q2(&mut schema, lower, upper, ws, slide));
                samples.push(sim_throughput(
                    &query,
                    source,
                    &SpectreConfig::with_instances(k),
                ));
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
