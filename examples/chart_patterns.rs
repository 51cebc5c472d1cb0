//! Chart-pattern scenario (paper query Q2, after Balkesen & Tatbul): detect
//! a triple price oscillation between limits — `A B+ C D+ E F+ G H+ I J+ K
//! L+ M` with Kleene-`+` steps — over sliding windows with full consumption,
//! and inspect how the variable pattern length drives speculation.
//!
//! ```sh
//! cargo run --release -p spectre-examples --bin chart_patterns
//! ```

use std::sync::Arc;

use spectre_baselines::{run_sequential, TrexEngine};
use spectre_core::{EngineError, SpectreConfig, SpectreEngine};
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::Schema;
use spectre_query::queries::{self, StockVocab};

fn main() -> Result<(), EngineError> {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(
        NyseConfig {
            symbols: 150,
            leaders: 8,
            events: 6_000,
            seed: 31,
            ..NyseConfig::default()
        },
        &mut schema,
    )
    .collect();
    let vocab = StockVocab::install(&mut schema);

    // Price band from the stream's quartiles.
    let mut closes: Vec<f64> = events
        .iter()
        .filter_map(|e| e.f64(vocab.close_price))
        .collect();
    closes.sort_by(f64::total_cmp);
    let lower = closes[closes.len() / 4];
    let upper = closes[3 * closes.len() / 4];

    let query = Arc::new(queries::q2(&mut schema, lower, upper, 600, 75));
    println!(
        "Q2 oscillation band: close < {lower:.2} … > {upper:.2}, window 600 events, slide 75\n"
    );

    let seq = run_sequential(&query, &events);
    let avg_len = if seq.complex_events.is_empty() {
        0.0
    } else {
        seq.complex_events
            .iter()
            .map(|c| c.len() as f64)
            .sum::<f64>()
            / seq.complex_events.len() as f64
    };
    println!(
        "sequential reference: {} oscillations, avg pattern length {:.0} events,",
        seq.complex_events.len(),
        avg_len
    );
    println!(
        "ground-truth completion probability {:.0}%\n",
        seq.completion_probability() * 100.0
    );

    // A general-purpose automaton engine detects the same patterns...
    let trex = TrexEngine::new(Arc::clone(&query)).run(&events);
    assert_eq!(trex.complex_events, seq.complex_events);
    println!(
        "T-REX-style automaton engine agrees ({} transition evaluations)",
        trex.transitions_evaluated
    );

    // ...and SPECTRE parallelizes it despite the consumption policy.
    for k in [1usize, 4, 16] {
        let report = SpectreEngine::builder(&query)
            .config(SpectreConfig::with_instances(k))
            .simulated()
            .try_build()?
            .run(events.iter().cloned())?;
        assert_eq!(report.complex_events, seq.complex_events);
        println!(
            "SPECTRE k={k:<2}: {:>9} rounds, {:>5} versions dropped, {:>3} rollbacks",
            report.rounds.unwrap_or(0),
            report.metrics.versions_dropped,
            report.metrics.rollbacks
        );
    }
    println!("\nall engines emit identical complex events ✔");
    Ok(())
}
