//! Portfolio-monitoring scenario (paper query Q3): after a trade in a
//! leading symbol, watch for activity in a *set* of portfolio symbols — in
//! any order — within a sliding window; consume all constituents. Compares
//! the adaptive Markov predictor against fixed completion probabilities
//! (the paper's Fig. 11 experiment, in miniature).
//!
//! ```sh
//! cargo run --release -p spectre-examples --bin portfolio_monitor
//! ```

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::{EngineError, PredictorKind, SpectreConfig, SpectreEngine};
use spectre_datasets::{RandConfig, RandGenerator};
use spectre_events::Schema;
use spectre_query::queries;

fn main() -> Result<(), EngineError> {
    let mut schema = Schema::new();
    let gen = RandGenerator::new(
        RandConfig {
            symbols: 120,
            leaders: 4,
            events: 4_000,
            seed: 23,
            ..RandConfig::default()
        },
        &mut schema,
    );
    let symbols = gen.symbols().to_vec();
    let events: Vec<_> = gen.collect();

    // Portfolio: leader + 5 watched symbols, any order, within 500 events,
    // sliding every 50.
    let query = Arc::new(queries::q3(
        &mut schema,
        symbols[0],
        &symbols[1..6],
        500,
        50,
    ));

    let seq = run_sequential(&query, &events);
    println!(
        "portfolio alerts: {} (ground-truth completion probability {:.0}%)\n",
        seq.complex_events.len(),
        seq.completion_probability() * 100.0
    );

    println!(
        "{:<10} {:>14} {:>12} {:>10}",
        "predictor", "rounds", "dropped", "rollbacks"
    );
    let mut rows: Vec<(String, PredictorKind)> = vec![
        ("fixed 10%".into(), PredictorKind::Fixed(0.1)),
        ("fixed 50%".into(), PredictorKind::Fixed(0.5)),
        ("fixed 100%".into(), PredictorKind::Fixed(1.0)),
        ("Markov".into(), PredictorKind::default()),
    ];
    let mut best: Option<(String, u64)> = None;
    for (name, predictor) in rows.drain(..) {
        let config = SpectreConfig {
            instances: 8,
            predictor,
            ..Default::default()
        };
        let report = SpectreEngine::builder(&query)
            .config(config)
            .simulated()
            .try_build()?
            .run(events.iter().cloned())?;
        let rounds = report.rounds.unwrap_or(0);
        assert_eq!(report.complex_events, seq.complex_events);
        println!(
            "{:<10} {:>14} {:>12} {:>10}",
            name, rounds, report.metrics.versions_dropped, report.metrics.rollbacks
        );
        if best.as_ref().is_none_or(|(_, r)| rounds < *r) {
            best = Some((name, rounds));
        }
    }
    let (winner, _) = best.expect("at least one predictor");
    println!("\nfastest predictor on this workload: {winner}");
    println!("(all predictors produce identical, sequential-exact output)");
    Ok(())
}
