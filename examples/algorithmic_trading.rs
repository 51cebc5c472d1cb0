//! Algorithmic-trading scenario (paper query Q1): detect the first q rising
//! quotes following a rising quote of a blue-chip leader, consuming all
//! constituents — then compare how speculation scales with the
//! consumption-group completion probability.
//!
//! ```sh
//! cargo run --release -p spectre-examples --bin algorithmic_trading
//! ```

use std::sync::Arc;

use spectre_baselines::{run_sequential, run_waitful};
use spectre_core::{EngineError, SpectreConfig, SpectreEngine};
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::Schema;
use spectre_query::queries::{self, Direction};

fn main() -> Result<(), EngineError> {
    let ws = 400u64;
    println!("Q1: first q rising quotes within {ws} events of a rising leader quote\n");

    // Small q → high completion probability; large q → low.
    for q in [4usize, 32, 128] {
        let mut schema = Schema::new();
        let events: Vec<_> = NyseGenerator::new(
            NyseConfig {
                symbols: 200,
                leaders: 16,
                events: 20_000,
                seed: 11,
                ..NyseConfig::default()
            },
            &mut schema,
        )
        .collect();
        let query = Arc::new(queries::q1(&mut schema, q, ws, Direction::Rising));

        let seq = run_sequential(&query, &events);
        let sim = |k: usize| {
            SpectreEngine::builder(&query)
                .config(SpectreConfig::with_instances(k))
                .simulated()
                .try_build()?
                .run(events.iter().cloned())
        };
        let r1 = sim(1)?;
        let r8 = sim(8)?;
        let wait8 = run_waitful(&query, &events, 8);

        assert_eq!(r1.complex_events, seq.complex_events);
        assert_eq!(r8.complex_events, seq.complex_events);

        let speedup = r1.rounds.unwrap_or(0) as f64 / r8.rounds.unwrap_or(0).max(1) as f64;
        println!("q = {q:>3}  ratio = {:.3}", q as f64 / ws as f64);
        println!(
            "  ground-truth completion probability: {:>5.1}%  ({} groups, {} matches)",
            seq.completion_probability() * 100.0,
            seq.cgs_created,
            seq.cgs_completed,
        );
        println!(
            "  SPECTRE   speculation speedup 1→8 instances: {speedup:.1}x \
             ({} rollbacks, {} versions dropped)",
            r8.metrics.rollbacks, r8.metrics.versions_dropped
        );
        println!(
            "  wait-based parallelism (no speculation), 8 instances: {:.1}x\n",
            wait8.speedup
        );
    }
    println!(
        "speculation exploits parallelism where waiting cannot: overlapping\n\
         windows with consumption serialize the wait-based baseline."
    );
    Ok(())
}
