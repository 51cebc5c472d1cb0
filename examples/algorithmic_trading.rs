//! Algorithmic-trading scenario (paper query Q1): detect the first q rising
//! quotes following a rising quote of a blue-chip leader, consuming all
//! constituents — then compare how speculation scales with the
//! consumption-group completion probability.
//!
//! About half the quotes rise, so a window of `ws` events holds about
//! `ws / 2` of them: the ground truth stays at 100 % while q is well below
//! that and falls steeply as q nears it. Windows whose match can no longer
//! fit stop early, so the low-probability end of the sweep is cheap too.
//!
//! ```sh
//! cargo run --release -p spectre-bench --example algorithmic_trading
//! ```

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::{EngineError, SpectreConfig, SpectreEngine};
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::Schema;
use spectre_query::queries::{self, Direction};

fn main() -> Result<(), EngineError> {
    let ws = 400u64;
    println!("Q1: first q rising quotes within {ws} events of a rising leader quote\n");

    // Small q → high completion probability; large q → low.
    let mut ground_truth = Vec::new();
    for q in [4usize, 32, 128, 190, 200] {
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

        assert_eq!(r1.complex_events, seq.complex_events);
        assert_eq!(r8.complex_events, seq.complex_events);

        ground_truth.push(seq.completion_probability());
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
             ({} rollbacks, {} versions dropped)\n",
            r8.metrics.rollbacks, r8.metrics.versions_dropped
        );
    }
    assert!(
        ground_truth.windows(2).all(|w| w[1] <= w[0])
            && ground_truth.last().is_some_and(|&p| p < 0.5),
        "the ground truth falls across the sweep: {ground_truth:?}"
    );
    Ok(())
}
