//! Elastic scaling: choose the operator-instance count from the measured
//! consumption-group completion probability (the elasticity mechanism the
//! paper's evaluation discussion proposes, §4.2.1).
//!
//! The example streams two NYSE phases with very different pattern
//! behaviour — short patterns that almost always complete, then long
//! patterns that rarely do — and shows the controller adapting its
//! recommendation between them.
//!
//! ```sh
//! cargo run -p spectre-examples --bin elastic_scaling
//! ```

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::elastic::{ElasticConfig, ElasticController};
use spectre_core::{EngineError, SpectreConfig, SpectreEngine};
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::Schema;
use spectre_query::queries::{self, Direction};

fn main() -> Result<(), EngineError> {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(
        NyseConfig {
            symbols: 100,
            leaders: 8,
            events: 12_000,
            seed: 11,
            ..NyseConfig::default()
        },
        &mut schema,
    )
    .collect();

    let mut controller = ElasticController::new(ElasticConfig {
        max_instances: 32,
        ..Default::default()
    });

    // Phase 1: short patterns (q = 3) — nearly every partial match
    // completes, so speculation is almost never wasted.
    // Phase 2: long patterns (q = 120 in a 400-event window) — most partial
    // matches are abandoned midway, capping useful parallelism.
    for (phase, q) in [("short patterns", 3usize), ("long patterns", 120)] {
        let query = Arc::new(queries::q1(&mut schema, q, 400, Direction::Rising));

        // Measure the phase's completion probability (in production this
        // comes from the splitter's running statistics).
        let stats = run_sequential(&query, &events);
        controller.observe(stats.completion_probability());
        let k = controller.recommend();

        let report = SpectreEngine::builder(&query)
            .config(SpectreConfig::with_instances(k))
            .simulated()
            .try_build()?
            .run(events.iter().cloned())?;
        println!("phase: {phase}");
        println!(
            "  completion probability : {:.0}%",
            stats.completion_probability() * 100.0
        );
        println!("  recommended instances  : {k}");
        println!(
            "  complex events         : {} ({} versions dropped on the way)",
            report.complex_events.len(),
            report.metrics.versions_dropped
        );
        // Useful work per virtual round: how many of the k instances were
        // busy with events that ended up surviving.
        println!(
            "  events per round       : {:.2} (of {k} instances)",
            report.metrics.events_processed as f64 / report.rounds.unwrap_or(1).max(1) as f64
        );
    }
    Ok(())
}
