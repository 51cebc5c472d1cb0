//! Completion-probability predictors.
//!
//! The splitter asks a predictor for the completion probability of every
//! open consumption group when computing survival probabilities (paper
//! §3.2). The paper proposes the adaptive [`MarkovModel`]; the evaluation of
//! Fig. 11 compares it against fixed-probability assignments, reproduced
//! here as [`FixedPredictor`].

use crate::markov::{MarkovConfig, MarkovModel};

/// Predicts the completion probability of a consumption group.
pub trait CompletionPredictor: Send {
    /// Probability that a consumption group with completion distance `delta`
    /// completes, given `events_left` expected further events in its window.
    fn predict(&self, delta: usize, events_left: i64) -> f64;

    /// Feeds observed `(δ_old, δ_new)` transitions (no-op for static
    /// predictors).
    fn observe_batch(&mut self, _transitions: &[(u32, u32)]) {}

    /// `true` when [`refresh`](Self::refresh) has work to do. The splitter
    /// asks every cycle and calls (and times) `refresh` only on `true`.
    fn refresh_due(&self) -> bool {
        false
    }

    /// Gives the predictor a chance to refresh internal state (no-op for
    /// static predictors). Returns `true` if a refresh happened.
    fn refresh(&mut self) -> bool {
        false
    }
}

/// The paper's adaptive Markov predictor (§3.2.1).
#[derive(Debug)]
pub struct MarkovPredictor {
    model: MarkovModel,
}

impl MarkovPredictor {
    /// Creates a predictor for patterns with the given initial completion
    /// distance.
    pub fn new(max_delta: usize, config: MarkovConfig) -> Self {
        MarkovPredictor {
            model: MarkovModel::new(max_delta, config),
        }
    }

    /// The underlying model (for inspection).
    pub fn model(&self) -> &MarkovModel {
        &self.model
    }
}

impl CompletionPredictor for MarkovPredictor {
    fn predict(&self, delta: usize, events_left: i64) -> f64 {
        self.model.completion_probability(delta, events_left)
    }

    fn observe_batch(&mut self, transitions: &[(u32, u32)]) {
        self.model.observe_batch(transitions);
    }

    fn refresh_due(&self) -> bool {
        self.model.refresh_due()
    }

    fn refresh(&mut self) -> bool {
        self.model.refresh_if_due()
    }
}

/// Assigns every consumption group the same fixed completion probability
/// (the baseline family of paper Fig. 11).
#[derive(Debug, Clone, Copy)]
pub struct FixedPredictor {
    p: f64,
}

impl FixedPredictor {
    /// Creates a fixed predictor.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        FixedPredictor { p }
    }
}

impl CompletionPredictor for FixedPredictor {
    fn predict(&self, delta: usize, _events_left: i64) -> f64 {
        if delta == 0 {
            1.0
        } else {
            self.p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_predictor_is_constant_except_when_complete() {
        let p = FixedPredictor::new(0.3);
        assert_eq!(p.predict(5, 10), 0.3);
        assert_eq!(p.predict(5, 1_000_000), 0.3);
        assert_eq!(p.predict(0, 1), 1.0);
    }

    #[test]
    fn markov_predictor_adapts() {
        let mut p = MarkovPredictor::new(
            2,
            MarkovConfig {
                rho: 4,
                ..Default::default()
            },
        );
        let before = p.predict(2, 20);
        for _ in 0..8 {
            p.observe_batch(&[(2, 1), (1, 0)]);
            p.refresh();
        }
        let after = p.predict(2, 20);
        assert!(after > before, "{after} <= {before}");
    }

    #[test]
    fn trait_objects_work() {
        let predictors: Vec<Box<dyn CompletionPredictor>> = vec![
            Box::new(FixedPredictor::new(0.5)),
            Box::new(MarkovPredictor::new(3, MarkovConfig::default())),
        ];
        for p in &predictors {
            let v = p.predict(1, 10);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn fixed_predictor_validates() {
        let _ = FixedPredictor::new(1.1);
    }
}
