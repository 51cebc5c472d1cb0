//! Completion-probability prediction.
//!
//! The splitter asks a query's [`Predictor`] for the completion probability
//! of every open consumption group when computing survival probabilities
//! (paper §3.2). The paper proposes the adaptive [`MarkovModel`]; the
//! evaluation of Fig. 11 compares it against fixed-probability assignments.

use crate::config::PredictorKind;
use crate::markov::MarkovModel;

/// Predicts the completion probability of a consumption group: one of the
/// paper's two predictor kinds, built from a [`PredictorKind`].
#[derive(Debug)]
pub enum Predictor {
    /// The paper's adaptive Markov predictor (§3.2.1), boxed so that a
    /// fixed predictor does not carry the model's size.
    Markov(Box<MarkovModel>),
    /// The same fixed completion probability for every group that is not
    /// yet complete (the baseline family of paper Fig. 11). The
    /// probability is checked by
    /// [`SpectreConfig::try_validate`](crate::SpectreConfig::try_validate).
    Fixed(f64),
}

impl Predictor {
    /// Builds the predictor `kind` names for patterns with initial
    /// completion distance `max_delta`.
    pub fn new(kind: &PredictorKind, max_delta: usize) -> Self {
        match kind {
            PredictorKind::Markov(config) => {
                Predictor::Markov(Box::new(MarkovModel::new(max_delta, config.clone())))
            }
            PredictorKind::Fixed(p) => Predictor::Fixed(*p),
        }
    }

    /// Probability that a consumption group with completion distance `delta`
    /// completes, given `events_left` expected further events in its window.
    pub fn predict(&self, delta: usize, events_left: i64) -> f64 {
        match self {
            Predictor::Markov(model) => model.completion_probability(delta, events_left),
            Predictor::Fixed(_) if delta == 0 => 1.0,
            Predictor::Fixed(p) => *p,
        }
    }

    /// Feeds observed `(δ_old, δ_new)` transitions (ignored by a fixed
    /// predictor).
    pub fn observe_batch(&mut self, transitions: &[(u32, u32)]) {
        if let Predictor::Markov(model) = self {
            model.observe_batch(transitions);
        }
    }

    /// `true` when [`refresh`](Self::refresh) has work to do. The splitter
    /// asks every cycle and calls (and times) `refresh` only on `true`.
    pub fn refresh_due(&self) -> bool {
        match self {
            Predictor::Markov(model) => model.refresh_due(),
            Predictor::Fixed(_) => false,
        }
    }

    /// Refreshes the Markov model if a ρ-window is pending. Returns `true`
    /// if a refresh happened.
    pub fn refresh(&mut self) -> bool {
        match self {
            Predictor::Markov(model) => model.refresh_if_due(),
            Predictor::Fixed(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::MarkovConfig;

    #[test]
    fn fixed_predictor_is_constant_except_when_complete() {
        let p = Predictor::new(&PredictorKind::Fixed(0.3), 3);
        assert_eq!(p.predict(5, 10), 0.3);
        assert_eq!(p.predict(5, 1_000_000), 0.3);
        assert_eq!(p.predict(0, 1), 1.0);
        assert!(!p.refresh_due());
    }

    #[test]
    fn markov_predictor_adapts() {
        let kind = PredictorKind::Markov(MarkovConfig {
            rho: 4,
            ..Default::default()
        });
        let mut p = Predictor::new(&kind, 2);
        let before = p.predict(2, 20);
        for _ in 0..8 {
            p.observe_batch(&[(2, 1), (1, 0)]);
            p.refresh();
        }
        let after = p.predict(2, 20);
        assert!(after > before, "{after} <= {before}");
    }

    #[test]
    fn each_kind_builds_its_variant() {
        let fixed = Predictor::new(&PredictorKind::Fixed(0.5), 3);
        assert!(matches!(fixed, Predictor::Fixed(p) if p == 0.5));
        let markov = Predictor::new(&PredictorKind::default(), 3);
        assert!(matches!(markov, Predictor::Markov(_)));
        for p in [fixed, markov] {
            assert!((0.0..=1.0).contains(&p.predict(1, 10)));
        }
    }
}
