//! The Markov completion-probability model (paper §3.2.1, Fig. 5).
//!
//! Pattern completion is modeled as a discrete-time Markov process over the
//! completion distance δ (δ = 0 means the pattern completed). A transition
//! matrix `T1` is estimated from run-time statistics — the observed
//! `δ_old → δ_new` transitions per processed event — and refreshed with
//! exponential smoothing `T1 = (1 − α)·T1_old + α·T1_new` after every ρ new
//! measurements. The prediction of Fig. 5 only ever reads entry `[δ][0]`
//! of the precomputed powers `T_ℓ, T_2ℓ, …`, so instead of the full
//! matrices the model keeps just their completion-probability *columns*:
//! `v_i = T^{iℓ}·e₀` with `v_{i+1} = T^ℓ·v_i`. Predictions interpolate
//! linearly between adjacent levels, exactly as with the dense powers.
//!
//! Cost model: the chain is nearly bidiagonal (advance or stay), so `T1`,
//! the pending counts and `T^ℓ` live in the sorted sparse rows of
//! [`SparseMatrix`], whose kernels add the stored terms in ascending
//! column order — the same terms in the same order as a dense kernel, so
//! predictions are bit-identical to the dense formulation (kept as the
//! oracle in `tests/tests/prediction_property.rs`). A refresh is one
//! smoothing pass over `nnz(T1)` plus `⌈log₂ ℓ⌉ + popcount(ℓ) − 1` sparse
//! products for `T^ℓ`, into buffers the model owns (no allocation in
//! steady state). Completion levels are extended on demand: a query for
//! `events_left = n` needs level `⌈n/ℓ⌉ + 1`, so a window of `ws` events
//! reads at most `ws/ℓ + 1` of the `max_levels` levels, each costing
//! `nnz(T^ℓ)`; they are memoized until the next refresh. That makes the
//! paper's per-ρ cadence cheap enough to run unthrottled — there is no
//! rate limiter.
//!
//! Refresh cadence: statistics arrive in per-cycle batches, so `pending`
//! may cross several ρ-windows at once. [`refresh_if_due`](MarkovModel::refresh_if_due)
//! applies one smoothing step per *full* ρ-window (`pending / ρ` steps,
//! remainder carried into the next window), matching the paper's per-ρ
//! cadence instead of collapsing a whole backlog into a single step.
//!
//! Deviation from the paper: the state space is capped at
//! [`MarkovConfig::state_cap`] states (δ values above the cap saturate).
//! The paper's examples use δ ≤ 3; query Q1 at q = 2560 would otherwise
//! need a 2561² matrix with thousands of precomputed powers (see "The Markov
//! predictor" in `docs/ARCHITECTURE.md` for what the cap costs per refresh).

use std::cell::RefCell;

use crate::matrix::{PowerScratch, SparseMatrix};

/// Configuration of the [`MarkovModel`].
#[derive(Debug, Clone)]
pub struct MarkovConfig {
    /// Exponential-smoothing factor α ∈ [0, 1] (paper default 0.7).
    pub alpha: f64,
    /// Precomputed power step size ℓ (paper default 10).
    pub ell: u32,
    /// Measurements per `T1` refresh ρ.
    pub rho: u64,
    /// Maximum number of δ states tracked (δ saturates above this).
    pub state_cap: usize,
    /// Maximum number of precomputed power levels (`T_ℓ … T_{L·ℓ}`);
    /// predictions beyond saturate at the last level.
    pub max_levels: usize,
}

impl Default for MarkovConfig {
    fn default() -> Self {
        MarkovConfig {
            alpha: 0.7,
            ell: 10,
            rho: 512,
            state_cap: 128,
            max_levels: 128,
        }
    }
}

/// The adaptive Markov model. Owned and updated by the splitter; instances
/// ship it `(δ_old, δ_new)` observations in batches.
///
/// # Example
///
/// ```
/// use spectre_core::markov::{MarkovConfig, MarkovModel};
///
/// let mut model = MarkovModel::new(3, MarkovConfig { rho: 4, ..Default::default() });
/// // Observe a pattern that always advances: 3→2→1→0.
/// for _ in 0..4 {
///     model.observe(3, 2);
///     model.observe(2, 1);
///     model.observe(1, 0);
/// }
/// model.refresh_if_due();
/// // With many events left, completion from δ=3 is near certain.
/// assert!(model.completion_probability(3, 100) > 0.9);
/// ```
#[derive(Debug)]
pub struct MarkovModel {
    config: MarkovConfig,
    states: usize,
    t1: SparseMatrix,
    counts: SparseMatrix,
    pending: u64,
    /// `T^ℓ` of the current `T1`.
    t_ell: SparseMatrix,
    /// Refresh temporaries: the normalized counts and the power buffers.
    t_new: SparseMatrix,
    scratch: PowerScratch,
    /// Completion-probability vectors computed since the last refresh,
    /// level-major: `levels[i·states + δ] = (T^{(i+1)·ℓ})[δ][0]`. Extended
    /// on demand by [`completion_probability`](Self::completion_probability).
    levels: RefCell<Vec<f64>>,
    refreshes: u64,
    smoothing_steps: u64,
}

impl MarkovModel {
    /// Creates a model for patterns with initial completion distance
    /// `max_delta`; the state space is `min(max_delta, state_cap) + 1`
    /// states.
    ///
    /// Before any statistics arrive the model uses an uninformative prior:
    /// from every state, advance one step or stay with probability ½ each.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]` or `ell` is zero.
    pub fn new(max_delta: usize, config: MarkovConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.alpha),
            "alpha must be in [0, 1]"
        );
        assert!(config.ell > 0, "ell must be positive");
        let states = max_delta.min(config.state_cap) + 1;
        let mut t1 = SparseMatrix::zeros(states);
        t1.add(0, 0, 1.0);
        for i in 1..states {
            t1.add(i, i - 1, 0.5);
            t1.add(i, i, 0.5);
        }
        let mut model = MarkovModel {
            config,
            states,
            t1,
            counts: SparseMatrix::zeros(states),
            pending: 0,
            t_ell: SparseMatrix::default(),
            t_new: SparseMatrix::default(),
            scratch: PowerScratch::default(),
            levels: RefCell::default(),
            refreshes: 0,
            smoothing_steps: 0,
        };
        model.rebuild_t_ell();
        model
    }

    /// Number of δ states (including state 0).
    pub fn state_count(&self) -> usize {
        self.states
    }

    /// Number of refreshes performed so far (each recomputed `T^ℓ`; one
    /// refresh may apply several smoothing steps, see
    /// [`smoothing_steps`](Self::smoothing_steps)).
    pub fn refresh_count(&self) -> u64 {
        self.refreshes
    }

    /// Number of exponential-smoothing steps applied so far — one per full
    /// ρ-window of observations, however they were batched.
    pub fn smoothing_steps(&self) -> u64 {
        self.smoothing_steps
    }

    /// Observations accumulated towards the next ρ-window.
    pub fn pending_observations(&self) -> u64 {
        self.pending
    }

    /// The current smoothed transition matrix `T1` (for inspection).
    pub fn t1(&self) -> &SparseMatrix {
        &self.t1
    }

    /// Dense row-major copy of `T1`, the input of the tests' dense oracle.
    pub fn t1_dense(&self) -> Vec<Vec<f64>> {
        self.t1.to_dense()
    }

    /// Stored entries of `T^ℓ` — what one completion level costs.
    pub fn t_ell_nnz(&self) -> usize {
        self.t_ell.nnz()
    }

    /// Maps a completion distance onto the (possibly saturated) state index.
    pub fn clamp_delta(&self, delta: usize) -> usize {
        delta.min(self.states - 1)
    }

    /// Records one observed transition `δ_old → δ_new`.
    pub fn observe(&mut self, delta_old: usize, delta_new: usize) {
        let from = self.clamp_delta(delta_old);
        let to = self.clamp_delta(delta_new);
        self.counts.add(from, to, 1.0);
        self.pending += 1;
    }

    /// Records a batch of transitions.
    pub fn observe_batch(&mut self, transitions: &[(u32, u32)]) {
        for &(from, to) in transitions {
            self.observe(from as usize, to as usize);
        }
    }

    /// `true` when a full ρ-window is pending, i.e. the next
    /// [`refresh_if_due`](Self::refresh_if_due) will refresh.
    pub fn refresh_due(&self) -> bool {
        self.pending >= self.config.rho
    }

    /// Refreshes `T1` (exponential smoothing) and `T^ℓ` if at least one
    /// full ρ-window of measurements accumulated — one smoothing step per
    /// full window, the remainder carried over. Returns `true` if a
    /// refresh happened.
    ///
    /// Statistics arrive in per-cycle batches, so `pending` routinely
    /// crosses several ρ-windows at once; collapsing them into a single
    /// smoothing step would under-weight recent observations relative to
    /// the paper's per-ρ cadence (`T1 = (1−α)·T1_old + α·T1_new` once per
    /// window). The aggregated counts stand in for each window's estimate:
    /// when every window drew from the same distribution this is exact
    /// (normalization is scale-invariant), otherwise it is the natural
    /// batch approximation. The `pending % ρ` remainder observations stay
    /// pending, their counts scaled down to the remainder's share of the
    /// aggregate.
    pub fn refresh_if_due(&mut self) -> bool {
        if !self.refresh_due() {
            return false;
        }
        let steps = self.pending / self.config.rho;
        let remainder = self.pending % self.config.rho;
        self.counts.normalize_into(&mut self.t_new);
        // One lerp per full ρ-window — bit-identical to feeding the same
        // windows one refresh at a time.
        self.t1
            .smooth_towards(&self.t_new, self.config.alpha, steps);
        if remainder == 0 {
            self.counts.clear();
        } else {
            // Keep the remainder's share of the aggregate distribution.
            self.counts.scale(remainder as f64 / self.pending as f64);
        }
        self.pending = remainder;
        self.smoothing_steps += steps;
        self.rebuild_t_ell();
        self.refreshes += 1;
        true
    }

    /// Recomputes `T^ℓ` from `T1` and forgets the completion levels
    /// derived from the previous one.
    fn rebuild_t_ell(&mut self) {
        self.t1
            .power_into(self.config.ell, &mut self.t_ell, &mut self.scratch);
        self.levels.get_mut().clear();
    }

    /// Completion probability of a consumption group with completion
    /// distance `delta` when `events_left` more events are expected in its
    /// window (paper Fig. 5).
    ///
    /// `events_left` is clamped to at least 1 ("at least 1 more event
    /// expected") and the interpolation reads the `[δ][0]` entries of
    /// `T_n ≈ lerp(T_{⌊n/ℓ⌋·ℓ}, T_{⌈n/ℓ⌉·ℓ})` — two lookups in the
    /// completion vectors plus the lerp. Levels not yet computed since the
    /// last refresh are advanced first (`v_{i+1} = T^ℓ·v_i`, O(nnz(T^ℓ))
    /// each) and kept.
    pub fn completion_probability(&self, delta: usize, events_left: i64) -> f64 {
        let delta = self.clamp_delta(delta);
        if delta == 0 {
            return 1.0;
        }
        let n = events_left.max(1) as u64;
        let ell = self.config.ell as u64;
        // Level i holds the [δ][0] column of T^{(i+1)·ℓ}.
        let lo_level = n / ell; // T^{lo_level·ℓ}
        let w = (n % ell) as f64 / ell as f64;
        let hi_level = (lo_level + 1).min(self.config.max_levels.max(1) as u64);

        let states = self.states;
        let mut levels = self.levels.borrow_mut();
        while levels.len() < hi_level as usize * states {
            let have = levels.len();
            levels.resize(have + states, 0.0);
            let (prev, next) = levels.split_at_mut(have);
            if have == 0 {
                // Level 0: column 0 of T^ℓ itself.
                for (i, v) in next.iter_mut().enumerate() {
                    *v = self.t_ell.get(i, 0);
                }
            } else {
                self.t_ell.mul_col_into(&prev[have - states..], next);
            }
        }
        let entry = |level: u64| -> f64 {
            if level == 0 {
                // T^0 = identity: probability 1 only from state 0.
                0.0
            } else {
                levels[(level.min(hi_level) - 1) as usize * states + delta]
            }
        };
        (1.0 - w) * entry(lo_level) + w * entry(lo_level + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(rho: u64) -> MarkovConfig {
        MarkovConfig {
            rho,
            ell: 4,
            max_levels: 32,
            ..Default::default()
        }
    }

    #[test]
    fn prior_gives_moderate_probabilities() {
        let model = MarkovModel::new(3, small_config(10));
        let p_short = model.completion_probability(3, 2);
        let p_long = model.completion_probability(3, 100);
        assert!(p_short < p_long, "{p_short} vs {p_long}");
        assert!(p_long > 0.9);
        assert_eq!(model.completion_probability(0, 5), 1.0);
    }

    #[test]
    fn learns_never_completing_patterns() {
        let mut model = MarkovModel::new(2, small_config(8));
        // Interleave observation rounds with refreshes so smoothing drives
        // the transition rates towards "never advance".
        for _ in 0..12 {
            for _ in 0..4 {
                model.observe(2, 2);
                model.observe(1, 1);
            }
            model.refresh_if_due();
        }
        let p = model.completion_probability(2, 50);
        assert!(p < 0.1, "p = {p}");
    }

    #[test]
    fn learns_always_advancing_patterns() {
        let mut model = MarkovModel::new(4, small_config(8));
        for _ in 0..64 {
            for d in (1..=4).rev() {
                model.observe(d, d - 1);
            }
        }
        while model.refresh_if_due() {}
        assert!(model.completion_probability(4, 20) > 0.95);
        // With fewer remaining events (2) than steps needed (4) the true
        // probability is 0; the ℓ-grid interpolation between T⁰ and T^ℓ
        // floors the estimate at (n mod ℓ)/ℓ · T^ℓ[δ][0] = 0.5 here (the
        // fully-learned chain reaches 0 in exactly ℓ = 4 steps).
        let p_short = model.completion_probability(4, 2);
        assert!(p_short <= 0.5 + 1e-9, "p = {p_short}");
        assert!(p_short < model.completion_probability(4, 20));
    }

    #[test]
    fn refresh_respects_rho() {
        let mut model = MarkovModel::new(2, small_config(10));
        for _ in 0..9 {
            model.observe(2, 1);
        }
        assert!(!model.refresh_if_due());
        model.observe(2, 1);
        assert!(model.refresh_if_due());
        assert_eq!(model.refresh_count(), 1);
        assert_eq!(model.smoothing_steps(), 1);
        assert_eq!(model.pending_observations(), 0);
    }

    #[test]
    fn smoothing_blends_old_and_new() {
        let cfg = MarkovConfig {
            alpha: 0.5,
            rho: 4,
            ell: 2,
            max_levels: 8,
            state_cap: 128,
        };
        let mut model = MarkovModel::new(1, cfg);
        // Prior: P(1→0) = 0.5. Observe only 1→0.
        for _ in 0..4 {
            model.observe(1, 0);
        }
        model.refresh_if_due();
        // T1[1][0] = 0.5 * 0.5 + 0.5 * 1.0 = 0.75
        let p = model.completion_probability(1, 1);
        // n=1, ℓ=2: interpolates between T^0 (0.0) and T^2 at weight 0.5.
        // T^2[1][0] = 1 - 0.25^2 = 0.9375 → p = 0.5 * 0.9375 = 0.46875
        assert!((p - 0.468_75).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn batched_stats_match_sequential_refreshes() {
        // The ρ-collapse regression test: 5ρ observations delivered in one
        // batch must produce the same T1 as the same observations fed one
        // ρ-window at a time with a refresh after each — the paper's
        // per-ρ smoothing cadence, not a single collapsed step.
        let rho = 8u64;
        let window = [
            (2u32, 1u32),
            (2, 2),
            (1, 0),
            (1, 1),
            (2, 1),
            (1, 0),
            (2, 2),
            (1, 1),
        ];
        assert_eq!(window.len() as u64, rho);

        let mut sequential = MarkovModel::new(2, small_config(rho));
        for _ in 0..5 {
            sequential.observe_batch(&window);
            assert!(sequential.refresh_if_due());
        }
        assert_eq!(sequential.smoothing_steps(), 5);

        let mut batched = MarkovModel::new(2, small_config(rho));
        let bulk: Vec<(u32, u32)> = (0..5).flat_map(|_| window.iter().copied()).collect();
        batched.observe_batch(&bulk);
        assert!(batched.refresh_if_due());
        assert_eq!(batched.refresh_count(), 1, "one rebuild for the backlog");
        assert_eq!(batched.smoothing_steps(), 5, "one step per full ρ-window");

        for i in 0..3 {
            for j in 0..3 {
                let (s, b) = (sequential.t1().get(i, j), batched.t1().get(i, j));
                assert!(
                    (s - b).abs() < 1e-15,
                    "T1[{i}][{j}]: sequential {s} vs batched {b}"
                );
            }
        }
        for (delta, n) in [(1usize, 3i64), (2, 10), (2, 100)] {
            let (s, b) = (
                sequential.completion_probability(delta, n),
                batched.completion_probability(delta, n),
            );
            assert!((s - b).abs() < 1e-12, "p({delta},{n}): {s} vs {b}");
        }
    }

    #[test]
    fn refresh_carries_the_remainder() {
        // 2ρ + 3 pending → two smoothing steps, 3 observations carried.
        let mut model = MarkovModel::new(2, small_config(8));
        for _ in 0..19 {
            model.observe(2, 1);
        }
        assert!(model.refresh_if_due());
        assert_eq!(model.smoothing_steps(), 2);
        assert_eq!(model.pending_observations(), 3);
        // Topping the carried remainder up to a full window triggers the
        // next step.
        for _ in 0..5 {
            model.observe(2, 1);
        }
        assert!(model.refresh_if_due());
        assert_eq!(model.smoothing_steps(), 3);
        assert_eq!(model.pending_observations(), 0);
    }

    #[test]
    fn decayed_transitions_are_flushed_not_subnormal() {
        // Smoothing multiplies an entry that is no longer observed by
        // (1 − α) per step: 0.3^n never reaches 0 on its own and would sit
        // in the subnormal range from n ≈ 590 on.
        let mut model = MarkovModel::new(3, small_config(4));
        for _ in 0..4 {
            model.observe_batch(&[(3, 0), (2, 0), (1, 0), (3, 1)]);
            assert!(model.refresh_if_due());
        }
        assert!(model.t1().get(3, 0) > 0.4);
        for _ in 0..2000 {
            model.observe_batch(&[(3, 3), (2, 2), (1, 1), (3, 2)]);
            assert!(model.refresh_if_due());
        }
        let t1 = model.t1_dense();
        assert!(t1.iter().flatten().all(|v| *v == 0.0 || v.is_normal()));
        assert_eq!(t1[3][..2], [0.0, 0.0], "the support shrank");
        assert_eq!(model.t1().nnz(), 1 + 1 + 1 + 2);
        assert!(model.t1().is_row_stochastic(1e-12));
        assert_eq!(model.completion_probability(3, 1000), 0.0);
    }

    #[test]
    fn levels_are_extended_on_demand_and_dropped_by_a_refresh() {
        let mut model = MarkovModel::new(3, small_config(4));
        assert!(model.levels.borrow().is_empty());
        let far = model.completion_probability(3, 40); // levels 10 and 11
        assert_eq!(model.levels.borrow().len(), 11 * 4);
        let near = model.completion_probability(3, 6); // memoized
        assert_eq!(model.levels.borrow().len(), 11 * 4);
        assert!(near < far);
        // Reading past max_levels saturates at the last level.
        let last = model.completion_probability(3, 32 * 4);
        assert_eq!(model.completion_probability(3, 1_000_000), last);
        assert_eq!(model.levels.borrow().len(), 32 * 4);
        model.observe_batch(&[(3, 3), (2, 2), (1, 1), (3, 3)]);
        assert!(model.refresh_if_due());
        assert!(model.levels.borrow().is_empty());
        assert!(model.completion_probability(3, 6) < near);
    }

    #[test]
    fn delta_saturates_at_state_cap() {
        let cfg = MarkovConfig {
            state_cap: 8,
            ..small_config(4)
        };
        let model = MarkovModel::new(100, cfg);
        assert_eq!(model.state_count(), 9);
        assert_eq!(model.clamp_delta(100), 8);
        // saturated deltas still produce a valid probability
        let p = model.completion_probability(100, 1000);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn events_left_clamps_to_one() {
        let model = MarkovModel::new(2, small_config(4));
        let p0 = model.completion_probability(1, 0);
        let p_neg = model.completion_probability(1, -5);
        let p1 = model.completion_probability(1, 1);
        assert_eq!(p0, p1);
        assert_eq!(p_neg, p1);
    }

    #[test]
    fn probabilities_monotone_in_events_left() {
        let mut model = MarkovModel::new(3, small_config(8));
        for _ in 0..32 {
            model.observe(3, 2);
            model.observe(2, 2);
            model.observe(2, 1);
            model.observe(1, 0);
        }
        model.refresh_if_due();
        let mut prev = 0.0;
        for n in [1i64, 2, 4, 8, 16, 32, 64] {
            let p = model.completion_probability(3, n);
            assert!(p + 1e-12 >= prev, "n={n}: {p} < {prev}");
            prev = p;
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn invalid_alpha_rejected() {
        let _ = MarkovModel::new(
            2,
            MarkovConfig {
                alpha: 1.5,
                ..Default::default()
            },
        );
    }
}
