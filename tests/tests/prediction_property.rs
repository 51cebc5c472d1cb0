//! Property-based tests for the prediction substrate: the sparse
//! stochastic-matrix kernel and the Markov completion-probability model
//! (paper Fig. 5), both held to a dense oracle kept here.

use proptest::prelude::*;
use spectre_core::markov::{MarkovConfig, MarkovModel};
use spectre_core::matrix::{PowerScratch, SparseMatrix};

/// Dense row-major square matrix: the oracle's representation.
type Dense = Vec<Vec<f64>>;

/// Dense product, accumulating every entry in ascending order of the
/// inner index — the textbook kernel the sparse one must equal bit for bit.
fn dense_multiply(a: &Dense, b: &Dense) -> Dense {
    let n = a.len();
    let mut out = vec![vec![0.0; n]; n];
    for (a_row, out_row) in a.iter().zip(&mut out) {
        for (&a_ik, b_row) in a_row.iter().zip(b) {
            for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * b_kj;
            }
        }
    }
    out
}

/// Dense `m^p` by repeated squaring (`p == 0` gives the identity).
fn dense_power(m: &Dense, p: u32) -> Dense {
    let n = m.len();
    let mut result: Dense = (0..n)
        .map(|i| (0..n).map(|j| f64::from(u8::from(i == j))).collect())
        .collect();
    let (mut base, mut p) = (m.clone(), p);
    while p > 0 {
        if p & 1 == 1 {
            result = dense_multiply(&result, &base);
        }
        base = dense_multiply(&base, &base);
        p >>= 1;
    }
    result
}

/// The executable specification of `MarkovModel::completion_probability`:
/// full dense matrix powers `T^ℓ, T^2ℓ, …` recomputed from a dense copy of
/// `T1` on every call — O(max_levels·n³), Fig. 5 as the paper states it.
fn completion_probability_via_matrix_powers(
    model: &MarkovModel,
    config: &MarkovConfig,
    delta: usize,
    events_left: i64,
) -> f64 {
    let delta = model.clamp_delta(delta);
    if delta == 0 {
        return 1.0;
    }
    let t_ell = dense_power(&model.t1_dense(), config.ell);
    let mut powers = vec![t_ell.clone()];
    for _ in 1..config.max_levels {
        powers.push(dense_multiply(powers.last().expect("non-empty"), &t_ell));
    }
    let n = events_left.max(1) as u64;
    let ell = u64::from(config.ell);
    let lo_level = n / ell;
    let w = (n % ell) as f64 / ell as f64;
    let entry = |level: u64| -> f64 {
        if level == 0 {
            0.0
        } else {
            powers[(level.min(powers.len() as u64) - 1) as usize][delta][0]
        }
    };
    (1.0 - w) * entry(lo_level) + w * entry(lo_level + 1)
}

/// Builds a row-stochastic sparse matrix from arbitrary non-negative rows;
/// entries below 3 are dropped first so rows have holes (a row left empty
/// becomes the identity row).
fn stochastic(rows: Vec<Vec<f64>>) -> SparseMatrix {
    let mut counts = SparseMatrix::zeros(rows.len());
    for (i, row) in rows.iter().enumerate() {
        for (j, &v) in row.iter().enumerate().filter(|(_, v)| **v >= 3.0) {
            counts.add(i, j, v);
        }
    }
    let mut m = SparseMatrix::default();
    counts.normalize_into(&mut m);
    m
}

fn rows_strategy(n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..10.0, n..=n), n..=n)
}

fn bits(m: &Dense) -> Vec<u64> {
    m.iter().flatten().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Sparse products are the dense products, bit for bit, and products
    /// of row-stochastic matrices are row-stochastic.
    #[test]
    fn products_match_dense_and_stay_stochastic(a in rows_strategy(5), b in rows_strategy(5)) {
        let (a, b) = (stochastic(a), stochastic(b));
        prop_assume!(a.is_row_stochastic(1e-9) && b.is_row_stochastic(1e-9));
        let mut c = SparseMatrix::default();
        a.multiply_into(&b, &mut c, &mut Vec::new());
        prop_assert!(c.is_row_stochastic(1e-6));
        let dense = dense_multiply(&a.to_dense(), &b.to_dense());
        prop_assert_eq!(bits(&c.to_dense()), bits(&dense));
    }

    /// Sparse powers are the dense repeated-squaring powers, bit for bit
    /// (same product tree), stay row-stochastic, and power(1) is the
    /// matrix itself. The scratch buffers are reused across exponents.
    #[test]
    fn powers_match_dense_and_stay_stochastic(a in rows_strategy(4), p in 0u32..20) {
        let a = stochastic(a);
        prop_assume!(a.is_row_stochastic(1e-9));
        let (mut out, mut scratch) = (SparseMatrix::default(), PowerScratch::default());
        for p in [p, 1, p + 3] {
            a.power_into(p, &mut out, &mut scratch);
            prop_assert!(out.is_row_stochastic(1e-6));
            prop_assert_eq!(bits(&out.to_dense()), bits(&dense_power(&a.to_dense(), p)));
            if p == 1 {
                prop_assert_eq!(&out, &a);
            }
        }
    }

    /// Smoothing is the entrywise convex combination: stochastic, bounded
    /// by its endpoints, and applied once per step.
    #[test]
    fn smoothing_is_bounded(
        a in rows_strategy(3), b in rows_strategy(3), w in 0.0f64..=1.0, steps in 1u64..4,
    ) {
        let (a, b) = (stochastic(a), stochastic(b));
        let mut l = a.clone();
        l.smooth_towards(&b, w, steps);
        prop_assert!(l.is_row_stochastic(1e-6));
        for i in 0..3 {
            for j in 0..3 {
                let mut want = a.get(i, j);
                for _ in 0..steps {
                    want = (1.0 - w) * want + w * b.get(i, j);
                }
                prop_assert_eq!(l.get(i, j).to_bits(), want.to_bits());
                let lo = a.get(i, j).min(b.get(i, j)) - 1e-12;
                let hi = a.get(i, j).max(b.get(i, j)) + 1e-12;
                prop_assert!((lo..=hi).contains(&l.get(i, j)));
            }
        }
    }

    /// The Markov model always returns a probability, whatever it observed.
    #[test]
    fn predictions_are_probabilities(
        transitions in proptest::collection::vec((0u32..6, 0u32..6), 0..300),
        delta in 0usize..6,
        events_left in -10i64..500,
    ) {
        let mut model = MarkovModel::new(5, MarkovConfig { rho: 16, ..Default::default() });
        model.observe_batch(&transitions);
        model.refresh_if_due();
        let p = model.completion_probability(delta, events_left);
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
    }

    /// δ = 0 means the pattern already completed: probability 1 regardless
    /// of history.
    #[test]
    fn zero_delta_is_certain(
        transitions in proptest::collection::vec((0u32..4, 0u32..4), 0..100),
    ) {
        let mut model = MarkovModel::new(3, MarkovConfig { rho: 8, ..Default::default() });
        model.observe_batch(&transitions);
        model.refresh_if_due();
        prop_assert!(model.completion_probability(0, 10) > 0.999);
    }

    /// The sparse predictor (completion-probability columns advanced on
    /// demand via v_{i+1} = T^ℓ·v_i) is output-identical to the dense
    /// matrix-power formulation, whatever transitions were observed and
    /// however the refreshes were interleaved.
    #[test]
    fn vectorized_predictor_matches_matrix_powers(
        rounds in proptest::collection::vec(
            proptest::collection::vec((0u32..6, 0u32..6), 0..60), 0..5),
        delta in 0usize..6,
        events_left in -5i64..400,
    ) {
        let config = MarkovConfig { rho: 16, ell: 5, max_levels: 24, ..Default::default() };
        let mut model = MarkovModel::new(5, config.clone());
        // Refresh history: each round of observations is followed by a
        // refresh opportunity, so the equivalence holds across arbitrary
        // smoothing states, not just the prior.
        for round in &rounds {
            model.observe_batch(round);
            model.refresh_if_due();
        }
        let fast = model.completion_probability(delta, events_left);
        let slow = completion_probability_via_matrix_powers(&model, &config, delta, events_left);
        prop_assert!((fast - slow).abs() <= 1e-9, "fast {fast} vs slow {slow}");
    }

    /// More remaining events never decrease the completion probability
    /// (reaching the absorbing state is monotone in horizon length).
    #[test]
    fn monotone_in_horizon(
        transitions in proptest::collection::vec((0u32..4, 0u32..4), 0..200),
        delta in 1usize..4,
    ) {
        let mut model = MarkovModel::new(3, MarkovConfig { rho: 16, ..Default::default() });
        // Make observed transitions monotone toward completion: δ never
        // increases within a match (the matcher only moves δ downward or
        // abandons), so filter the arbitrary pairs accordingly.
        let monotone: Vec<(u32, u32)> =
            transitions.into_iter().filter(|(a, b)| b <= a).collect();
        model.observe_batch(&monotone);
        model.refresh_if_due();
        let mut last = 0.0f64;
        for n in [1i64, 5, 20, 80, 320] {
            let p = model.completion_probability(delta, n);
            prop_assert!(p >= last - 1e-9, "p({n}) = {p} < {last}");
            last = p;
        }
    }
}

#[test]
fn vectorized_predictor_matches_matrix_powers_on_grid() {
    // Deterministic (δ × events_left × refresh-history) grid, denser than
    // the property sweep and checked at every refresh depth: after each
    // refresh the maintained vectors must agree with the dense powers at
    // every state and horizon — including the interpolation endpoints
    // (multiples of ℓ), their neighbours, and the saturation tail.
    let config = MarkovConfig {
        rho: 8,
        ell: 4,
        max_levels: 16,
        ..Default::default()
    };
    let mut model = MarkovModel::new(4, config.clone());
    let horizons: Vec<i64> = vec![-3, 0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000];
    let assert_grid = |m: &MarkovModel, history: usize| {
        for delta in 0..=4usize {
            for &n in &horizons {
                let fast = m.completion_probability(delta, n);
                let slow = completion_probability_via_matrix_powers(m, &config, delta, n);
                assert!(
                    (fast - slow).abs() <= 1e-9,
                    "history={history} delta={delta} n={n}: {fast} vs {slow}"
                );
            }
        }
    };
    assert_grid(&model, 0);
    // Refresh history: advancing, stalling and mixed rounds, each ending
    // in one or more smoothing steps.
    let rounds: Vec<Vec<(u32, u32)>> = vec![
        (0..8).map(|i| (4 - (i % 4), 3 - (i % 4))).collect(),
        (0..24)
            .map(|i| (3, if i % 3 == 0 { 3 } else { 2 }))
            .collect(),
        (0..8).map(|i| (2 - (i % 2), 2 - (i % 2))).collect(),
        (0..16).map(|i| (1, (i % 2) as u32)).collect(),
    ];
    for (history, round) in rounds.iter().enumerate() {
        model.observe_batch(round);
        model.refresh_if_due();
        assert_grid(&model, history + 1);
    }
}

#[test]
fn dense_worst_case_is_correct() {
    // Every (from, to) pair observed: the sparse rows fill completely and
    // the kernels degrade to the dense computation, not to a wrong answer
    // or a panic.
    let states = 24u32;
    let config = MarkovConfig {
        rho: u64::from(states * states),
        ell: 6,
        max_levels: 12,
        ..Default::default()
    };
    let mut model = MarkovModel::new(states as usize - 1, config.clone());
    for round in 0..3 {
        let mut all_pairs = Vec::new();
        for from in 0..states {
            for to in 0..states {
                // Unequal weights: pair (from, to) appears 1–3 times.
                all_pairs.extend(vec![(from, to); 1 + ((from + 2 * to + round) % 3) as usize]);
            }
        }
        model.observe_batch(&all_pairs);
        assert!(model.refresh_if_due());
        assert_eq!(model.t1().nnz(), (states * states) as usize);
        assert_eq!(model.t_ell_nnz(), (states * states) as usize);
        assert!(model.t1().is_row_stochastic(1e-12));
        for delta in 0..states as usize {
            for n in [1i64, 5, 6, 7, 40, 71, 72, 500] {
                let fast = model.completion_probability(delta, n);
                let slow = completion_probability_via_matrix_powers(&model, &config, delta, n);
                assert!(
                    (fast - slow).abs() <= 1e-9,
                    "round={round} delta={delta} n={n}: {fast} vs {slow}"
                );
            }
        }
    }
}

#[test]
fn model_learns_the_two_extremes() {
    // Always-advancing patterns → probability near 1 with enough horizon;
    // never-advancing patterns → probability near 0.
    let mut always = MarkovModel::new(
        3,
        MarkovConfig {
            rho: 4,
            ..Default::default()
        },
    );
    for _ in 0..64 {
        always.observe(3, 2);
        always.observe(2, 1);
        always.observe(1, 0);
    }
    always.refresh_if_due();
    assert!(always.completion_probability(3, 50) > 0.95);

    // The uninformative prior decays geometrically with each smoothing
    // refresh (the splitter refreshes every maintenance cycle), so feed the
    // observations in rounds.
    let mut never = MarkovModel::new(
        3,
        MarkovConfig {
            rho: 4,
            ..Default::default()
        },
    );
    for _ in 0..16 {
        for _ in 0..4 {
            never.observe(3, 3);
            never.observe(2, 2);
            never.observe(1, 1);
        }
        never.refresh_if_due();
    }
    assert!(never.completion_probability(3, 50) < 0.2);
}
