//! Sparse row kernel for the Markov prediction model.
//!
//! The completion-distance chain is close to bidiagonal: from δ a partial
//! match advances to δ − 1 or stays, so the transition matrix `T1` carries
//! about two entries per row and `T^ℓ` about ℓ + 1. [`SparseMatrix`] stores
//! each row as `(column, value)` pairs sorted by column and every kernel
//! walks stored entries **in ascending column order** — the order in which
//! a dense row-major kernel adds the same terms. Skipped entries are exact
//! zeros, which change no partial sum, so results are bit-identical to the
//! dense formulation (the integration suite holds the two together).
//!
//! Every operation writes into a caller-owned output or works in place, and
//! `clear`ed rows keep their capacity: once the buffers have grown to the
//! model's support, a statistics refresh allocates nothing.

/// Entries of a smoothed matrix below this are flushed to exact zero
/// (dropped from the row). Exponential smoothing multiplies a transition
/// that is no longer observed by `1 − α` forever; without a floor the entry
/// decays into the subnormal range (where arithmetic is several times
/// slower) and the support never shrinks. `1e-30` is far below one ulp of
/// any probability the scheduler compares, and `(1e-30)^10` is still a
/// normal `f64`, so products of floor-sized entries stay out of the
/// subnormal range at the default ℓ.
pub const FLUSH_FLOOR: f64 = 1e-30;

/// A square sparse matrix of `f64`; rows hold `(column, value)` sorted by
/// column, absent entries are zero.
///
/// Rows index the *from* state, columns the *to* state:
/// `m.get(i, j) = P(i → j)` for stochastic matrices.
///
/// # Example
///
/// ```
/// use spectre_core::matrix::SparseMatrix;
/// let mut m = SparseMatrix::zeros(2);
/// m.add(0, 0, 1.0);
/// m.add(1, 0, 0.5);
/// m.add(1, 1, 0.5);
/// let (mut sq, mut acc) = (SparseMatrix::default(), Vec::new());
/// m.multiply_into(&m, &mut sq, &mut acc);
/// assert_eq!(sq.get(1, 0), 0.75);
/// assert_eq!(sq.nnz(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseMatrix {
    rows: Vec<Vec<(u32, f64)>>,
}

/// Buffers [`SparseMatrix::power_into`] reuses across calls.
#[derive(Debug, Default)]
pub struct PowerScratch {
    base: SparseMatrix,
    tmp: SparseMatrix,
    acc: Vec<f64>,
}

impl SparseMatrix {
    /// Zero matrix of dimension `n × n` (no stored entries).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn zeros(n: usize) -> SparseMatrix {
        assert!(n > 0, "matrix dimension must be positive");
        SparseMatrix {
            rows: vec![Vec::new(); n],
        }
    }

    /// Identity matrix of dimension `n × n`.
    pub fn identity(n: usize) -> SparseMatrix {
        let mut m = SparseMatrix::zeros(n);
        m.set_identity();
        m
    }

    fn set_identity(&mut self) {
        for (i, row) in self.rows.iter_mut().enumerate() {
            row.clear();
            row.push((i as u32, 1.0));
        }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.rows.len()
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Entry `(i, j)`; zero when not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let row = &self.rows[i];
        match row.binary_search_by_key(&(j as u32), |e| e.0) {
            Ok(at) => row[at].1,
            Err(_) => 0.0,
        }
    }

    /// Adds `v` to entry `(i, j)`, storing it when absent (this is how
    /// transition counts accumulate).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        assert!(j < self.rows.len(), "column out of range");
        let row = &mut self.rows[i];
        match row.binary_search_by_key(&(j as u32), |e| e.0) {
            Ok(at) => row[at].1 += v,
            Err(at) => row.insert(at, (j as u32, v)),
        }
    }

    /// Drops every stored entry; rows keep their capacity.
    pub fn clear(&mut self) {
        self.rows.iter_mut().for_each(Vec::clear);
    }

    /// Scales every entry by `s` in place (used to carry a remainder
    /// fraction of accumulated transition counts across a refresh).
    pub fn scale(&mut self, s: f64) {
        for e in self.rows.iter_mut().flatten() {
            e.1 *= s;
        }
    }

    /// Dense row-major copy (for inspection and the tests' dense oracle).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let n = self.dim();
        let dense_row = |row: &Vec<(u32, f64)>| {
            let mut out = vec![0.0; n];
            for &(j, v) in row {
                out[j as usize] = v;
            }
            out
        };
        self.rows.iter().map(dense_row).collect()
    }

    /// Writes `self × rhs` into `out`; `acc` is a dense scratch row.
    ///
    /// Each output entry accumulates its products in ascending order of
    /// the inner index, as the dense kernel does.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn multiply_into(&self, rhs: &SparseMatrix, out: &mut SparseMatrix, acc: &mut Vec<f64>) {
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch");
        let n = self.dim();
        acc.clear();
        acc.resize(n, 0.0);
        out.rows.resize_with(n, Vec::new);
        for (row, out_row) in self.rows.iter().zip(&mut out.rows) {
            out_row.clear();
            // Column extent the products of this row can touch.
            let (mut lo, mut hi) = (n, 0);
            for &(k, a) in row {
                let rhs_row = &rhs.rows[k as usize];
                let (Some(first), Some(last)) = (rhs_row.first(), rhs_row.last()) else {
                    continue;
                };
                lo = lo.min(first.0 as usize);
                hi = hi.max(last.0 as usize + 1);
                for &(j, b) in rhs_row {
                    acc[j as usize] += a * b;
                }
            }
            for (j, slot) in acc.iter_mut().enumerate().take(hi).skip(lo) {
                let v = std::mem::take(slot);
                if v != 0.0 {
                    out_row.push((j as u32, v));
                }
            }
        }
    }

    /// Writes `self^p` into `out` by repeated squaring, multiplying in the
    /// order `(((I·B₀)·B₁)·…)` over the set bits' squarings `Bᵢ` (`p == 0`
    /// gives the identity).
    pub fn power_into(&self, p: u32, out: &mut SparseMatrix, scratch: &mut PowerScratch) {
        let PowerScratch { base, tmp, acc } = scratch;
        let mut p = p;
        // `out` is the identity until the first set bit, `base` is `self`
        // until the first squaring; neither is materialized.
        let (mut out_is_identity, mut base_is_self) = (true, true);
        while p > 0 {
            if p & 1 == 1 {
                let b = if base_is_self { self } else { &*base };
                if out_is_identity {
                    out.rows.clone_from(&b.rows);
                    out_is_identity = false;
                } else {
                    out.multiply_into(b, tmp, acc);
                    std::mem::swap(out, tmp);
                }
            }
            p >>= 1;
            if p > 0 {
                let b = if base_is_self { self } else { &*base };
                b.multiply_into(b, tmp, acc);
                std::mem::swap(base, tmp);
                base_is_self = false;
            }
        }
        if out_is_identity {
            out.rows.resize_with(self.dim(), Vec::new);
            out.set_identity();
        }
    }

    /// Writes the matrix–column-vector product `self × v` into `out`.
    ///
    /// This is the kernel behind the Markov model's completion levels:
    /// keeping only the completion-probability *columns* `T^{iℓ}·e₀` and
    /// advancing them with one product per level costs O(nnz) per level.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    ///
    /// # Example
    ///
    /// ```
    /// use spectre_core::matrix::SparseMatrix;
    /// let mut m = SparseMatrix::zeros(2);
    /// m.add(0, 0, 1.0);
    /// m.add(1, 0, 0.5);
    /// m.add(1, 1, 0.5);
    /// let mut out = [0.0; 2];
    /// m.mul_col_into(&[1.0, 0.0], &mut out);
    /// assert_eq!(out, [1.0, 0.5]);
    /// ```
    pub fn mul_col_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(self.dim(), v.len(), "dimension mismatch");
        assert_eq!(self.dim(), out.len(), "dimension mismatch");
        for (row, o) in self.rows.iter().zip(out) {
            *o = row.iter().fold(0.0, |s, &(j, a)| s + a * v[j as usize]);
        }
    }

    /// Writes the row-normalized copy of `self` into `out`; rows summing
    /// to 0 become the identity row (state maps to itself).
    pub fn normalize_into(&self, out: &mut SparseMatrix) {
        out.rows.resize_with(self.dim(), Vec::new);
        for (i, (row, out_row)) in self.rows.iter().zip(&mut out.rows).enumerate() {
            out_row.clear();
            let sum = row.iter().fold(0.0, |s, e| s + e.1);
            if sum > 0.0 {
                out_row.extend(row.iter().map(|&(j, v)| (j, v / sum)));
            } else {
                out_row.push((i as u32, 1.0));
            }
        }
    }

    /// Applies `steps` exponential-smoothing steps
    /// `self = (1 − w)·self + w·target` in place, then drops entries below
    /// [`FLUSH_FLOOR`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn smooth_towards(&mut self, target: &SparseMatrix, w: f64, steps: u64) {
        assert_eq!(self.dim(), target.dim(), "dimension mismatch");
        for (i, t_row) in target.rows.iter().enumerate() {
            // Widen the support to the union once; every step then runs in
            // place over it.
            for &(j, _) in t_row {
                self.add(i, j as usize, 0.0);
            }
            let row = &mut self.rows[i];
            for _ in 0..steps {
                let mut t = t_row.iter().peekable();
                for (j, a) in row.iter_mut() {
                    let b = t.next_if(|e| e.0 == *j).map_or(0.0, |e| e.1);
                    *a = (1.0 - w) * *a + w * b;
                }
            }
            row.retain(|e| e.1 >= FLUSH_FLOOR);
        }
    }

    /// `true` if every row sums to 1 within `eps` and all entries are
    /// non-negative.
    pub fn is_row_stochastic(&self, eps: f64) -> bool {
        self.rows.iter().all(|row| {
            row.iter().all(|e| e.1 >= -eps)
                && (row.iter().map(|e| e.1).sum::<f64>() - 1.0).abs() <= eps
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state_chain(p: f64) -> SparseMatrix {
        // state 1 → 0 with probability p; state 0 absorbing.
        let mut m = SparseMatrix::zeros(2);
        m.add(0, 0, 1.0);
        for (j, v) in [(0, p), (1, 1.0 - p)] {
            if v > 0.0 {
                m.add(1, j, v);
            }
        }
        m
    }

    fn product(a: &SparseMatrix, b: &SparseMatrix) -> SparseMatrix {
        let mut out = SparseMatrix::default();
        a.multiply_into(b, &mut out, &mut Vec::new());
        out
    }

    fn power(m: &SparseMatrix, p: u32) -> SparseMatrix {
        let mut out = SparseMatrix::default();
        m.power_into(p, &mut out, &mut PowerScratch::default());
        out
    }

    #[test]
    fn identity_multiplication_is_neutral() {
        let m = two_state_chain(0.3);
        let id = SparseMatrix::identity(2);
        assert_eq!(product(&m, &id), m);
        assert_eq!(product(&id, &m), m);
    }

    #[test]
    fn power_matches_repeated_multiplication() {
        let m = two_state_chain(0.25);
        let mut acc = SparseMatrix::identity(2);
        for p in 0..8 {
            assert_eq!(power(&m, p), acc, "power {p}");
            acc = product(&acc, &m);
        }
    }

    #[test]
    fn absorbing_chain_converges() {
        let m64 = power(&two_state_chain(0.5), 64);
        // After many steps, state 1 is absorbed into 0 almost surely.
        assert!((m64.get(1, 0) - 1.0).abs() < 1e-9);
        assert!(m64.is_row_stochastic(1e-9));
    }

    #[test]
    fn smoothing_interpolates_entrywise() {
        let a = two_state_chain(0.0);
        let b = two_state_chain(1.0);
        let mut mid = a.clone();
        mid.smooth_towards(&b, 0.4, 1);
        assert!((mid.get(1, 0) - 0.4).abs() < 1e-12);
        assert!((mid.get(1, 1) - 0.6).abs() < 1e-12);
        let mut unchanged = a.clone();
        unchanged.smooth_towards(&b, 0.0, 3);
        assert_eq!(unchanged, a, "the widened support is flushed again");
        let mut replaced = a.clone();
        replaced.smooth_towards(&b, 1.0, 1);
        assert_eq!(replaced, b);
    }

    #[test]
    fn smoothing_flushes_decayed_entries() {
        let mut m = two_state_chain(0.5);
        let target = two_state_chain(0.0);
        m.smooth_towards(&target, 0.7, 50);
        assert!(m.get(1, 0) > 0.0, "0.5·0.3^50 is above the floor");
        m.smooth_towards(&target, 0.7, 10);
        assert_eq!(m, target, "below the floor the entry is dropped");
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn normalize_handles_empty_rows() {
        let mut counts = SparseMatrix::zeros(3);
        counts.add(0, 2, 6.0);
        counts.add(0, 1, 1.0);
        counts.add(0, 1, 1.0);
        let mut m = SparseMatrix::default();
        counts.normalize_into(&mut m);
        assert!((m.get(0, 1) - 0.25).abs() < 1e-12);
        assert!((m.get(0, 2) - 0.75).abs() < 1e-12);
        // empty row 1 becomes identity row
        assert_eq!(m.get(1, 1), 1.0);
        assert!(m.is_row_stochastic(1e-12));
        counts.clear();
        assert_eq!(counts.nnz(), 0);
    }

    #[test]
    fn stochasticity_is_preserved_by_products() {
        let a = two_state_chain(0.3);
        let b = two_state_chain(0.7);
        assert!(product(&a, &b).is_row_stochastic(1e-12));
        assert!(power(&a, 17).is_row_stochastic(1e-9));
        let mut mixed = a.clone();
        mixed.smooth_towards(&b, 0.5, 1);
        assert!(mixed.is_row_stochastic(1e-12));
    }

    #[test]
    fn mul_col_matches_full_product() {
        let a = two_state_chain(0.3);
        let b = two_state_chain(0.7);
        let ab = product(&a, &b);
        for col in 0..2 {
            let v: Vec<f64> = (0..2).map(|i| b.get(i, col)).collect();
            let mut got = [0.0; 2];
            a.mul_col_into(&v, &mut got);
            for (i, g) in got.iter().enumerate() {
                assert!((g - ab.get(i, col)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn scale_and_dense_copy() {
        let mut m = two_state_chain(0.25);
        m.scale(0.5);
        assert_eq!(m.to_dense(), vec![vec![0.5, 0.0], vec![0.125, 0.375]]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_mul_col_rejected() {
        let mut out = [0.0; 2];
        SparseMatrix::identity(2).mul_col_into(&[1.0, 0.0, 0.0], &mut out);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dimension_rejected() {
        let _ = SparseMatrix::zeros(0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_multiply_rejected() {
        let _ = product(&SparseMatrix::identity(2), &SparseMatrix::identity(3));
    }
}
