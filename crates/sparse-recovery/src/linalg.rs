//! Small dense complex linear algebra.
//!
//! Every system solved here is *small*: OMP's refit and the significance
//! prune work over the current support (at most `2K̂` columns), and the data
//! phase's channel refits over the tags it has locked.  [`GrowingCholesky`]
//! factors the real Gram of binary columns one column at a time; it is OMP's
//! refit and the prune's leave-one-out scorer.  [`solve_real_square`] is
//! Gaussian elimination with partial pivoting for the data phase's channel
//! refits (a real Gram, a complex right-hand side), and [`solve_square`] the
//! same elimination for a complex matrix, which the tests hold it to.

use backscatter_phy::complex::Complex;

use crate::{RecoveryError, RecoveryResult};

/// A dense complex matrix in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl ComplexMatrix {
    /// Creates an all-zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access (panics only on an out-of-range index, which is a caller
    /// bug rather than a data-dependent condition).
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Complex {
        self.data[row * self.cols + col]
    }

    /// Sets an element.
    pub fn set(&mut self, row: usize, col: usize, value: Complex) {
        self.data[row * self.cols + col] = value;
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::DimensionMismatch`] if `x` has the wrong
    /// length.
    pub fn mul_vec(&self, x: &[Complex]) -> RecoveryResult<Vec<Complex>> {
        if x.len() != self.cols {
            return Err(RecoveryError::DimensionMismatch {
                expected: self.cols,
                actual: x.len(),
            });
        }
        Ok((0..self.rows)
            .map(|r| {
                (0..self.cols)
                    .map(|c| self.get(r, c) * x[c])
                    .sum::<Complex>()
            })
            .collect())
    }

    /// Conjugate-transpose–vector product `Aᴴ·y`.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::DimensionMismatch`] if `y` has the wrong
    /// length.
    pub fn mul_vec_adjoint(&self, y: &[Complex]) -> RecoveryResult<Vec<Complex>> {
        if y.len() != self.rows {
            return Err(RecoveryError::DimensionMismatch {
                expected: self.rows,
                actual: y.len(),
            });
        }
        Ok((0..self.cols)
            .map(|c| {
                (0..self.rows)
                    .map(|r| self.get(r, c).conj() * y[r])
                    .sum::<Complex>()
            })
            .collect())
    }
}

/// Solves the square complex system `M·x = b` by Gaussian elimination with
/// partial pivoting.
///
/// # Errors
///
/// Returns [`RecoveryError::DimensionMismatch`] for inconsistent sizes and
/// [`RecoveryError::SingularSystem`] when a pivot vanishes.
pub fn solve_square(m: &ComplexMatrix, b: &[Complex]) -> RecoveryResult<Vec<Complex>> {
    let n = m.rows();
    if m.cols() != n {
        return Err(RecoveryError::DimensionMismatch {
            expected: n,
            actual: m.cols(),
        });
    }
    if b.len() != n {
        return Err(RecoveryError::DimensionMismatch {
            expected: n,
            actual: b.len(),
        });
    }
    // Augmented working copy.
    let mut a: Vec<Vec<Complex>> = (0..n)
        .map(|r| (0..n).map(|c| m.get(r, c)).collect())
        .collect();
    let mut rhs = b.to_vec();

    for col in 0..n {
        // Partial pivoting on magnitude.
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .unwrap_or(core::cmp::Ordering::Equal)
            })
            .unwrap_or(col);
        if a[pivot_row][col].abs() < 1e-12 {
            return Err(RecoveryError::SingularSystem);
        }
        a.swap(col, pivot_row);
        rhs.swap(col, pivot_row);

        let pivot = a[col][col];
        for row in (col + 1)..n {
            let factor = a[row][col] / pivot;
            if factor.abs() == 0.0 {
                continue;
            }
            for k in col..n {
                let delta = factor * a[col][k];
                a[row][k] -= delta;
            }
            let delta = factor * rhs[col];
            rhs[row] -= delta;
        }
    }

    // Back substitution.
    let mut x = vec![Complex::ZERO; n];
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for col in (row + 1)..n {
            acc -= a[row][col] * x[col];
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

/// Solves `M·x = b` for a real square matrix `M`, given as its rows, and a
/// complex right-hand side, by Gaussian elimination with partial pivoting.
///
/// This is [`solve_square`] on the complex embedding of `M` (imaginary parts
/// zero) with the zero products left out: it picks the same pivots and
/// computes every nonzero value with the same operations in the same order
/// — the magnitude `√(a·a)`, and division by a pivot `p` as multiplication
/// by `p/(p·p)`, as complex division does — so the two results are equal
/// bit for bit, up to the sign of a zero.  It does a quarter of the
/// multiplications on half the memory.
///
/// # Errors
///
/// Returns [`RecoveryError::DimensionMismatch`] for inconsistent sizes and
/// [`RecoveryError::SingularSystem`] when a pivot vanishes.
pub fn solve_real_square(mut m: Vec<Vec<f64>>, b: &[Complex]) -> RecoveryResult<Vec<Complex>> {
    let n = m.len();
    if let Some(row) = m.iter().find(|row| row.len() != n) {
        return Err(RecoveryError::DimensionMismatch {
            expected: n,
            actual: row.len(),
        });
    }
    if b.len() != n {
        return Err(RecoveryError::DimensionMismatch {
            expected: n,
            actual: b.len(),
        });
    }
    // `Complex::abs` of a real value, `√(a² + 0²)`.
    let magnitude = |a: f64| (a * a).sqrt();
    // `Complex::inv` of a real pivot, never zero here (its magnitude passed
    // the singularity test).
    let inverse = |p: f64| p / (p * p);
    let mut rhs = b.to_vec();

    for col in 0..n {
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                magnitude(m[i][col])
                    .partial_cmp(&magnitude(m[j][col]))
                    .unwrap_or(core::cmp::Ordering::Equal)
            })
            .unwrap_or(col);
        if magnitude(m[pivot_row][col]) < 1e-12 {
            return Err(RecoveryError::SingularSystem);
        }
        m.swap(col, pivot_row);
        rhs.swap(col, pivot_row);

        let (upper, lower) = m.split_at_mut(col + 1);
        let pivot = &upper[col];
        let pivot_inverse = inverse(pivot[col]);
        for (row, entries) in (col + 1..n).zip(lower) {
            let factor = entries[col] * pivot_inverse;
            if magnitude(factor) == 0.0 {
                continue;
            }
            for (entry, &above) in entries[col..].iter_mut().zip(&pivot[col..]) {
                *entry -= factor * above;
            }
            let delta = rhs[col].scale(factor);
            rhs[row] -= delta;
        }
    }

    let mut x = vec![Complex::ZERO; n];
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for col in (row + 1)..n {
            acc -= x[col].scale(m[row][col]);
        }
        x[row] = acc.scale(inverse(m[row][row]));
    }
    Ok(x)
}

/// Solves the least-squares problem `min ‖A·x − y‖₂` for a (possibly tall)
/// matrix `A` via the normal equations `AᴴA·x = Aᴴy`: the dense reference
/// the tests pin [`GrowingCholesky`] and the leave-one-out prune to.
///
/// A tiny Tikhonov term (`1e-12`) keeps nearly-collinear supports solvable,
/// which matters when two tags happen to pick very similar transmit patterns.
///
/// # Errors
///
/// Propagates dimension mismatches and singular systems.
#[cfg(test)]
pub(crate) fn solve_least_squares(
    a: &ComplexMatrix,
    y: &[Complex],
) -> RecoveryResult<Vec<Complex>> {
    if y.len() != a.rows() {
        return Err(RecoveryError::DimensionMismatch {
            expected: a.rows(),
            actual: y.len(),
        });
    }
    let n = a.cols();
    let mut gram = ComplexMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mut acc = Complex::ZERO;
            for r in 0..a.rows() {
                acc += a.get(r, i).conj() * a.get(r, j);
            }
            if i == j {
                acc += Complex::new(1e-12, 0.0);
            }
            gram.set(i, j, acc);
        }
    }
    let rhs = a.mul_vec_adjoint(y)?;
    solve_square(&gram, &rhs)
}

/// An incrementally grown Cholesky factorization `G = L·Lᵀ` of a real
/// symmetric positive-definite Gram matrix, solved against complex
/// right-hand sides.
///
/// OMP over a binary sensing matrix has a *real* Gram (entries are
/// shared-row counts), so growing the support by one column costs one
/// forward substitution (`O(s²)`) instead of rebuilding and re-eliminating
/// the whole normal system (`O(m·s² + s³)`), and each refit is two
/// triangular solves.
#[derive(Debug, Clone, Default)]
pub struct GrowingCholesky {
    /// Lower-triangular factor; row `i` stores `L[i][0..=i]`.
    rows: Vec<Vec<f64>>,
}

impl GrowingCholesky {
    /// An empty factorization (size 0).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current size `s` of the factored Gram.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no columns have been absorbed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Grows the factorization by one column of the Gram: `cross[j]` is the
    /// inner product of the new column with existing column `j`, and `diag`
    /// its squared norm (plus any ridge).  Returns `false` — leaving the
    /// factorization unchanged — when the new column is numerically
    /// dependent on the existing ones.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::DimensionMismatch`] unless `cross` has one
    /// entry per existing column.
    pub fn push(&mut self, cross: &[f64], diag: f64) -> RecoveryResult<bool> {
        let n = self.rows.len();
        if cross.len() != n {
            return Err(RecoveryError::DimensionMismatch {
                expected: n,
                actual: cross.len(),
            });
        }
        let mut w = vec![0.0f64; n + 1];
        for i in 0..n {
            let mut acc = cross[i];
            for j in 0..i {
                acc -= self.rows[i][j] * w[j];
            }
            w[i] = acc / self.rows[i][i];
        }
        let d2 = diag - w[..n].iter().map(|v| v * v).sum::<f64>();
        // NaN (from a degenerate diagonal) must also report "dependent".
        let independent = d2 > diag.abs() * 1e-12;
        if !independent {
            return Ok(false);
        }
        w[n] = d2.sqrt();
        self.rows.push(w);
        Ok(true)
    }

    /// Shrinks the factorization to its first `len` columns (no-op when it
    /// has fewer).  The kept rows are exactly the factor of that leading
    /// block of the Gram, as if only those columns had been pushed.
    pub fn truncate(&mut self, len: usize) {
        self.rows.truncate(len);
    }

    /// Solves `G·x = b` for a complex right-hand side via two triangular
    /// solves (the factor is real, so real and imaginary parts share it).
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::DimensionMismatch`] unless `b` matches the
    /// factored size.
    pub fn solve(&self, b: &[Complex]) -> RecoveryResult<Vec<Complex>> {
        let n = self.rows.len();
        if b.len() != n {
            return Err(RecoveryError::DimensionMismatch {
                expected: n,
                actual: b.len(),
            });
        }
        // Forward: L·z = b.
        let mut z = b.to_vec();
        for i in 0..n {
            let mut acc = z[i];
            for j in 0..i {
                acc -= z[j] * self.rows[i][j];
            }
            z[i] = acc * (1.0 / self.rows[i][i]);
        }
        // Backward: Lᵀ·x = z.
        let mut x = z;
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= x[j] * self.rows[j][i];
            }
            x[i] = acc * (1.0 / self.rows[i][i]);
        }
        Ok(x)
    }

    /// The diagonal of `G⁻¹`, one entry per column — the quantity behind the
    /// exact leave-one-out residual test (`ΔE_j = |v_j|² / (G⁻¹)_{jj}`).
    #[must_use]
    pub fn inverse_diagonal(&self) -> Vec<f64> {
        let n = self.rows.len();
        // (G⁻¹)_{jj} = ‖L⁻¹ e_j‖²: one forward solve per unit vector.
        let mut out = vec![0.0f64; n];
        let mut z = vec![0.0f64; n];
        for col in 0..n {
            z[..col].fill(0.0);
            for i in col..n {
                let mut acc = if i == col { 1.0 } else { 0.0 };
                for j in col..i {
                    acc -= self.rows[i][j] * z[j];
                }
                z[i] = acc / self.rows[i][i];
            }
            out[col] = z[col..].iter().map(|v| v * v).sum();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_prng::{Rng64, Xoshiro256};
    use proptest::prelude::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    /// Draws a random binary design: `cols` row-index sets over `rows` rows
    /// (each non-empty), plus a complex measurement vector.
    fn random_design(seed: u64, rows: usize, cols: usize) -> (Vec<Vec<usize>>, Vec<Complex>) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let columns: Vec<Vec<usize>> = (0..cols)
            .map(|_| {
                let mut rows_of: Vec<usize> = (0..rows).filter(|_| rng.next_f64() < 0.4).collect();
                if rows_of.is_empty() {
                    rows_of.push(rng.next_bounded(rows as u64) as usize);
                }
                rows_of
            })
            .collect();
        let y: Vec<Complex> = (0..rows)
            .map(|_| Complex::new(2.0 * rng.next_f64() - 1.0, 2.0 * rng.next_f64() - 1.0))
            .collect();
        (columns, y)
    }

    /// Dense least-squares residual energy over a set of binary columns.
    fn dense_residual_energy(
        columns: &[Vec<usize>],
        keep: &[usize],
        rows: usize,
        y: &[Complex],
    ) -> f64 {
        if keep.is_empty() {
            return y.iter().map(|s| s.norm_sqr()).sum();
        }
        let mut a = ComplexMatrix::zeros(rows, keep.len());
        for (j, &col) in keep.iter().enumerate() {
            for &r in &columns[col] {
                a.set(r, j, Complex::ONE);
            }
        }
        let v = solve_least_squares(&a, y).unwrap();
        let fit = a.mul_vec(&v).unwrap();
        y.iter().zip(&fit).map(|(&m, &f)| (m - f).norm_sqr()).sum()
    }

    proptest! {
        /// The satellite differential: across random Gram updates the
        /// incrementally grown Cholesky factor must reproduce the dense
        /// normal-equation solve at every intermediate size, and its
        /// inverse diagonal must reproduce the *exact leave-one-out*
        /// residual increase `ΔE_j = |v_j|² / (G⁻¹)_{jj}` that the pruning
        /// relies on — pinned against removing each column and refitting
        /// densely.
        #[test]
        fn growing_cholesky_and_leave_one_out_match_dense_recomputation(
            seed in 0u64..1_000_000,
            rows in 8usize..24,
            cols in 2usize..7,
        ) {
            let (columns, y) = random_design(seed, rows, cols);
            let mut chol = GrowingCholesky::new();
            let mut rhs: Vec<Complex> = Vec::new();
            let mut kept: Vec<usize> = Vec::new();
            for (col, rows_of) in columns.iter().enumerate() {
                let cross: Vec<f64> = kept
                    .iter()
                    .map(|&k| {
                        rows_of
                            .iter()
                            .filter(|r| columns[k].contains(r))
                            .count() as f64
                    })
                    .collect();
                if !chol.push(&cross, rows_of.len() as f64 + 1e-12).unwrap() {
                    // Numerically dependent draw; the factor must be
                    // unchanged and the remaining checks still hold.
                    prop_assert_eq!(chol.len(), kept.len());
                    continue;
                }
                kept.push(col);
                rhs.push(rows_of.iter().map(|&r| y[r]).sum());

                // (a) Incremental refit == dense least squares.
                let values = chol.solve(&rhs).unwrap();
                let mut a = ComplexMatrix::zeros(rows, kept.len());
                for (j, &k) in kept.iter().enumerate() {
                    for &r in &columns[k] {
                        a.set(r, j, Complex::ONE);
                    }
                }
                let dense = solve_least_squares(&a, &y).unwrap();
                for (got, want) in values.iter().zip(&dense) {
                    prop_assert!(
                        (*got - *want).abs() < 1e-7 * (1.0 + want.abs()),
                        "size {}: {:?} vs {:?}", kept.len(), got, want
                    );
                }

                // (b) Exact leave-one-out == dense remove-and-refit.
                let full_energy = dense_residual_energy(&columns, &kept, rows, &y);
                let inv_diag = chol.inverse_diagonal();
                for (j, (&v, &d)) in values.iter().zip(&inv_diag).enumerate() {
                    let without: Vec<usize> = kept
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != j)
                        .map(|(_, &k)| k)
                        .collect();
                    let energy_without = dense_residual_energy(&columns, &without, rows, &y);
                    let dense_delta = energy_without - full_energy;
                    let loo_delta = v.norm_sqr() / d;
                    prop_assert!(
                        (dense_delta - loo_delta).abs() < 1e-6 * (1.0 + dense_delta.abs()),
                        "size {} entry {}: dense {} vs leave-one-out {}",
                        kept.len(), j, dense_delta, loo_delta
                    );
                }
            }
        }
    }

    #[test]
    fn construction_checks_dimensions() {
        let m = ComplexMatrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn mul_vec_and_adjoint() {
        // A = [[1, i], [0, 2]]
        let mut a = ComplexMatrix::zeros(2, 2);
        a.set(0, 0, c(1.0, 0.0));
        a.set(0, 1, c(0.0, 1.0));
        a.set(1, 1, c(2.0, 0.0));
        let x = vec![c(1.0, 0.0), c(1.0, 0.0)];
        let y = a.mul_vec(&x).unwrap();
        assert_eq!(y, vec![c(1.0, 1.0), c(2.0, 0.0)]);
        // Aᴴ·y where y = [1, 1]:  [conj(1)*1 + 0, conj(i)*1 + conj(2)*1] = [1, 2 - i]
        let z = a.mul_vec_adjoint(&[c(1.0, 0.0), c(1.0, 0.0)]).unwrap();
        assert_eq!(z, vec![c(1.0, 0.0), c(2.0, -1.0)]);
        assert!(a.mul_vec(&[Complex::ONE]).is_err());
        assert!(a.mul_vec_adjoint(&[Complex::ONE]).is_err());
    }

    #[test]
    fn solve_square_recovers_known_solution() {
        // Random-ish well-conditioned complex system.
        let mut m = ComplexMatrix::zeros(3, 3);
        let entries = [
            (0, 0, c(2.0, 1.0)),
            (0, 1, c(0.5, -0.5)),
            (0, 2, c(0.0, 0.3)),
            (1, 0, c(-1.0, 0.0)),
            (1, 1, c(3.0, 0.2)),
            (1, 2, c(0.7, 0.0)),
            (2, 0, c(0.0, 0.9)),
            (2, 1, c(0.4, 0.0)),
            (2, 2, c(1.5, -1.0)),
        ];
        for (r, col, v) in entries {
            m.set(r, col, v);
        }
        let x_true = vec![c(1.0, -2.0), c(0.5, 0.5), c(-1.0, 1.0)];
        let b = m.mul_vec(&x_true).unwrap();
        let x = solve_square(&m, &b).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_square_detects_singularity() {
        let mut m = ComplexMatrix::zeros(2, 2);
        m.set(0, 0, c(1.0, 0.0));
        m.set(0, 1, c(2.0, 0.0));
        m.set(1, 0, c(2.0, 0.0));
        m.set(1, 1, c(4.0, 0.0));
        assert_eq!(
            solve_square(&m, &[Complex::ONE, Complex::ONE]),
            Err(RecoveryError::SingularSystem)
        );
    }

    #[test]
    fn solve_real_square_equals_the_complex_solver_bit_for_bit() {
        // Gram-like systems (symmetric, small integer counts plus a Tikhonov
        // diagonal, some singular) and general real ones, against
        // `solve_square` on the complex embedding.  Zeros compare equal
        // whatever their sign.
        let mut rng = Xoshiro256::seed_from_u64(41);
        let mut solved = 0;
        for trial in 0..300 {
            let n = 1 + trial % 12;
            let gram_like = trial % 2 == 0;
            let mut rows = vec![vec![0.0f64; n]; n];
            for i in 0..n {
                for l in 0..n {
                    rows[i][l] = if gram_like {
                        if l < i {
                            rows[l][i]
                        } else {
                            (rng.next_u64() % 6) as f64
                        }
                    } else {
                        rng.next_f64() * 4.0 - 2.0
                    };
                }
                if gram_like {
                    rows[i][i] += 1e-6;
                }
            }
            let b: Vec<Complex> = (0..n)
                .map(|_| c(rng.next_f64() * 10.0 - 5.0, rng.next_f64() * 10.0 - 5.0))
                .collect();
            let mut embedded = ComplexMatrix::zeros(n, n);
            for (i, row) in rows.iter().enumerate() {
                for (l, &v) in row.iter().enumerate() {
                    embedded.set(i, l, c(v, 0.0));
                }
            }
            let real = solve_real_square(rows, &b);
            let complex = solve_square(&embedded, &b);
            assert_eq!(real.is_ok(), complex.is_ok(), "trial {trial}");
            if let (Ok(real), Ok(complex)) = (real, complex) {
                solved += 1;
                for (a, e) in real.iter().zip(&complex) {
                    assert!(
                        a.re == e.re && a.im == e.im,
                        "trial {trial}: {a:?} vs {e:?}"
                    );
                }
            }
        }
        assert!(solved > 250, "setup: most systems are solvable ({solved})");
    }

    #[test]
    fn solve_real_square_checks_dimensions() {
        assert!(solve_real_square(vec![vec![1.0, 0.0]; 2], &[Complex::ONE]).is_err());
        assert!(solve_real_square(vec![vec![1.0]; 2], &[Complex::ONE; 2]).is_err());
        assert_eq!(
            solve_real_square(vec![vec![1.0, 2.0], vec![2.0, 4.0]], &[Complex::ONE; 2]),
            Err(RecoveryError::SingularSystem)
        );
    }

    #[test]
    fn solve_square_checks_dimensions() {
        let m = ComplexMatrix::zeros(2, 3);
        assert!(solve_square(&m, &[Complex::ONE, Complex::ONE]).is_err());
        let m = ComplexMatrix::zeros(2, 2);
        assert!(solve_square(&m, &[Complex::ONE]).is_err());
    }

    #[test]
    fn least_squares_matches_exact_solution_for_tall_system() {
        // A is 4×2 binary, x_true complex; y = A x_true exactly, so LS must
        // recover x_true.
        let mut a = ComplexMatrix::zeros(4, 2);
        a.set(0, 0, Complex::ONE);
        a.set(1, 0, Complex::ONE);
        a.set(1, 1, Complex::ONE);
        a.set(2, 1, Complex::ONE);
        a.set(3, 0, Complex::ONE);
        let x_true = vec![c(0.8, -0.3), c(-0.2, 0.6)];
        let y = a.mul_vec(&x_true).unwrap();
        let x = solve_least_squares(&a, &y).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!((*got - *want).abs() < 1e-6);
        }
        assert!(solve_least_squares(&a, &[Complex::ONE]).is_err());
    }

    #[test]
    fn growing_cholesky_matches_direct_least_squares() {
        // Binary design matrix, complex rhs: the incrementally grown factor
        // must reproduce the direct normal-equation solve at every size.
        let rows = 12usize;
        let cols = [
            vec![0usize, 2, 3, 7, 9],
            vec![1, 2, 4, 8, 11],
            vec![0, 1, 5, 6, 10],
            vec![3, 4, 5, 9, 10, 11],
        ];
        let y: Vec<Complex> = (0..rows)
            .map(|r| c(0.3 * r as f64 - 1.0, 0.1 * (r * r % 7) as f64))
            .collect();
        let mut chol = GrowingCholesky::new();
        assert!(chol.is_empty());
        let mut rhs: Vec<Complex> = Vec::new();
        for s in 0..cols.len() {
            // Cross inner products with already-absorbed columns.
            let cross: Vec<f64> = (0..s)
                .map(|j| cols[s].iter().filter(|r| cols[j].contains(r)).count() as f64)
                .collect();
            assert!(chol.push(&cross, cols[s].len() as f64 + 1e-12).unwrap());
            rhs.push(cols[s].iter().map(|&r| y[r]).sum());
            let x = chol.solve(&rhs).unwrap();

            // Direct reference over the same support.
            let mut a = ComplexMatrix::zeros(rows, s + 1);
            for (j, col) in cols.iter().take(s + 1).enumerate() {
                for &r in col {
                    a.set(r, j, Complex::ONE);
                }
            }
            let reference = solve_least_squares(&a, &y).unwrap();
            for (got, want) in x.iter().zip(&reference) {
                assert!((*got - *want).abs() < 1e-8, "size {}", s + 1);
            }
        }
        assert_eq!(chol.len(), cols.len());
    }

    #[test]
    fn growing_cholesky_rejects_dependent_columns_and_checks_dims() {
        let mut chol = GrowingCholesky::new();
        assert!(chol.push(&[], 2.0).unwrap());
        // A duplicate of the first column: cross = diag = 2 ⇒ dependent.
        assert!(!chol.push(&[2.0], 2.0).unwrap());
        assert_eq!(chol.len(), 1);
        assert!(chol.push(&[2.0, 0.0], 2.0).is_err());
        assert!(chol.solve(&[Complex::ONE, Complex::ONE]).is_err());
    }

    #[test]
    fn inverse_diagonal_matches_explicit_inverse() {
        // G = [[2, 1], [1, 3]] ⇒ G⁻¹ = 1/5·[[3, −1], [−1, 2]].
        let mut chol = GrowingCholesky::new();
        assert!(chol.push(&[], 2.0).unwrap());
        assert!(chol.push(&[1.0], 3.0).unwrap());
        let diag = chol.inverse_diagonal();
        assert!((diag[0] - 3.0 / 5.0).abs() < 1e-12);
        assert!((diag[1] - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_minimizes_residual_in_noise() {
        // With noise, the LS solution must have a residual no larger than the
        // truth's residual.
        let mut a = ComplexMatrix::zeros(6, 2);
        for r in 0..6 {
            a.set(r, r % 2, Complex::ONE);
            if r % 3 == 0 {
                a.set(r, (r + 1) % 2, Complex::ONE);
            }
        }
        let x_true = vec![c(1.0, 0.0), c(0.0, 1.0)];
        let mut y = a.mul_vec(&x_true).unwrap();
        for (i, v) in y.iter_mut().enumerate() {
            *v += c(0.01 * i as f64, -0.005 * i as f64);
        }
        let x = solve_least_squares(&a, &y).unwrap();
        let res_ls: f64 = a
            .mul_vec(&x)
            .unwrap()
            .iter()
            .zip(&y)
            .map(|(p, q)| (*p - *q).norm_sqr())
            .sum();
        let res_true: f64 = a
            .mul_vec(&x_true)
            .unwrap()
            .iter()
            .zip(&y)
            .map(|(p, q)| (*p - *q).norm_sqr())
            .sum();
        assert!(res_ls <= res_true + 1e-12);
    }
}
