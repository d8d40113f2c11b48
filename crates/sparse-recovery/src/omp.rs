//! Orthogonal Matching Pursuit over binary sensing matrices.
//!
//! Stage 3 of the identification protocol solves `y = A'·z'` where `A'` is the
//! reduced sensing matrix (one column per surviving candidate id) and `z'` is
//! K-sparse with complex non-zeros equal to the active tags' channel
//! coefficients.  OMP recovers the support greedily: at each iteration it
//! picks the column most correlated with the current residual, refits all
//! selected columns by least squares, and subtracts the fit from the residual.
//! The selection runs over incrementally maintained correlations (a
//! correlation ledger, below) and the refit grows one Cholesky factor of the
//! support's Gram ([`GrowingCholesky`]), so a pick costs `O(N' + s²)` plus
//! the residual update instead of a scan of every column's rows and a
//! rebuilt normal system.
//!
//! `A'` is a [`SensingMatrix`]: one row bitmap per column.  The solver and
//! the prune read it directly.  Column sums, right-hand sides and residual
//! updates walk a column's set bits in ascending row order, and every
//! shared-row count (the ledger's Gram rows, the prune's Gram) is a
//! popcount of two columns' words; nothing copies the matrix.
//!
//! For the random binary matrices Buzz produces (`M ≈ K·log a` rows), OMP
//! recovers the support exactly at the noise levels of interest, and its cost
//! is `O(K · M · N')` — far below the interior-point solver the paper used.

use backscatter_phy::complex::Complex;

use crate::linalg::GrowingCholesky;
use crate::sensing::{shared_rows, SensingMatrix};
use crate::{RecoveryError, RecoveryResult};

/// [`solve`] stops picking once the residual energy falls below this
/// fraction of the measurement energy (0.01 %).  In a nearly noiseless
/// problem that ends the solve as soon as the support explains `y`; at the
/// uplink's SNRs the noise keeps the residual above it, and `max_sparsity`
/// (or a dependent pick) ends the solve instead.
pub const RESIDUAL_TOLERANCE: f64 = 1e-4;

/// A recovered sparse vector: the support indices and their complex values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSolution {
    /// Column indices with non-zero recovered values, in recovery order.
    pub support: Vec<usize>,
    /// The recovered complex value for each support index.
    pub values: Vec<Complex>,
    /// The final residual energy divided by the measurement energy.
    pub relative_residual: f64,
}

/// Removes support entries that do not significantly improve the fit.
///
/// An entry whose removal increases the least-squares residual energy by
/// less than `significance · noise_power · M` is explaining noise (or greedy
/// over-fitting) rather than a real tag.  Each round removes only the least
/// significant entry — the first minimum in support order, when it falls
/// strictly below the threshold — then refits and re-judges the survivors,
/// until every remaining entry is significant.  Removing one entry can make
/// another significant, so the weakest goes alone.
///
/// A round scores every entry at once with the exact leave-one-out identity
/// `ΔE_j = |v_j|² / (G⁻¹)_{jj}`: the support's Gram (shared-row counts, by
/// popcount over row bitmaps) is built once, and the surviving sub-block is
/// factored with a [`GrowingCholesky`] — `O(s³)` per round instead of one
/// least-squares refit per candidate.  Across rounds the factor keeps its
/// rows for the entries before a removed one, which are the same arithmetic
/// a fresh factorization would repeat.  The returned values are the last
/// round's refit.  A numerically dependent entry explains nothing the rest
/// of the support does not, and is dropped before its round is scored.
///
/// This is the reader-side guard against declaring phantom tags: a phantom in
/// the discovered set would stall the rateless data phase, because no tag ever
/// transmits for it.  The support's columns are distinct, as
/// [`solve`] returns them.
///
/// # Errors
///
/// Returns [`RecoveryError::DimensionMismatch`] unless `y` has one entry per
/// row of `a`.
pub fn prune_insignificant(
    a: &SensingMatrix,
    y: &[Complex],
    solution: &SparseSolution,
    noise_power: f64,
    significance: f64,
) -> RecoveryResult<SparseSolution> {
    if y.len() != a.rows() {
        return Err(RecoveryError::DimensionMismatch {
            expected: a.rows(),
            actual: y.len(),
        });
    }
    let y_energy: f64 = y.iter().map(|s| s.norm_sqr()).sum();
    let threshold = significance * noise_power * a.rows() as f64;
    let gram = support_gram(a, &solution.support);
    let rhs: Vec<Complex> = solution
        .support
        .iter()
        .map(|&col| a.column_rows(col).map(|r| y[r]).sum())
        .collect();
    let (alive, values) = prune_rounds(&gram, &rhs, threshold)?;

    let support: Vec<usize> = alive.iter().map(|&p| solution.support[p]).collect();
    let mut residual: Vec<Complex> = y.to_vec();
    for (&col, &v) in support.iter().zip(&values) {
        a.column_rows(col).for_each(|r| residual[r] -= v);
    }
    let final_energy: f64 = residual.iter().map(|s| s.norm_sqr()).sum();
    Ok(SparseSolution {
        support,
        values,
        relative_residual: if y_energy > 0.0 {
            final_energy / y_energy
        } else {
            0.0
        },
    })
}

/// The round loop of [`prune_insignificant`] over the support's `s × s`
/// Gram (row-major) and right-hand sides `rhs` (`Aᴴy` per entry): returns
/// the surviving positions, in support order, and their refit.
///
/// Row `i` of a Cholesky factor depends only on the Gram block of entries
/// `0..=i`, so removing entry `j` leaves the rows before it as they are: the
/// factor is truncated to `j` rows and grown again from there, not rebuilt.
/// The kept rows are the arithmetic a fresh factorization would repeat, so
/// the result is bit-identical to refactoring every round.  (A rank-one
/// downdate would be cheaper still, but it rounds differently.)
fn prune_rounds(
    gram: &[f64],
    rhs: &[Complex],
    threshold: f64,
) -> RecoveryResult<(Vec<usize>, Vec<Complex>)> {
    let s = rhs.len();
    // Positions into the support that are still in it; `chol` factors the
    // Gram of `alive[..chol.len()]`.
    let mut alive: Vec<usize> = (0..s).collect();
    let mut chol = GrowingCholesky::new();
    let mut cross: Vec<f64> = Vec::with_capacity(s);
    let mut values: Vec<Complex> = Vec::new();
    while !alive.is_empty() {
        let mut dependent = None;
        for j in chol.len()..alive.len() {
            let p = alive[j];
            cross.clear();
            cross.extend(alive[..j].iter().map(|&q| gram[p * s + q]));
            // The +1e-12 ridge matches the OMP refit's Gram diagonal.
            if !chol.push(&cross, gram[p * s + p] + 1e-12)? {
                dependent = Some(j);
                break;
            }
        }
        if let Some(j) = dependent {
            // The factor covers exactly `alive[..j]`, which stays.
            alive.remove(j);
            continue;
        }
        let sub_rhs: Vec<Complex> = alive.iter().map(|&p| rhs[p]).collect();
        values = chol.solve(&sub_rhs)?;
        let inv_diag = chol.inverse_diagonal();
        let mut weakest: Option<(usize, f64)> = None;
        for (j, (v, &d)) in values.iter().zip(&inv_diag).enumerate() {
            let contribution = v.norm_sqr() / d;
            if weakest.is_none_or(|(_, c)| contribution < c) {
                weakest = Some((j, contribution));
            }
        }
        match weakest {
            Some((j, contribution)) if contribution < threshold => {
                alive.remove(j);
                chol.truncate(j);
                values.clear();
            }
            _ => break,
        }
    }
    Ok((alive, values))
}

/// The `s × s` Gram of the binary columns `support` (row-major, full):
/// shared-row counts off the diagonal, column weights on it.  Each count is
/// a popcount over the two columns' `⌈m/64⌉`-word row bitmaps,
/// `O(s²·⌈m/64⌉)` in all.  The counts are integers, so the result does not
/// depend on how they are summed.
fn support_gram(a: &SensingMatrix, support: &[usize]) -> Vec<f64> {
    let s = support.len();
    let mut gram = vec![0.0f64; s * s];
    for (p, &col) in support.iter().enumerate() {
        let own = a.column(col);
        for (q, &other) in support[..=p].iter().enumerate() {
            let shared = f64::from(shared_rows(own, a.column(other)));
            gram[p * s + q] = shared;
            gram[q * s + p] = shared;
        }
    }
    gram
}

/// The pruned candidate scan behind OMP's column selection.
///
/// The exhaustive scan walks every candidate column's rows per iteration —
/// `O(nnz)` each time, the identification bottleneck at K = 300+ where the
/// reduced sensing matrix has thousands of candidate columns.  This ledger
/// replaces the walk with *incrementally maintained* correlations: since
/// the residual only ever changes by `Δr = −A_S·Δx` (the refit moving the
/// support coefficients), every column's correlation obeys the exact
/// recurrence
///
/// ```text
/// corr_j ← corr_j − Σ_{s ∈ S} Δx_s · n_{js},    n_{js} = |col_j ∩ col_s|
/// ```
///
/// so one selection costs `O(n)` (an argmax over maintained scores) plus
/// `O(n·|movers|)` bookkeeping — independent of the matrix occupancy —
/// instead of `O(nnz)`.  The shared-row counts `n_{js}` are popcounts of the
/// matrix's own `⌈m/64⌉`-word column bitmaps: one pass per *selected*
/// column lazily materializes its Gram row against all candidates
/// (`O(n·m/64)`, ~2 % of one exhaustive scan).
///
/// The recurrence is algebraically exact; floating-point accumulation can
/// drift the maintained values, so the ledger tracks a conservative bound
/// on that drift ([`CorrelationLedger::drift_margin`]) and every candidate
/// whose maintained score sits within the margin of the top — the
/// surviving bucket of the scan, usually a single column — is re-scored
/// exactly against the residual before a pick is made.  The selected
/// column is therefore provably the one the exhaustive scan would pick,
/// not merely probably: a differential test pins the maintained
/// correlations to brute-force recomputation at every step, and the
/// end-to-end pruned solver to the exhaustive-scan solver bit for bit.
#[derive(Debug, Clone)]
struct CorrelationLedger {
    /// Maintained correlation `Σ_{r∈col_j} residual_r` per column.
    corr: Vec<Complex>,
    /// `1/√deg` per column (`0` for empty columns, which never win).
    inv_sqrt_deg: Vec<f64>,
    /// Lazily built Gram rows, flat `|S| × n` in support order.
    gram_rows: Vec<u32>,
    /// The support values of the previous refit (for `Δx`).
    prev_values: Vec<Complex>,
    /// `deg_s` per support column, in support order (for the drift bound).
    support_degs: Vec<f64>,
    /// Conservative upper bound on the float error any maintained
    /// correlation may have accumulated through the recurrence folds.
    /// Selection exactly re-scores every candidate within `2×` this margin
    /// of the maintained top score, which is what makes the pruned pick
    /// provably identical to the exhaustive scan's.
    drift_margin: f64,
    /// Exact re-scorings performed — normally one per selection, versus the
    /// exhaustive scan's `n` per selection (the pruning observable).
    rescored: u64,
}

/// Inflation factor on the accumulated rounding bound (per-operation error
/// is below `ε·magnitude`; 16× leaves no room for a missed pick).
const DRIFT_SAFETY: f64 = 16.0;

impl CorrelationLedger {
    /// Builds the initial correlations (one exhaustive pass — the same work
    /// a single iteration of the unpruned scan does).
    fn new(a: &SensingMatrix, residual: &[Complex]) -> Self {
        let n = a.cols();
        let mut corr = vec![Complex::ZERO; n];
        let mut inv_sqrt_deg = vec![0.0f64; n];
        for col in 0..n {
            let degree = a.degree(col);
            if degree == 0 {
                continue;
            }
            corr[col] = a.column_rows(col).map(|r| residual[r]).sum();
            inv_sqrt_deg[col] = 1.0 / (degree as f64).sqrt();
        }
        Self {
            corr,
            inv_sqrt_deg,
            gram_rows: Vec::new(),
            prev_values: Vec::new(),
            support_degs: Vec::new(),
            drift_margin: 0.0,
            rescored: 0,
        }
    }

    /// The column with the highest *exact* score, found without walking the
    /// matrix: a maintained-score argmax, then one exact re-scoring of every
    /// candidate whose maintained score sits within `2·drift_margin` of the
    /// top (usually just the winner).  A skipped column `j` satisfies
    /// `exact_j ≤ maintained_j + margin < (top − 2·margin) + margin`, while
    /// the rescored maintained-argmax satisfies `exact ≥ top − margin`, so
    /// no skipped column can beat — or even tie — the returned winner; ties
    /// among the rescored resolve to the lowest index, exactly as the
    /// exhaustive ascending scan's strict `>` keeps the first maximum.
    /// Empty columns score `0` and can never beat the caller's `1e-12`
    /// stopping threshold.
    fn select_exact(
        &mut self,
        a: &SensingMatrix,
        residual: &[Complex],
        selected: &[bool],
    ) -> Option<(usize, f64)> {
        let mut top = f64::NEG_INFINITY;
        let mut any = false;
        for col in 0..self.corr.len() {
            if selected[col] || self.inv_sqrt_deg[col] == 0.0 {
                continue;
            }
            any = true;
            let score = self.corr[col].abs() * self.inv_sqrt_deg[col];
            if score > top {
                top = score;
            }
        }
        if !any {
            return None;
        }
        let cutoff = top - 2.0 * self.drift_margin;
        let mut best: Option<(usize, f64)> = None;
        for col in 0..self.corr.len() {
            if selected[col] || self.inv_sqrt_deg[col] == 0.0 {
                continue;
            }
            let maintained = self.corr[col].abs() * self.inv_sqrt_deg[col];
            if maintained < cutoff {
                continue;
            }
            let exact = self.rescore_exact(a, residual, col);
            if best.is_none_or(|(_, s)| exact > s) {
                best = Some((col, exact));
            }
        }
        best
    }

    /// Re-scores `col` exactly against the residual, re-anchoring its
    /// maintained correlation, and returns the exact score.
    fn rescore_exact(&mut self, a: &SensingMatrix, residual: &[Complex], col: usize) -> f64 {
        self.rescored += 1;
        let corr = a.column_rows(col).map(|r| residual[r]).sum();
        self.corr[col] = corr;
        corr.abs() * self.inv_sqrt_deg[col]
    }

    /// Materializes the Gram row of a freshly selected column: shared-row
    /// counts against every candidate, one popcount pass over the matrix's
    /// column bitmaps.
    fn push_support_column(&mut self, a: &SensingMatrix, col: usize) {
        let own = a.column(col);
        self.support_degs.push(a.degree(col) as f64);
        self.gram_rows
            .extend(a.columns().map(|other| shared_rows(own, other)));
    }

    /// Folds one refit's coefficient movement into every maintained
    /// correlation: `corr_j −= Δx_s·n_{js}` per support entry that moved.
    /// `values` is the refit over the support in selection order (one entry
    /// longer than the previous refit).
    fn refit_applied(&mut self, values: &[Complex]) {
        let n = self.corr.len();
        let mut fold_sum = 0.0f64;
        let mut movers = 0.0f64;
        for (s, &value) in values.iter().enumerate() {
            let prev = self.prev_values.get(s).copied().unwrap_or(Complex::ZERO);
            let dx = value - prev;
            if dx.re == 0.0 && dx.im == 0.0 {
                continue;
            }
            fold_sum += dx.abs() * self.support_degs[s];
            movers += 1.0;
            let gram = &self.gram_rows[s * n..(s + 1) * n];
            for (corr, &shared) in self.corr.iter_mut().zip(gram) {
                if shared != 0 {
                    *corr -= dx * shared as f64;
                }
            }
        }
        // Every fold op rounds below `ε · magnitude`: the products are
        // bounded by `Σ|Δx_s|·deg_s` in total and each subtraction by the
        // largest live correlation, once per mover.  The margin only ever
        // grows (re-anchored columns keep it conservative).
        let max_corr = self
            .corr
            .iter()
            .map(|c| c.norm_sqr())
            .fold(0.0f64, f64::max)
            .sqrt();
        self.drift_margin += f64::EPSILON * DRIFT_SAFETY * (fold_sum + movers * max_corr);
        self.prev_values.clear();
        self.prev_values.extend_from_slice(values);
    }
}

/// Recovers a sparse complex vector `z` from `y ≈ A·z`.
///
/// Each iteration picks the unselected column with the largest
/// normalized correlation `|Σ_{r∈col} residual_r| / √deg` (the first
/// maximum in column order), grows the Cholesky factor of the support's
/// Gram by that column, and refits.  It stops at `max_sparsity` picks,
/// when no column correlates with the residual, when a pick is
/// numerically dependent on the support, or once the residual energy
/// falls below [`RESIDUAL_TOLERANCE`] of the measurement energy.
///
/// # Errors
///
/// Returns [`RecoveryError::DimensionMismatch`] if `y` does not have one
/// entry per row of `a`, or [`RecoveryError::InvalidParameter`] if the
/// matrix has no columns.
pub fn solve(
    a: &SensingMatrix,
    y: &[Complex],
    max_sparsity: usize,
) -> RecoveryResult<SparseSolution> {
    if y.len() != a.rows() {
        return Err(RecoveryError::DimensionMismatch {
            expected: a.rows(),
            actual: y.len(),
        });
    }
    if a.cols() == 0 {
        return Err(RecoveryError::InvalidParameter(
            "sensing matrix has no columns",
        ));
    }
    let y_energy: f64 = y.iter().map(|s| s.norm_sqr()).sum();
    if y_energy == 0.0 {
        return Ok(SparseSolution {
            support: vec![],
            values: vec![],
            relative_residual: 0.0,
        });
    }

    let n = a.cols();
    let mut selected = vec![false; n];
    let mut support: Vec<usize> = Vec::new();
    let mut values: Vec<Complex> = Vec::new();
    let mut residual: Vec<Complex> = y.to_vec();
    let mut chol = GrowingCholesky::new();
    let mut rhs: Vec<Complex> = Vec::new();
    let mut ledger = CorrelationLedger::new(a, &residual);

    for _ in 0..max_sparsity.min(n) {
        // The ledger exactly re-scores every candidate within its drift
        // margin of the maintained top, so the pick is provably the
        // exhaustive scan's.
        let Some((chosen, score)) = ledger.select_exact(a, &residual, &selected) else {
            break;
        };
        if score <= 1e-12 {
            break;
        }

        // Gram cross products against the support: the already-built
        // Gram rows of the selected columns, read back in support order.
        ledger.push_support_column(a, chosen);
        let cross: Vec<f64> = (0..support.len())
            .map(|s| ledger.gram_rows[s * n + chosen] as f64)
            .collect();
        // A tiny ridge on the diagonal keeps nearly collinear supports
        // solvable.
        if !chol.push(&cross, a.degree(chosen) as f64 + 1e-12)? {
            // Numerically dependent column: stop growing.
            break;
        }
        selected[chosen] = true;
        support.push(chosen);
        rhs.push(a.column_rows(chosen).map(|r| y[r]).sum());

        values = chol.solve(&rhs)?;
        residual.copy_from_slice(y);
        for (&col, &v) in support.iter().zip(&values) {
            a.column_rows(col).for_each(|r| residual[r] -= v);
        }
        ledger.refit_applied(&values);
        let res_energy: f64 = residual.iter().map(|s| s.norm_sqr()).sum();
        if res_energy / y_energy < RESIDUAL_TOLERANCE {
            break;
        }
    }

    let res_energy: f64 = residual.iter().map(|s| s.norm_sqr()).sum();
    Ok(SparseSolution {
        support,
        values,
        relative_residual: res_energy / y_energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::{solve_least_squares, ComplexMatrix};
    use backscatter_prng::{NodeSeed, Rng64, Xoshiro256};
    use proptest::prelude::*;

    /// The solution's support sorted ascending.
    fn sorted_support(solution: &SparseSolution) -> Vec<usize> {
        let mut support = solution.support.clone();
        support.sort_unstable();
        support
    }

    /// A test matrix as sorted row lists per column (CSC lists): what the
    /// references below walk, as the solver did before `A'` became
    /// bitmaps.
    struct Csc {
        rows: usize,
        cols: Vec<Vec<usize>>,
    }

    impl Csc {
        fn col(&self, c: usize) -> &[usize] {
            &self.cols[c]
        }

        /// The CSR view: every row's columns, ascending.
        fn row_lists(&self) -> Vec<Vec<usize>> {
            let mut rows = vec![Vec::new(); self.rows];
            for (c, col) in self.cols.iter().enumerate() {
                for &r in col {
                    rows[r].push(c);
                }
            }
            rows
        }
    }

    /// One matrix in both forms, from one decision per entry: the bitmap
    /// the solver reads and the CSC lists the references walk.
    fn matrices(
        rows: usize,
        cols: usize,
        one: impl Fn(usize, usize) -> bool,
    ) -> (SensingMatrix, Csc) {
        let csc = Csc {
            rows,
            cols: (0..cols)
                .map(|c| (0..rows).filter(|&r| one(r, c)).collect())
                .collect(),
        };
        (SensingMatrix::from_fn(rows, cols, one), csc)
    }

    /// Both forms of the matrix with the given `(row, col)` ones.
    fn from_ones(rows: usize, cols: usize, ones: &[(usize, usize)]) -> (SensingMatrix, Csc) {
        matrices(rows, cols, |r, c| ones.contains(&(r, c)))
    }

    /// Builds a random binary sensing problem with a known sparse solution.
    fn make_problem(
        n_cols: usize,
        k: usize,
        rows: usize,
        seed: u64,
        noise: f64,
    ) -> (SensingMatrix, Csc, Vec<Complex>, Vec<usize>, Vec<Complex>) {
        let seeds: Vec<NodeSeed> = (0..n_cols)
            .map(|i| NodeSeed(seed * 10_000 + i as u64))
            .collect();
        let (a, csc) = matrices(rows, n_cols, |r, c| {
            seeds[c].participates_in_slot(r as u64, 0.5)
        });
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut support: Vec<usize> = Vec::new();
        while support.len() < k {
            let c = rng.next_bounded(n_cols as u64) as usize;
            if !support.contains(&c) {
                support.push(c);
            }
        }
        let values: Vec<Complex> = (0..k)
            .map(|_| {
                Complex::from_polar(
                    0.3 + rng.next_f64(),
                    rng.next_f64() * core::f64::consts::TAU,
                )
            })
            .collect();
        let mut y = vec![Complex::ZERO; rows];
        for (&col, &val) in support.iter().zip(&values) {
            for &r in csc.col(col) {
                y[r] += val;
            }
        }
        for s in &mut y {
            *s += Complex::new(
                (rng.next_f64() - 0.5) * noise,
                (rng.next_f64() - 0.5) * noise,
            );
        }
        support.sort_unstable();
        (a, csc, y, support, values)
    }

    #[test]
    fn dimension_checks() {
        let (a, _) = from_ones(4, 3, &[]);
        assert!(solve(&a, &[Complex::ONE; 3], 3).is_err());
        let (empty_cols, _) = from_ones(4, 0, &[]);
        assert!(solve(&empty_cols, &[Complex::ONE; 4], 3).is_err());
        // Empty columns never win a pick.
        let sol = solve(&a, &[Complex::ONE; 4], 3).unwrap();
        assert!(sol.support.is_empty());
        assert_eq!(sol.relative_residual, 1.0);
    }

    #[test]
    fn zero_measurement_gives_empty_solution() {
        let (a, _) = from_ones(3, 2, &[(0, 0), (1, 1)]);
        let sol = solve(&a, &[Complex::ZERO; 3], 3).unwrap();
        assert!(sol.support.is_empty());
        assert_eq!(sol.relative_residual, 0.0);
    }

    #[test]
    fn recovers_noiseless_sparse_vector_exactly() {
        // N' = 160 candidates (a·K with a = K = ~13), K = 8 active, M = K·log2(a·K)
        // measurements — the regime of stage 3.
        let (a, _, y, support, _) = make_problem(160, 8, 64, 1, 0.0);
        // 50 % head-room over the true sparsity.
        let sol = solve(&a, &y, 12).unwrap();
        assert_eq!(sorted_support(&sol), support);
        assert!(sol.relative_residual < 1e-6);
        // Every true column carries a recovered channel value.
        for col in &support {
            let at = sol.support.iter().position(|s| s == col).unwrap();
            assert!(sol.values[at].abs() > 0.1);
        }
    }

    #[test]
    fn recovers_support_under_moderate_noise() {
        let noise = 0.05;
        let (a, _, y, support, _) = make_problem(200, 10, 80, 3, noise);
        let sol = solve(&a, &y, 15).unwrap();
        // Uniform noise of amplitude ±noise/2 per component has this power.
        let noise_power = noise * noise / 6.0;
        let pruned = prune_insignificant(&a, &y, &sol, noise_power, 4.0).unwrap();
        let recovered = sorted_support(&pruned);
        // Every true tag is found and survives the prune.
        for s in &support {
            assert!(recovered.contains(s), "missed column {s}");
        }
    }

    #[test]
    fn headroom_plus_pruning_controls_false_positives() {
        let noise = 0.02;
        let (a, _, y, support, _) = make_problem(150, 6, 60, 5, noise);
        // Deliberately allow more picks than the true sparsity.
        let sol = solve(&a, &y, 9).unwrap();
        let pruned = prune_insignificant(&a, &y, &sol, noise * noise / 6.0, 4.0).unwrap();
        for s in &support {
            assert!(sorted_support(&pruned).contains(s));
        }
        assert!(pruned.support.len() <= support.len() + 2);
    }

    #[test]
    fn prune_insignificant_removes_spurious_and_keeps_real_entries() {
        let noise = 0.06;
        let (a, _, y, support, _) = make_problem(150, 6, 60, 21, noise);
        // Solve with generous head-room so OMP over-fits a few extra columns.
        let raw = solve(&a, &y, 12).unwrap();
        assert!(
            raw.support.len() > support.len(),
            "no spurious pick to prune"
        );
        // Uniform noise of amplitude ±noise/2 per component has this power.
        let noise_power = noise * noise / 6.0;
        let refined = prune_insignificant(&a, &y, &raw, noise_power, 3.0).unwrap();
        assert_eq!(sorted_support(&refined), support);
        assert_eq!(refined.values.len(), refined.support.len());
    }

    /// The least-squares residual energy of `y` over the columns `support`,
    /// and the fit's values.
    fn least_squares_fit(a: &Csc, y: &[Complex], support: &[usize]) -> (f64, Vec<Complex>) {
        if support.is_empty() {
            return (y.iter().map(|s| s.norm_sqr()).sum(), Vec::new());
        }
        let mut sub = ComplexMatrix::zeros(a.rows, support.len());
        for (j, &col) in support.iter().enumerate() {
            for &r in a.col(col) {
                sub.set(r, j, Complex::ONE);
            }
        }
        let values = solve_least_squares(&sub, y).unwrap();
        let fit = sub.mul_vec(&values).unwrap();
        let energy = y.iter().zip(&fit).map(|(&m, &f)| (m - f).norm_sqr()).sum();
        (energy, values)
    }

    /// The dense remove-one-at-a-time prune: one least-squares refit of the
    /// support without each candidate per round, dropping the first
    /// weakest entry while it is insignificant.  The reference
    /// [`prune_insignificant`]'s leave-one-out schedule is pinned to.
    fn prune_insignificant_dense(
        a: &Csc,
        y: &[Complex],
        solution: &SparseSolution,
        noise_power: f64,
        significance: f64,
    ) -> SparseSolution {
        let y_energy: f64 = y.iter().map(|s| s.norm_sqr()).sum();
        let threshold = significance * noise_power * a.rows as f64;
        let mut support = solution.support.clone();
        while !support.is_empty() {
            let (full_energy, _) = least_squares_fit(a, y, &support);
            let mut weakest: Option<(usize, f64)> = None;
            for idx in 0..support.len() {
                let mut without = support.clone();
                without.remove(idx);
                let contribution = least_squares_fit(a, y, &without).0 - full_energy;
                if weakest.is_none_or(|(_, c)| contribution < c) {
                    weakest = Some((idx, contribution));
                }
            }
            match weakest {
                Some((idx, contribution)) if contribution < threshold => {
                    support.remove(idx);
                }
                _ => break,
            }
        }
        let (final_energy, values) = least_squares_fit(a, y, &support);
        SparseSolution {
            support,
            values,
            relative_residual: final_energy / y_energy,
        }
    }

    /// Reference Gram: a walk of every row, one increment per pair of
    /// support columns sharing it.
    fn support_gram_row_walk(a: &Csc, support: &[usize]) -> Vec<f64> {
        let s = support.len();
        let mut position = vec![usize::MAX; a.cols.len()];
        for (p, &col) in support.iter().enumerate() {
            position[col] = p;
        }
        let mut gram = vec![0.0f64; s * s];
        let mut in_row: Vec<usize> = Vec::new();
        for row in a.row_lists() {
            in_row.clear();
            in_row.extend(
                row.iter()
                    .map(|&c| position[c])
                    .filter(|&p| p != usize::MAX),
            );
            for (i, &p) in in_row.iter().enumerate() {
                gram[p * s + p] += 1.0;
                for &q in &in_row[i + 1..] {
                    gram[p * s + q] += 1.0;
                    gram[q * s + p] += 1.0;
                }
            }
        }
        gram
    }

    /// Reference round loop: every round factors the surviving sub-block
    /// from scratch.
    fn prune_rounds_from_scratch(
        gram: &[f64],
        rhs: &[Complex],
        threshold: f64,
    ) -> (Vec<usize>, Vec<Complex>) {
        let s = rhs.len();
        let mut alive: Vec<usize> = (0..s).collect();
        let mut values: Vec<Complex> = Vec::new();
        while !alive.is_empty() {
            let mut chol = GrowingCholesky::new();
            let mut dependent = None;
            for (j, &p) in alive.iter().enumerate() {
                let cross: Vec<f64> = alive[..j].iter().map(|&q| gram[p * s + q]).collect();
                if !chol.push(&cross, gram[p * s + p] + 1e-12).unwrap() {
                    dependent = Some(j);
                    break;
                }
            }
            if let Some(j) = dependent {
                alive.remove(j);
                continue;
            }
            let sub_rhs: Vec<Complex> = alive.iter().map(|&p| rhs[p]).collect();
            values = chol.solve(&sub_rhs).unwrap();
            let inv_diag = chol.inverse_diagonal();
            let mut weakest: Option<(usize, f64)> = None;
            for (j, (v, &d)) in values.iter().zip(&inv_diag).enumerate() {
                let contribution = v.norm_sqr() / d;
                if weakest.is_none_or(|(_, c)| contribution < c) {
                    weakest = Some((j, contribution));
                }
            }
            match weakest {
                Some((j, contribution)) if contribution < threshold => {
                    alive.remove(j);
                    values.clear();
                }
                _ => break,
            }
        }
        (alive, values)
    }

    /// `Σ y[r]` over a column's row list, in list order.
    fn list_sum(rows: &[usize], y: &[Complex]) -> Complex {
        rows.iter().map(|&r| y[r]).sum()
    }

    /// [`prune_insignificant`]'s arithmetic over CSC lists: the row-walk
    /// Gram, list-order right-hand sides, from-scratch rounds and a
    /// list-walk residual.  The bitmap prune must equal it bit for bit.
    fn prune_insignificant_csc(
        a: &Csc,
        y: &[Complex],
        solution: &SparseSolution,
        noise_power: f64,
        significance: f64,
    ) -> SparseSolution {
        let y_energy: f64 = y.iter().map(|s| s.norm_sqr()).sum();
        let threshold = significance * noise_power * a.rows as f64;
        let gram = support_gram_row_walk(a, &solution.support);
        let rhs: Vec<Complex> = solution
            .support
            .iter()
            .map(|&col| list_sum(a.col(col), y))
            .collect();
        let (alive, values) = prune_rounds_from_scratch(&gram, &rhs, threshold);
        let support: Vec<usize> = alive.iter().map(|&p| solution.support[p]).collect();
        let mut residual = y.to_vec();
        for (&col, &v) in support.iter().zip(&values) {
            for &r in a.col(col) {
                residual[r] -= v;
            }
        }
        let final_energy: f64 = residual.iter().map(|s| s.norm_sqr()).sum();
        SparseSolution {
            support,
            values,
            relative_residual: if y_energy > 0.0 {
                final_energy / y_energy
            } else {
                0.0
            },
        }
    }

    fn bits(values: &[Complex]) -> Vec<(u64, u64)> {
        values
            .iter()
            .map(|v| (v.re.to_bits(), v.im.to_bits()))
            .collect()
    }

    /// Two solutions are equal in support, in values under `to_bits`, and
    /// in relative residual under `to_bits`.
    fn assert_same_solution(got: &SparseSolution, reference: &SparseSolution) {
        assert_eq!(got.support, reference.support, "support");
        assert_eq!(bits(&got.values), bits(&reference.values), "values");
        assert_eq!(
            got.relative_residual.to_bits(),
            reference.relative_residual.to_bits(),
            "relative residual {} vs {}",
            got.relative_residual,
            reference.relative_residual
        );
    }

    /// Pins the popcount Gram to the row walk, the bitmap right-hand sides
    /// to list sums, the prefix-reusing round loop to the from-scratch one,
    /// and the whole bitmap prune to its CSC-list reference, bit for bit,
    /// on one pruning problem.
    fn assert_prune_kernels_match_references(
        a: &SensingMatrix,
        csc: &Csc,
        y: &[Complex],
        support: &[usize],
        noise_power: f64,
        significance: f64,
    ) {
        let threshold = significance * noise_power * a.rows() as f64;
        let gram = support_gram(a, support);
        let reference_gram = support_gram_row_walk(csc, support);
        let gram_bits: Vec<u64> = gram.iter().map(|g| g.to_bits()).collect();
        let reference_bits: Vec<u64> = reference_gram.iter().map(|g| g.to_bits()).collect();
        assert_eq!(gram_bits, reference_bits, "Gram of {support:?}");
        let rhs: Vec<Complex> = support
            .iter()
            .map(|&col| a.column_rows(col).map(|r| y[r]).sum())
            .collect();
        let list_rhs: Vec<Complex> = support
            .iter()
            .map(|&col| list_sum(csc.col(col), y))
            .collect();
        assert_eq!(bits(&rhs), bits(&list_rhs), "right-hand sides");
        let (alive, values) = prune_rounds(&gram, &rhs, threshold).unwrap();
        let (scratch_alive, scratch_values) = prune_rounds_from_scratch(&gram, &rhs, threshold);
        assert_eq!(alive, scratch_alive, "surviving support");
        assert_eq!(bits(&values), bits(&scratch_values), "refit values");
        let solution = SparseSolution {
            support: support.to_vec(),
            values: vec![Complex::ONE; support.len()],
            relative_residual: 0.0,
        };
        assert_same_solution(
            &prune_insignificant(a, y, &solution, noise_power, significance).unwrap(),
            &prune_insignificant_csc(csc, y, &solution, noise_power, significance),
        );
    }

    proptest! {
        /// The leave-one-out prune keeps the dense prune's schedule: same
        /// surviving support, matching refit values; and it equals its
        /// CSC-list reference bit for bit.  Two shapes: generous
        /// measurements (`M = 20·K`), and stage 3 as identification runs it
        /// (`≈ K²` candidates, `M ≈ 2.5·K·log₂K` rows, `2K` picks, noise at
        /// the uplink's 22 dB median SNR, significance 4).  Stage 3 is where
        /// dropping every insignificant entry of a round at once, instead of
        /// only the weakest, loses real tags.
        #[test]
        fn incremental_pruning_matches_dense_pruning(
            seed in 0u64..100_000,
            k in 2usize..13,
            stage3 in any::<bool>(),
            noise_step in 1usize..4,
        ) {
            let k = if stage3 { k } else { k.min(7) };
            let (n_cols, rows, noise, significance) = if stage3 {
                let rows = (2.5 * k as f64 * (k as f64).log2()).ceil() as usize;
                // `make_problem`'s channels have median |h|² ≈ 0.64; the SNR
                // is 19, 22 or 25 dB.
                let snr_db = 19.0 + 3.0 * (noise_step - 1) as f64;
                let noise_power = 0.64 / 10f64.powf(snr_db / 10.0);
                ((k * k).max(4 * k), rows.max(16), (6.0 * noise_power).sqrt(), 4.0)
            } else {
                (40 + seed as usize % 120, 20 * k, noise_step as f64 * 0.02, 3.0)
            };
            let (a, csc, y, _support, _values) = make_problem(n_cols, k, rows, seed, noise);
            // Head-room so the raw solve over-fits spurious columns for the
            // pruning to remove.
            let raw = solve(&a, &y, 2 * k).unwrap();
            // Uniform noise of amplitude ±noise/2 per component has this power.
            let noise_power = noise * noise / 6.0;
            let dense = prune_insignificant_dense(&csc, &y, &raw, noise_power, significance);
            let loo = prune_insignificant(&a, &y, &raw, noise_power, significance).unwrap();
            assert_prune_kernels_match_references(&a, &csc, &y, &raw.support, noise_power, significance);
            assert_same_solution(
                &loo,
                &prune_insignificant_csc(&csc, &y, &raw, noise_power, significance),
            );
            prop_assert_eq!(&dense.support, &loo.support);
            for ((col, dv), lv) in dense.support.iter().zip(&dense.values).zip(&loo.values) {
                prop_assert!(
                    (*dv - *lv).abs() < 1e-6 * (1.0 + dv.abs()),
                    "column {}: {:?} vs {:?}", col, dv, lv
                );
            }
            prop_assert!(
                (dense.relative_residual - loo.relative_residual).abs() < 1e-9,
                "residual {} vs {}", dense.relative_residual, loo.relative_residual
            );
        }
    }

    #[test]
    fn prune_insignificant_checks_dimensions_and_handles_empty() {
        let (a, _) = from_ones(3, 2, &[(0, 0), (1, 1)]);
        let empty = SparseSolution {
            support: vec![],
            values: vec![],
            relative_residual: 1.0,
        };
        assert!(prune_insignificant(&a, &[Complex::ZERO; 2], &empty, 1.0, 3.0).is_err());
        let ok = prune_insignificant(&a, &[Complex::ZERO; 3], &empty, 1.0, 3.0).unwrap();
        assert!(ok.support.is_empty());
    }

    #[test]
    fn prune_insignificant_drops_a_dependent_column() {
        // Columns 0 and 1 cover the same rows: the second explains nothing
        // the first does not, and its Cholesky pivot is only the ridge.
        let ones = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (3, 2)];
        let (a, _) = from_ones(4, 3, &ones);
        let raw = SparseSolution {
            support: vec![0, 1, 2],
            values: vec![Complex::ONE; 3],
            relative_residual: 0.0,
        };
        let pruned = prune_insignificant(&a, &[Complex::ONE; 4], &raw, 1e-6, 3.0).unwrap();
        assert_eq!(pruned.support, vec![0, 2]);
        for v in &pruned.values {
            assert!((*v - Complex::ONE).abs() < 1e-9, "{v:?}");
        }
        assert!(pruned.relative_residual < 1e-12);
    }

    #[test]
    fn prune_kernels_match_references_with_a_duplicated_column() {
        // Column 40 duplicates column 3, so whichever of the two comes
        // second in the support is numerically dependent: its push fails
        // and the round loop drops it before scoring, with the factor of
        // the entries before it kept.
        let (_, base, y, support, _) = make_problem(40, 5, 60, 77, 0.05);
        let (a, csc) = matrices(base.rows, 41, |r, c| {
            base.col(if c == 40 { 3 } else { c }).contains(&r)
        });
        let noise_power = 0.05 * 0.05 / 6.0;
        let spurious = [11, 17, 23, 29].iter().filter(|c| !support.contains(c));
        let mut with_duplicate: Vec<usize> = support.iter().chain(spurious).copied().collect();
        for position in [0, 2, with_duplicate.len()] {
            let mut s = with_duplicate.clone();
            s.insert(position, 40);
            if !s.contains(&3) {
                s.push(3);
            }
            assert_prune_kernels_match_references(&a, &csc, &y, &s, noise_power, 4.0);
        }
        with_duplicate.extend([3, 40]);
        assert_prune_kernels_match_references(&a, &csc, &y, &with_duplicate, noise_power, 4.0);
        let raw = SparseSolution {
            values: vec![Complex::ONE; with_duplicate.len()],
            support: with_duplicate,
            relative_residual: 0.0,
        };
        let pruned = prune_insignificant(&a, &y, &raw, noise_power, 4.0).unwrap();
        assert!(
            !(pruned.support.contains(&3) && pruned.support.contains(&40)),
            "a duplicated column survived: {:?}",
            pruned.support
        );
    }

    #[test]
    fn prune_kernels_match_references_with_an_empty_column() {
        // Column 40 has no ones: its Gram row and right-hand side are zero,
        // its pivot is only the ridge, and the round loop drops it wherever
        // it sits in the support.
        let (_, base, y, support, _) = make_problem(40, 5, 60, 78, 0.05);
        let (a, csc) = matrices(base.rows, 41, |r, c| c < 40 && base.col(c).contains(&r));
        let noise_power = 0.05 * 0.05 / 6.0;
        for position in [0, 2, support.len()] {
            let mut s = support.clone();
            s.insert(position, 40);
            assert_prune_kernels_match_references(&a, &csc, &y, &s, noise_power, 4.0);
            let raw = SparseSolution {
                values: vec![Complex::ONE; s.len()],
                support: s,
                relative_residual: 0.0,
            };
            let pruned = prune_insignificant(&a, &y, &raw, noise_power, 4.0).unwrap();
            assert!(!pruned.support.contains(&40), "{:?}", pruned.support);
        }
    }

    /// The pre-pruner solver over CSC lists: exhaustive correlation scan
    /// every iteration, otherwise the arithmetic of [`solve`].
    /// The reference the pruned scan on the bitmap matrix is pinned to.
    fn solve_incremental_reference(max_sparsity: usize, a: &Csc, y: &[Complex]) -> SparseSolution {
        let y_energy: f64 = y.iter().map(|s| s.norm_sqr()).sum();
        let m = a.rows;
        let n = a.cols.len();
        let mut selected = vec![false; n];
        let mut support: Vec<usize> = Vec::new();
        let mut values: Vec<Complex> = Vec::new();
        let mut residual: Vec<Complex> = y.to_vec();
        let mut chol = GrowingCholesky::new();
        let mut rhs: Vec<Complex> = Vec::new();
        let mut row_mark = vec![false; m];
        for _ in 0..max_sparsity.min(n) {
            let mut best: Option<(usize, f64)> = None;
            for col in 0..n {
                if selected[col] {
                    continue;
                }
                let rows = a.col(col);
                if rows.is_empty() {
                    continue;
                }
                let corr = list_sum(rows, &residual);
                let score = corr.abs() / (rows.len() as f64).sqrt();
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((col, score));
                }
            }
            let Some((chosen, score)) = best else { break };
            if score <= 1e-12 {
                break;
            }
            for &r in a.col(chosen) {
                row_mark[r] = true;
            }
            let cross: Vec<f64> = support
                .iter()
                .map(|&col| a.col(col).iter().filter(|&&r| row_mark[r]).count() as f64)
                .collect();
            for &r in a.col(chosen) {
                row_mark[r] = false;
            }
            if !chol
                .push(&cross, a.col(chosen).len() as f64 + 1e-12)
                .unwrap()
            {
                break;
            }
            selected[chosen] = true;
            support.push(chosen);
            rhs.push(list_sum(a.col(chosen), y));
            values = chol.solve(&rhs).unwrap();
            residual.copy_from_slice(y);
            for (&col, &v) in support.iter().zip(&values) {
                for &r in a.col(col) {
                    residual[r] -= v;
                }
            }
            let res_energy: f64 = residual.iter().map(|s| s.norm_sqr()).sum();
            if res_energy / y_energy < RESIDUAL_TOLERANCE {
                break;
            }
        }
        let res_energy: f64 = residual.iter().map(|s| s.norm_sqr()).sum();
        SparseSolution {
            support,
            values,
            relative_residual: res_energy / y_energy,
        }
    }

    proptest! {
        /// The tentpole invariant of the pruned scan: across random sensing
        /// problems (varying density, noise, and head-room) the pruned
        /// incremental solver on the bitmap matrix selects the exact same
        /// support, values, and residual — bit for bit — as the
        /// exhaustive-scan solver over CSC lists it replaced.  The upper
        /// bounds may only skip provably losing columns, never change a
        /// pick.
        #[test]
        fn pruned_scan_matches_exhaustive_scan_bit_for_bit(
            seed in 0u64..1_000_000,
            n_cols in 20usize..120,
            k in 1usize..10,
            rows in 16usize..80,
            noise_step in 0usize..4,
            headroom in 0usize..3,
        ) {
            let noise = noise_step as f64 * 0.04;
            let (a, csc, y, _support, _values) =
                make_problem(n_cols, k.min(n_cols / 4).max(1), rows, seed, noise);
            let max_sparsity = (k + headroom * k).max(1);
            assert_same_solution(
                &solve(&a, &y, max_sparsity).unwrap(),
                &solve_incremental_reference(max_sparsity, &csc, &y),
            );
        }
    }

    #[test]
    fn solve_on_the_stage3_builder_matches_the_csc_reference() {
        // The matrix identification builds, `SensingMatrix::from_seeds`,
        // against CSC lists taken entry by entry from the per-slot
        // decisions, at word-edge row counts.
        for (rows, seed) in [(63usize, 1u64), (64, 2), (65, 3), (130, 4)] {
            let seeds: Vec<NodeSeed> = (0..90).map(|i| NodeSeed(seed * 1_000 + i)).collect();
            let a = SensingMatrix::from_seeds(rows, &seeds, 0.5);
            let csc = Csc {
                rows,
                cols: seeds
                    .iter()
                    .map(|s| {
                        (0..rows)
                            .filter(|&r| s.sensing_in_slot(r as u64, 0.5))
                            .collect()
                    })
                    .collect(),
            };
            let mut y = vec![Complex::ZERO; rows];
            for (i, col) in [7usize, 19, 42, 61, 88].into_iter().enumerate() {
                let h = Complex::from_polar(0.4 + 0.1 * i as f64, i as f64);
                for &r in csc.col(col) {
                    y[r] += h;
                }
            }
            let raw = solve(&a, &y, 12).unwrap();
            assert_same_solution(&raw, &solve_incremental_reference(12, &csc, &y));
            assert_same_solution(
                &prune_insignificant(&a, &y, &raw, 1e-4, 4.0).unwrap(),
                &prune_insignificant_csc(&csc, &y, &raw, 1e-4, 4.0),
            );
        }
    }

    #[test]
    fn correlation_ledger_tracks_brute_force_and_rescores_one_column_per_pick() {
        // The ledger invariant: after every refit the maintained correlation
        // of *every* column matches a brute-force walk of its rows over the
        // current residual (up to the recurrence's float re-association),
        // and the exact re-scorings stay at one per selection — versus the
        // `candidates` per selection the exhaustive scan pays.  The loop is
        // a standalone greedy OMP driven by the ledger (least-squares refit,
        // algebraically the solver's Cholesky refit).
        let (a, csc, y, support, _) = make_problem(400, 12, 120, 9, 0.02);
        let mut residual = y.clone();
        let mut ledger = CorrelationLedger::new(&a, &residual);
        let mut selected = vec![false; a.cols()];
        let mut chosen: Vec<usize> = Vec::new();
        for _ in 0..18 {
            let Some((col, score)) = ledger.select_exact(&a, &residual, &selected) else {
                break;
            };
            if score <= 1e-12 {
                break;
            }
            ledger.push_support_column(&a, col);
            selected[col] = true;
            chosen.push(col);
            let (_, vals) = least_squares_fit(&csc, &y, &chosen);
            let mut sub = ComplexMatrix::zeros(a.rows(), chosen.len());
            for (j, &c) in chosen.iter().enumerate() {
                for &r in csc.col(c) {
                    sub.set(r, j, Complex::ONE);
                }
            }
            let fit = sub.mul_vec(&vals).unwrap();
            for ((res, &m), &f) in residual.iter_mut().zip(&y).zip(&fit) {
                *res = m - f;
            }
            ledger.refit_applied(&vals);
            for col in 0..a.cols() {
                let brute = list_sum(csc.col(col), &residual);
                let kept = ledger.corr[col];
                assert!(
                    (kept - brute).abs() <= 1e-9 * (1.0 + brute.abs()),
                    "column {col} after {} picks: ledger {kept:?} vs brute {brute:?}",
                    chosen.len()
                );
            }
        }
        for s in &support {
            assert!(chosen.contains(s), "missed column {s}");
        }
        // One exact re-scoring per selection, plus the rare drift-margin
        // tie-break double-checks — far below the exhaustive scan's
        // `candidates` per selection.
        assert!(
            ledger.rescored >= chosen.len() as u64 && ledger.rescored <= 2 * chosen.len() as u64,
            "{} exact re-scorings over {} selections",
            ledger.rescored,
            chosen.len()
        );
    }

    #[test]
    fn more_measurements_never_hurt() {
        let mut exact_small = 0;
        let mut exact_large = 0;
        for t in 0..10 {
            let (a, _, y, support, _) = make_problem(120, 8, 40, 100 + t, 0.0);
            if sorted_support(&solve(&a, &y, 12).unwrap()) == support {
                exact_small += 1;
            }
            let (a, _, y, support, _) = make_problem(120, 8, 96, 100 + t, 0.0);
            if sorted_support(&solve(&a, &y, 12).unwrap()) == support {
                exact_large += 1;
            }
        }
        assert!(exact_large >= exact_small);
        assert!(exact_large >= 9, "exact_large = {exact_large}");
    }
}
