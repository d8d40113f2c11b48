//! Stage 1: streaming estimation of the number of active tags.
//!
//! §5.1-A of the paper: time is divided into steps of `s` slots each.  In step
//! `j` every active tag transmits in each slot independently with probability
//! `p_j = 2^{-j}`.  The reader only measures the fraction of *empty* slots
//! `E_j = (1 − p_j)^K` and, once that fraction crosses a threshold (0.75 in
//! the paper's implementation, with `s = 4`), inverts the formula:
//!
//! ```text
//!     K̂ = ln(E_{j*}) / ln(1 − p_{j*})
//! ```
//!
//! Lemma 5.1 states that with `s = C·log(1/δ)/ε²` slots per step the estimate
//! is within `(1 ± ε)·K` with probability `1 − O(log K · δ)` and terminates at
//! step `j* = log K + O(1)`; the tests Monte-Carlo that claim.
//!
//! The estimator here is *passive*: the caller (the Buzz reader driver) runs
//! the air protocol, counts empty slots per step, and feeds the counts in.
//! An estimator whose step budget runs out before the empty fraction crosses
//! the threshold gives no estimate: at that step's `p_j` a capped fraction
//! would invert to billions of tags.

use crate::{RecoveryError, RecoveryResult};

/// Empty-slot fraction above which the estimator terminates (the paper uses
/// 0.75).
const TERMINATION_THRESHOLD: f64 = 0.75;

/// Hard cap on the number of steps (a safety bound; `2^MAX_STEPS` bounds the
/// largest population the estimator can distinguish).  An estimator that
/// reaches it without terminating gives no estimate.
const MAX_STEPS: usize = 32;

/// The estimator's final output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KEstimate {
    /// The estimated number of active tags, as a real value.
    pub k_hat: f64,
    /// The step index `j*` at which the estimator terminated (1-based).
    pub terminating_step: usize,
    /// Total number of slots consumed (`s · j*`).
    pub slots_used: usize,
}

impl KEstimate {
    /// The estimate rounded to a usable integer (at least 1: the estimator is
    /// only run when at least one tag responded to the trigger).
    #[must_use]
    pub fn k_rounded(&self) -> usize {
        self.k_hat.round().max(1.0) as usize
    }
}

/// The streaming estimator.
#[derive(Debug, Clone)]
pub struct KEstimator {
    slots_per_step: usize,
    step: usize,
    estimate: Option<KEstimate>,
}

impl KEstimator {
    /// Creates an estimator that runs `slots_per_step` slots per step (the
    /// paper uses 4).
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::InvalidParameter`] for zero slots per step.
    pub fn new(slots_per_step: usize) -> RecoveryResult<Self> {
        if slots_per_step == 0 {
            return Err(RecoveryError::InvalidParameter(
                "slots per step must be non-zero",
            ));
        }
        Ok(Self {
            slots_per_step,
            step: 0,
            estimate: None,
        })
    }

    /// The transmit probability the tags must use in the *next* step
    /// (`2^{-(j+1)}` for the upcoming 1-based step index), or `None` when the
    /// estimator has finished.
    #[must_use]
    pub fn next_probability(&self) -> Option<f64> {
        if self.is_done() {
            return None;
        }
        Some(0.5f64.powi(self.step as i32 + 1))
    }

    /// Whether an estimate is available or the step budget is exhausted (in
    /// which case none ever will be).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.estimate.is_some() || self.step >= MAX_STEPS
    }

    /// Records the outcome of one step: how many of the step's slots were
    /// observed empty.  Returns the estimate if this step's empty fraction
    /// terminated the procedure; the last step of the budget that does not
    /// returns `None`, and the estimator is then done without an estimate.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::InvalidParameter`] if `empty_slots` exceeds
    /// the slots per step, or [`RecoveryError::NotReady`] if called after the
    /// estimator already finished.
    pub fn record_step(&mut self, empty_slots: usize) -> RecoveryResult<Option<KEstimate>> {
        if self.is_done() {
            return Err(RecoveryError::NotReady);
        }
        let s = self.slots_per_step;
        if empty_slots > s {
            return Err(RecoveryError::InvalidParameter(
                "empty slots cannot exceed slots per step",
            ));
        }
        self.step += 1;
        let p_j = 0.5f64.powi(self.step as i32);
        let e_j = empty_slots as f64 / s as f64;

        if e_j >= TERMINATION_THRESHOLD {
            // Handle the all-empty case by capping E at 1 − 1/s (the paper's
            // footnote 2), so the logarithm stays finite.
            let capped = e_j.min(1.0 - 1.0 / s as f64).max(1.0 / (2.0 * s as f64));
            let k_hat = capped.ln() / (1.0 - p_j).ln();
            let estimate = KEstimate {
                k_hat,
                terminating_step: self.step,
                slots_used: self.step * s,
            };
            self.estimate = Some(estimate);
            return Ok(Some(estimate));
        }
        Ok(None)
    }

    /// The final estimate.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::NotReady`] if the estimator has not
    /// terminated, or ran out of steps without an estimate.
    pub fn estimate(&self) -> RecoveryResult<KEstimate> {
        self.estimate.ok_or(RecoveryError::NotReady)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_prng::{Rng64, Xoshiro256};

    /// Simulates the estimator against an ideal channel (perfect empty/
    /// occupied detection) for a population of `k` tags.
    fn run_ideal(k: usize, slots_per_step: usize, seed: u64) -> KEstimate {
        let mut est = KEstimator::new(slots_per_step).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(seed);
        loop {
            let p = est.next_probability().expect("estimator ended early");
            let mut empty = 0;
            for _ in 0..slots_per_step {
                let occupied = (0..k).any(|_| rng.next_f64() < p);
                if !occupied {
                    empty += 1;
                }
            }
            if let Some(e) = est.record_step(empty).unwrap() {
                return e;
            }
        }
    }

    #[test]
    fn config_validation() {
        assert!(KEstimator::new(4).is_ok());
        assert!(KEstimator::new(0).is_err());
    }

    #[test]
    fn probability_halves_every_step() {
        let mut est = KEstimator::new(4).unwrap();
        assert_eq!(est.next_probability(), Some(0.5));
        est.record_step(0).unwrap();
        assert_eq!(est.next_probability(), Some(0.25));
        est.record_step(0).unwrap();
        assert_eq!(est.next_probability(), Some(0.125));
    }

    #[test]
    fn record_step_validates_count() {
        let mut est = KEstimator::new(4).unwrap();
        assert!(est.record_step(5).is_err());
    }

    #[test]
    fn finishes_and_refuses_further_steps() {
        let mut est = KEstimator::new(4).unwrap();
        // All slots empty => terminate on the first step.
        let e = est.record_step(4).unwrap().unwrap();
        assert!(est.is_done());
        assert_eq!(e.terminating_step, 1);
        assert!(est.record_step(4).is_err());
        assert_eq!(est.estimate().unwrap(), e);
        assert_eq!(est.next_probability(), None);
    }

    #[test]
    fn exhausted_budget_gives_no_estimate() {
        // Every slot occupied: the empty fraction never crosses the
        // threshold, so the budget runs out and no estimate comes.
        let mut est = KEstimator::new(4).unwrap();
        for _ in 0..MAX_STEPS {
            assert!(est.next_probability().is_some());
            assert_eq!(est.record_step(0), Ok(None));
        }
        assert!(est.is_done());
        assert_eq!(est.next_probability(), None);
        assert_eq!(est.estimate(), Err(RecoveryError::NotReady));
        assert_eq!(est.record_step(0), Err(RecoveryError::NotReady));
    }

    #[test]
    fn estimate_before_done_is_not_ready() {
        let est = KEstimator::new(4).unwrap();
        assert_eq!(est.estimate(), Err(RecoveryError::NotReady));
    }

    #[test]
    fn terminating_step_scales_as_log_k() {
        // Lemma 5.1: j* = log2(K) + O(1).
        for &k in &[4usize, 16, 64, 256] {
            let mut total_step = 0.0;
            let trials = 20;
            for t in 0..trials {
                total_step += run_ideal(k, 64, 100 + t).terminating_step as f64;
            }
            let avg_step = total_step / trials as f64;
            let log_k = (k as f64).log2();
            assert!(
                (avg_step - log_k).abs() <= 3.0,
                "k = {k}: avg j* = {avg_step}, log2 K = {log_k}"
            );
        }
    }

    #[test]
    fn estimate_concentrates_with_more_slots_per_step() {
        // Monte-Carlo check of Lemma 5.1's (1 ± ε) guarantee: with many slots
        // per step the relative error is small on average.
        let k = 32;
        let trials = 30;
        let rel_error = |slots: usize| -> f64 {
            (0..trials)
                .map(|t| {
                    let e = run_ideal(k, slots, 7_000 + t);
                    (e.k_hat - k as f64).abs() / k as f64
                })
                .sum::<f64>()
                / trials as f64
        };
        let coarse = rel_error(4);
        let fine = rel_error(256);
        assert!(fine < coarse, "fine = {fine}, coarse = {coarse}");
        assert!(fine < 0.25, "fine = {fine}");
    }

    #[test]
    fn paper_default_gives_usable_order_of_magnitude() {
        // With s = 4 the estimate is coarse but must stay within a factor ~3
        // of the truth on average — which is all the later stages need.
        for &k in &[4usize, 8, 16] {
            let trials = 50;
            let mean: f64 = (0..trials)
                .map(|t| run_ideal(k, 4, 9_000 + t).k_hat)
                .sum::<f64>()
                / trials as f64;
            assert!(
                mean > k as f64 / 3.0 && mean < k as f64 * 3.0,
                "k = {k}, mean estimate = {mean}"
            );
        }
    }

    #[test]
    fn k_rounded_is_at_least_one() {
        let e = KEstimate {
            k_hat: 0.2,
            terminating_step: 1,
            slots_used: 4,
        };
        assert_eq!(e.k_rounded(), 1);
        let e = KEstimate {
            k_hat: 15.6,
            terminating_step: 4,
            slots_used: 16,
        };
        assert_eq!(e.k_rounded(), 16);
    }
}
