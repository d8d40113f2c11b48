//! Additive white Gaussian noise.
//!
//! The simulator injects circularly-symmetric complex Gaussian noise of a
//! given power into the reader's received samples.  Gaussian variates are
//! produced by the Box–Muller transform over the deterministic
//! [`backscatter_prng`] generators so that experiment runs are exactly
//! reproducible.

use backscatter_prng::{Rng64, Xoshiro256};

use crate::complex::Complex;
use crate::{PhyError, PhyResult};

/// A source of circularly-symmetric complex AWGN with configurable power.
#[derive(Debug, Clone)]
pub struct AwgnSource {
    rng: Xoshiro256,
    /// Total noise power `E[|n|^2]` (split evenly between I and Q).
    noise_power: f64,
    /// A spare Gaussian variate from the Box–Muller pair, if any.
    spare: Option<f64>,
}

impl AwgnSource {
    /// Creates a noise source with total complex noise power `noise_power`.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] if `noise_power` is negative or
    /// not finite.
    pub fn new(seed: u64, noise_power: f64) -> PhyResult<Self> {
        if !(noise_power.is_finite() && noise_power >= 0.0) {
            return Err(PhyError::InvalidParameter(
                "noise power must be finite and non-negative",
            ));
        }
        Ok(Self {
            rng: Xoshiro256::seed_from_u64(seed),
            noise_power,
            spare: None,
        })
    }

    /// The configured total noise power.
    #[must_use]
    pub fn noise_power(&self) -> f64 {
        self.noise_power
    }

    /// Draws one standard-normal variate via Box–Muller.
    fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Draw u1 in (0, 1] to avoid ln(0).
        let mut u1 = self.rng.next_f64();
        if u1 <= f64::MIN_POSITIVE {
            u1 = f64::MIN_POSITIVE;
        }
        let u2 = self.rng.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * core::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Draws one complex noise sample with total power `noise_power`.
    pub fn sample(&mut self) -> Complex {
        // Each quadrature carries half the total power.
        let sigma = (self.noise_power / 2.0).sqrt();
        Complex::new(
            self.standard_normal() * sigma,
            self.standard_normal() * sigma,
        )
    }

    /// Returns a noisy copy of `samples`.
    #[must_use]
    pub fn corrupt(&mut self, samples: &[Complex]) -> Vec<Complex> {
        samples.iter().map(|&s| s + self.sample()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_power() {
        assert!(AwgnSource::new(1, -1.0).is_err());
        assert!(AwgnSource::new(1, f64::NAN).is_err());
    }

    #[test]
    fn zero_power_noise_is_silent() {
        let mut n = AwgnSource::new(3, 0.0).unwrap();
        for _ in 0..100 {
            assert_eq!(n.sample(), Complex::ZERO);
        }
    }

    #[test]
    fn empirical_power_matches_configuration() {
        let target = 0.25;
        let mut n = AwgnSource::new(42, target).unwrap();
        let count = 200_000;
        let measured: f64 = (0..count).map(|_| n.sample().norm_sqr()).sum::<f64>() / count as f64;
        assert!(
            (measured - target).abs() / target < 0.05,
            "measured = {measured}"
        );
    }

    #[test]
    fn empirical_mean_is_zero() {
        let mut n = AwgnSource::new(7, 1.0).unwrap();
        let count = 100_000;
        let sum: Complex = (0..count).map(|_| n.sample()).sum();
        let mean = sum / count as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn corrupt_preserves_length_and_is_deterministic() {
        let clean = vec![Complex::ONE; 64];
        let mut a = AwgnSource::new(9, 0.5).unwrap();
        let mut b = AwgnSource::new(9, 0.5).unwrap();
        let na = a.corrupt(&clean);
        let nb = b.corrupt(&clean);
        assert_eq!(na.len(), 64);
        assert_eq!(na, nb);
        assert_ne!(na, clean);
    }
}
