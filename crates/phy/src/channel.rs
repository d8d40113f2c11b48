//! Single-tap wireless channels for backscatter links.
//!
//! §2 of the paper argues that because backscatter nodes transmit in a narrow
//! bandwidth (≤ 640 kHz), multipath is negligible and the channel of each tag
//! is a **single complex number** `h_i`.  This module models how that number
//! arises from geometry (distance-based path loss on the round-trip
//! reader→tag→reader path), small-scale fading, and the tag's backscatter
//! (modulation) efficiency.

use backscatter_prng::{Rng64, Xoshiro256};

use crate::complex::Complex;

/// Reference distance `d0` of the round-trip log-distance path loss
/// `P_rx = P0 · (d0 / d)^n`, meters.
const REFERENCE_M: f64 = 0.6;
/// Received power `P0` at the reference distance (linear).
const REFERENCE_POWER: f64 = 1.0;
/// Path-loss exponent `n` on the round-trip power.  Backscatter links
/// attenuate on both the forward and backward paths, so power falls as
/// `1/d^4` in free space — the origin of the near-far effect the paper
/// discusses.
const PATH_LOSS_EXPONENT: f64 = 4.0;
/// Rician K-factor (linear ratio of line-of-sight to scattered power):
/// backscatter links have a strong line-of-sight component.
const RICIAN_K: f64 = 10.0;
/// Fraction of the incident carrier amplitude a tag re-radiates when its
/// antenna is in the reflecting state.
const BACKSCATTER_EFFICIENCY: f64 = 0.8;

/// The channel model every scenario draws from: round-trip log-distance
/// path loss, Rician fading, and the tag's backscatter efficiency.
#[derive(Debug, Clone)]
pub struct ChannelModel {
    rng: Xoshiro256,
}

impl ChannelModel {
    /// Creates a channel model drawing from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256::seed_from_u64(seed),
        }
    }

    fn standard_normal(&mut self) -> f64 {
        let mut u1 = self.rng.next_f64();
        if u1 <= f64::MIN_POSITIVE {
            u1 = f64::MIN_POSITIVE;
        }
        let u2 = self.rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
    }

    /// The mean round-trip amplitude at `distance_m` meters: path loss times
    /// backscatter efficiency.  Distances are clamped below at 1 cm to avoid
    /// singularities when a tag sits essentially on the reader antenna.
    fn mean_amplitude(distance_m: f64) -> f64 {
        let d = distance_m.max(0.01);
        let power = REFERENCE_POWER * (REFERENCE_M / d).powf(PATH_LOSS_EXPONENT);
        power.max(0.0).sqrt() * BACKSCATTER_EFFICIENCY
    }

    /// Draws the single-tap channel coefficient for a tag at `distance_m`
    /// meters from the reader.
    pub fn draw(&mut self, distance_m: f64) -> Channel {
        let mean_amplitude = Self::mean_amplitude(distance_m);
        let phase = self.rng.next_f64() * 2.0 * core::f64::consts::PI;
        let total_power = mean_amplitude * mean_amplitude;
        let los_power = total_power * RICIAN_K / (RICIAN_K + 1.0);
        let scatter_power = total_power / (RICIAN_K + 1.0);
        let los = Complex::from_polar(los_power.sqrt(), phase);
        let sigma = (scatter_power / 2.0).sqrt();
        let coefficient = los
            + Complex::new(
                self.standard_normal() * sigma,
                self.standard_normal() * sigma,
            );
        Channel { coefficient }
    }

    /// Draws channels for a set of tag distances, returning the diagonal of
    /// the channel matrix `H` in tag order.
    pub fn draw_many(&mut self, distances_m: &[f64]) -> Vec<Channel> {
        distances_m.iter().map(|&d| self.draw(d)).collect()
    }
}

/// The single-tap channel of one backscatter tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Channel {
    /// The complex channel coefficient `h_i`.
    pub coefficient: Complex,
}

impl Channel {
    /// Creates a channel directly from a coefficient (used by tests and by the
    /// reader once it has *estimated* a channel).
    #[must_use]
    pub fn from_coefficient(coefficient: Complex) -> Self {
        Self { coefficient }
    }

    /// Channel power `|h|^2`.
    #[must_use]
    pub fn power(&self) -> f64 {
        self.coefficient.norm_sqr()
    }

    /// Per-tag SNR in dB for a given total noise power.
    ///
    /// Returns `None` when the noise power is zero (infinite SNR).
    #[must_use]
    pub fn snr_db(&self, noise_power: f64) -> Option<f64> {
        if noise_power <= 0.0 {
            return None;
        }
        Some(10.0 * (self.power() / noise_power).log10())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_distance_reference_point() {
        // Unit path-loss power at 0.6 m leaves the efficiency's 0.8.
        assert!((ChannelModel::mean_amplitude(0.6) - 0.8).abs() < 1e-12);
        // Farther => weaker.
        assert!(ChannelModel::mean_amplitude(1.2) < ChannelModel::mean_amplitude(0.6));
    }

    #[test]
    fn distance_is_clamped() {
        assert!(ChannelModel::new(1).draw(0.0).power().is_finite());
    }

    #[test]
    fn rician_average_power_matches_path_loss() {
        // At the reference distance the mean power is the efficiency
        // squared, 0.8² = 0.64.
        let mut m = ChannelModel::new(13);
        let n = 50_000;
        let avg: f64 = (0..n).map(|_| m.draw(0.6).power()).sum::<f64>() / n as f64;
        assert!((avg - 0.64).abs() < 0.032, "avg = {avg}");
    }

    #[test]
    fn farther_tags_are_weaker_on_average() {
        let mut m = ChannelModel::new(17);
        let n = 2_000;
        let near: f64 = (0..n).map(|_| m.draw(0.3).power()).sum::<f64>() / n as f64;
        let far: f64 = (0..n).map(|_| m.draw(1.8).power()).sum::<f64>() / n as f64;
        assert!(near > far * 10.0, "near = {near}, far = {far}");
    }

    #[test]
    fn snr_db_reports_relative_to_noise() {
        let ch = Channel::from_coefficient(Complex::new(1.0, 0.0));
        assert!((ch.snr_db(0.1).unwrap() - 10.0).abs() < 1e-9);
        assert!(ch.snr_db(0.0).is_none());
    }

    #[test]
    fn draw_many_preserves_order_and_length() {
        let mut m = ChannelModel::new(23);
        let chans = m.draw_many(&[0.3, 0.6, 1.2]);
        assert_eq!(chans.len(), 3);
    }
}
