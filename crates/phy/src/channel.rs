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
use crate::{PhyError, PhyResult};

/// Path-loss models for the round-trip backscatter link.
///
/// Backscatter links attenuate on *both* the forward (reader → tag) and
/// backward (tag → reader) paths, so the received backscatter power scales
/// roughly as `1/d^4` in free space ("radar equation" behaviour) — this is the
/// physical origin of the severe near-far effect the paper discusses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathLoss {
    /// No attenuation (unit gain); useful for isolating coding behaviour.
    None,
    /// Free-space round trip: amplitude ∝ `(λ / 4πd)^2`, i.e. power ∝ `1/d^4`.
    FreeSpaceRoundTrip {
        /// Carrier wavelength in meters (≈ 0.324 m at 925 MHz).
        wavelength_m: f64,
    },
    /// Log-distance model with a configurable exponent applied to the
    /// round-trip power: `P_rx = P0 · (d0 / d)^exponent`.
    LogDistance {
        /// Reference distance in meters.
        reference_m: f64,
        /// Received power at the reference distance (linear).
        reference_power: f64,
        /// Path-loss exponent on the round-trip power (4.0 ≈ free space
        /// round trip, higher indoors).
        exponent: f64,
    },
}

impl PathLoss {
    /// Round-trip amplitude gain at distance `distance_m` (meters).
    ///
    /// Distances are clamped below at 1 cm to avoid singularities when a tag
    /// sits essentially on the reader antenna.
    #[must_use]
    pub fn amplitude_gain(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(0.01);
        match *self {
            PathLoss::None => 1.0,
            PathLoss::FreeSpaceRoundTrip { wavelength_m } => {
                let one_way = wavelength_m / (4.0 * core::f64::consts::PI * d);
                one_way * one_way
            }
            PathLoss::LogDistance {
                reference_m,
                reference_power,
                exponent,
            } => {
                let power = reference_power * (reference_m / d).powf(exponent);
                power.max(0.0).sqrt()
            }
        }
    }
}

/// Small-scale fading applied on top of the deterministic path loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FadingModel {
    /// No fading: the channel phase is still random (uniform) but the
    /// magnitude is exactly the path-loss gain.
    None,
    /// Rayleigh fading: the channel is a zero-mean complex Gaussian whose
    /// average power equals the path-loss power.
    Rayleigh,
    /// Rician fading with the given K-factor (ratio of line-of-sight power to
    /// scattered power).  Backscatter links usually have a strong LoS
    /// component, so K of 5–15 dB is typical.
    Rician {
        /// Linear (not dB) K-factor; larger means more line-of-sight.
        k_factor: f64,
    },
}

/// A complete channel model: path loss + fading + backscatter efficiency.
#[derive(Debug, Clone)]
pub struct ChannelModel {
    path_loss: PathLoss,
    fading: FadingModel,
    /// Fraction of the incident carrier amplitude the tag re-radiates when its
    /// antenna is in the reflecting state (0 < η ≤ 1).
    backscatter_efficiency: f64,
    rng: Xoshiro256,
}

impl ChannelModel {
    /// Creates a channel model.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] if `backscatter_efficiency` is
    /// not in `(0, 1]`, or a Rician K-factor is negative.
    pub fn new(
        seed: u64,
        path_loss: PathLoss,
        fading: FadingModel,
        backscatter_efficiency: f64,
    ) -> PhyResult<Self> {
        if !(backscatter_efficiency > 0.0 && backscatter_efficiency <= 1.0) {
            return Err(PhyError::InvalidParameter(
                "backscatter efficiency must be in (0, 1]",
            ));
        }
        if let FadingModel::Rician { k_factor } = fading {
            if !(k_factor.is_finite() && k_factor >= 0.0) {
                return Err(PhyError::InvalidParameter(
                    "Rician K-factor must be finite and non-negative",
                ));
            }
        }
        Ok(Self {
            path_loss,
            fading,
            backscatter_efficiency,
            rng: Xoshiro256::seed_from_u64(seed),
        })
    }

    fn standard_normal(&mut self) -> f64 {
        let mut u1 = self.rng.next_f64();
        if u1 <= f64::MIN_POSITIVE {
            u1 = f64::MIN_POSITIVE;
        }
        let u2 = self.rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
    }

    /// Draws the single-tap channel coefficient for a tag at `distance_m`
    /// meters from the reader.
    pub fn draw(&mut self, distance_m: f64) -> Channel {
        let mean_amplitude =
            self.path_loss.amplitude_gain(distance_m) * self.backscatter_efficiency;
        let phase = self.rng.next_f64() * 2.0 * core::f64::consts::PI;
        let coefficient = match self.fading {
            FadingModel::None => Complex::from_polar(mean_amplitude, phase),
            FadingModel::Rayleigh => {
                // Zero-mean complex Gaussian with E[|h|^2] = mean_amplitude^2.
                let sigma = mean_amplitude / core::f64::consts::SQRT_2;
                Complex::new(
                    self.standard_normal() * sigma,
                    self.standard_normal() * sigma,
                )
            }
            FadingModel::Rician { k_factor } => {
                let total_power = mean_amplitude * mean_amplitude;
                let los_power = total_power * k_factor / (k_factor + 1.0);
                let scatter_power = total_power / (k_factor + 1.0);
                let los = Complex::from_polar(los_power.sqrt(), phase);
                let sigma = (scatter_power / 2.0).sqrt();
                los + Complex::new(
                    self.standard_normal() * sigma,
                    self.standard_normal() * sigma,
                )
            }
        };
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

    /// The received complex amplitude when the tag reflects (transmits a "1").
    #[must_use]
    pub fn reflected_amplitude(&self) -> Complex {
        self.coefficient
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

    /// Log-distance path loss with unit amplitude at 0.6 m, Rician fading
    /// with a strong LoS component, and 80 % backscatter efficiency.
    fn uhf(seed: u64) -> ChannelModel {
        let path_loss = PathLoss::LogDistance {
            reference_m: 0.6,
            reference_power: 1.0,
            exponent: 4.0,
        };
        ChannelModel::new(seed, path_loss, FadingModel::Rician { k_factor: 10.0 }, 0.8).unwrap()
    }

    #[test]
    fn path_loss_none_is_unit() {
        assert_eq!(PathLoss::None.amplitude_gain(123.0), 1.0);
    }

    #[test]
    fn free_space_round_trip_falls_as_distance_squared_in_amplitude() {
        let pl = PathLoss::FreeSpaceRoundTrip {
            wavelength_m: 0.324,
        };
        let g1 = pl.amplitude_gain(1.0);
        let g2 = pl.amplitude_gain(2.0);
        // Round-trip amplitude falls as 1/d^2 => doubling distance quarters it.
        assert!((g1 / g2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn log_distance_reference_point() {
        let pl = PathLoss::LogDistance {
            reference_m: 0.6,
            reference_power: 1.0,
            exponent: 4.0,
        };
        assert!((pl.amplitude_gain(0.6) - 1.0).abs() < 1e-12);
        // Farther => weaker.
        assert!(pl.amplitude_gain(1.2) < pl.amplitude_gain(0.6));
    }

    #[test]
    fn distance_is_clamped() {
        let pl = PathLoss::FreeSpaceRoundTrip {
            wavelength_m: 0.324,
        };
        assert!(pl.amplitude_gain(0.0).is_finite());
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(ChannelModel::new(1, PathLoss::None, FadingModel::None, 0.0).is_err());
        assert!(ChannelModel::new(1, PathLoss::None, FadingModel::None, 1.5).is_err());
        assert!(ChannelModel::new(
            1,
            PathLoss::None,
            FadingModel::Rician { k_factor: -1.0 },
            0.5
        )
        .is_err());
    }

    #[test]
    fn no_fading_magnitude_is_deterministic() {
        let mut m = ChannelModel::new(5, PathLoss::None, FadingModel::None, 0.5).unwrap();
        for _ in 0..10 {
            let ch = m.draw(1.0);
            assert!((ch.coefficient.abs() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn rayleigh_average_power_matches_path_loss() {
        let mut m = ChannelModel::new(11, PathLoss::None, FadingModel::Rayleigh, 1.0).unwrap();
        let n = 50_000;
        let avg: f64 = (0..n).map(|_| m.draw(1.0).power()).sum::<f64>() / n as f64;
        assert!((avg - 1.0).abs() < 0.05, "avg = {avg}");
    }

    #[test]
    fn rician_average_power_matches_path_loss() {
        let mut m = ChannelModel::new(
            13,
            PathLoss::None,
            FadingModel::Rician { k_factor: 10.0 },
            1.0,
        )
        .unwrap();
        let n = 50_000;
        let avg: f64 = (0..n).map(|_| m.draw(1.0).power()).sum::<f64>() / n as f64;
        assert!((avg - 1.0).abs() < 0.05, "avg = {avg}");
    }

    #[test]
    fn farther_tags_are_weaker_on_average() {
        let mut m = uhf(17);
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
        let mut m = uhf(23);
        let chans = m.draw_many(&[0.3, 0.6, 1.2]);
        assert_eq!(chans.len(), 3);
    }
}
