//! Synchronization imperfections: initial offset jitter and clock drift.
//!
//! §8.1 of the paper measures two imperfections on real tags and shows they
//! are small enough for Buzz to work:
//!
//! * **initial offset** — the jitter in when each tag detects the reader's
//!   trigger and starts transmitting: 90th percentile 0.3 µs for commercial
//!   tags and 0.5 µs for the Moo, maximum below 1 µs (Fig. 7),
//! * **clock drift** — each tag's digital clock runs slightly fast or slow;
//!   without correction two tags drift apart by ~50 % of a symbol after 2 ms
//!   at 80 kbps (Fig. 8a), and a one-time drift estimate against the reader's
//!   virtual clock realigns them (Fig. 8b).
//!
//! The simulator draws per-tag offsets and drifts from these models and the
//! decoders can optionally be stressed with them.

use backscatter_prng::{Rng64, Xoshiro256};

use crate::{PhyError, PhyResult};

/// Distribution of the initial trigger-detection offset of a tag population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncJitter {
    /// Scale parameter: offsets are drawn as `scale_us · |half-normal|`,
    /// truncated at `max_us`.
    pub scale_us: f64,
    /// Hard maximum offset in microseconds (tags that miss the trigger by
    /// more than this simply do not participate in the slot).
    pub max_us: f64,
}

impl SyncJitter {
    /// Jitter profile matching the paper's commercial (Alien) tags:
    /// 90th percentile ≈ 0.3 µs, max < 1 µs.
    #[must_use]
    pub fn commercial() -> Self {
        // For a half-normal, the 90th percentile is ≈ 1.645·σ.
        Self {
            scale_us: 0.3 / 1.645,
            max_us: 1.0,
        }
    }

    /// Jitter profile matching the Moo computational RFIDs:
    /// 90th percentile ≈ 0.5 µs, max < 1 µs.
    #[must_use]
    pub fn moo() -> Self {
        Self {
            scale_us: 0.5 / 1.645,
            max_us: 1.0,
        }
    }

    /// Draws one offset in microseconds.
    pub fn draw_us(&self, rng: &mut Xoshiro256) -> f64 {
        // Half-normal via |Box-Muller|.
        let mut u1 = rng.next_f64();
        if u1 <= f64::MIN_POSITIVE {
            u1 = f64::MIN_POSITIVE;
        }
        let u2 = rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
        (z.abs() * self.scale_us).min(self.max_us)
    }

    /// Draws offsets for `n` tags.
    pub fn draw_many_us(&self, rng: &mut Xoshiro256, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.draw_us(rng)).collect()
    }
}

/// Computes the empirical CDF of a set of offsets, returning sorted
/// `(offset_us, fraction ≤ offset)` pairs — the series plotted in Fig. 7.
///
/// # Errors
///
/// Returns [`PhyError::Empty`] for an empty input.
pub fn offset_cdf(offsets_us: &[f64]) -> PhyResult<Vec<(f64, f64)>> {
    if offsets_us.is_empty() {
        return Err(PhyError::Empty);
    }
    let mut sorted = offsets_us.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
    let n = sorted.len() as f64;
    Ok(sorted
        .into_iter()
        .enumerate()
        .map(|(i, x)| (x, (i + 1) as f64 / n))
        .collect())
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of a set of offsets.
///
/// # Errors
///
/// Returns [`PhyError::Empty`] for an empty input and
/// [`PhyError::InvalidParameter`] for a quantile outside `[0, 1]`.
pub fn offset_quantile(offsets_us: &[f64], q: f64) -> PhyResult<f64> {
    if offsets_us.is_empty() {
        return Err(PhyError::Empty);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(PhyError::InvalidParameter("quantile must be in [0, 1]"));
    }
    let mut sorted = offsets_us.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    Ok(sorted[idx])
}

/// A tag's digital clock: nominal tick rate plus a fixed relative drift.
///
/// Drift is expressed in parts-per-million; the Moo's MSP430 clock is stable
/// to within a few hundred ppm, and the paper notes the drift of each tag "is
/// fairly stable" so a one-time estimate suffices for correction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockModel {
    /// Relative drift in parts-per-million (positive = clock runs fast).
    pub drift_ppm: f64,
}

impl ClockModel {
    /// Creates a clock with the given drift.
    #[must_use]
    pub fn new(drift_ppm: f64) -> Self {
        Self { drift_ppm }
    }

    /// Draws a clock whose drift is uniform in `[-max_ppm, +max_ppm]`.
    pub fn draw(rng: &mut Xoshiro256, max_ppm: f64) -> Self {
        Self::new((rng.next_f64() * 2.0 - 1.0) * max_ppm)
    }

    /// How far (in microseconds) this clock has drifted from true time after
    /// `elapsed_us` microseconds.
    #[must_use]
    pub fn accumulated_drift_us(&self, elapsed_us: f64) -> f64 {
        elapsed_us * self.drift_ppm * 1e-6
    }
}

/// Interval between the two reader pulses a tag calibrates against,
/// microseconds.
const CALIBRATION_INTERVAL_US: f64 = 10_000.0;
/// The tag clock's nominal tick rate, hertz.
const TICK_RATE_HZ: f64 = 1.0e6;

/// The reader-driven drift-correction procedure of §8.1.
///
/// The tag counts its own clock ticks between two reader pulses 10 ms apart
/// at a nominal 1 MHz; the ratio of counted to expected ticks estimates the
/// drift, and the tag subsequently inserts (or skips) ticks to compensate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftCorrection {
    /// The estimated drift in ppm (what the tag measured).
    pub estimated_ppm: f64,
}

impl DriftCorrection {
    /// Estimates a tag clock's drift by counting ticks over the calibration
    /// interval, quantized to whole ticks — which is why the correction is
    /// good but not perfect.
    #[must_use]
    pub fn calibrate(clock: ClockModel) -> Self {
        let expected_ticks = CALIBRATION_INTERVAL_US * 1e-6 * TICK_RATE_HZ;
        // The tag's clock runs at (1 + drift) of nominal, so it counts more
        // (or fewer) ticks in the same true interval; counting quantizes.
        let counted_ticks = (expected_ticks * (1.0 + clock.drift_ppm * 1e-6)).round();
        let estimated = (counted_ticks / expected_ticks - 1.0) * 1e6;
        Self {
            estimated_ppm: estimated,
        }
    }

    /// The residual drift (ppm) left after applying this correction to a
    /// clock.
    #[must_use]
    pub fn residual_ppm(&self, clock: ClockModel) -> f64 {
        clock.drift_ppm - self.estimated_ppm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_profiles_match_paper_percentiles() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let moo = SyncJitter::moo().draw_many_us(&mut rng, 20_000);
        let commercial = SyncJitter::commercial().draw_many_us(&mut rng, 20_000);
        let moo_p90 = offset_quantile(&moo, 0.9).unwrap();
        let com_p90 = offset_quantile(&commercial, 0.9).unwrap();
        assert!((moo_p90 - 0.5).abs() < 0.08, "moo p90 = {moo_p90}");
        assert!((com_p90 - 0.3).abs() < 0.08, "commercial p90 = {com_p90}");
        assert!(moo.iter().chain(&commercial).all(|&x| x < 1.0 + 1e-12));
    }

    #[test]
    fn offsets_are_nonnegative() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        assert!(SyncJitter::moo()
            .draw_many_us(&mut rng, 1000)
            .iter()
            .all(|&x| x >= 0.0));
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let offs = SyncJitter::commercial().draw_many_us(&mut rng, 500);
        let cdf = offset_cdf(&offs).unwrap();
        assert_eq!(cdf.len(), 500);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!(offset_cdf(&[]).is_err());
    }

    #[test]
    fn quantile_validates_inputs() {
        assert!(offset_quantile(&[], 0.5).is_err());
        assert!(offset_quantile(&[1.0], 1.5).is_err());
        assert_eq!(offset_quantile(&[3.0, 1.0, 2.0], 0.0).unwrap(), 1.0);
        assert_eq!(offset_quantile(&[3.0, 1.0, 2.0], 1.0).unwrap(), 3.0);
    }

    #[test]
    fn uncorrected_drift_reproduces_fig8a() {
        // Fig. 8a: at 80 kbps (12.5 µs symbols) two tags drift ~50 % of a
        // symbol apart after 2 ms.  A relative drift of ~3000 ppm between the
        // tags produces that; model each tag at ±1560 ppm.
        let fast = ClockModel::new(1560.0);
        let slow = ClockModel::new(-1560.0);
        let relative_us = fast.accumulated_drift_us(2000.0) - slow.accumulated_drift_us(2000.0);
        let fraction = relative_us / 12.5;
        assert!((fraction - 0.5).abs() < 0.01, "fraction = {fraction}");
    }

    #[test]
    fn corrected_drift_stays_aligned() {
        // After calibration against the reader clock, residual misalignment at
        // 2 ms must be a small fraction of a symbol (Fig. 8b).
        let clock = ClockModel::new(1560.0);
        let corr = DriftCorrection::calibrate(clock);
        let resid = (2000.0 * corr.residual_ppm(clock) * 1e-6 / 12.5).abs();
        assert!(resid < 0.02, "residual fraction = {resid}");
    }

    #[test]
    fn drawn_clocks_are_bounded() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        for _ in 0..1000 {
            let c = ClockModel::draw(&mut rng, 2000.0);
            assert!(c.drift_ppm.abs() <= 2000.0);
        }
    }

    #[test]
    fn misalignment_grows_linearly() {
        let c = ClockModel::new(1000.0);
        let m1 = c.accumulated_drift_us(1000.0);
        let m2 = c.accumulated_drift_us(2000.0);
        assert!((m2 - 2.0 * m1).abs() < 1e-12);
    }
}
