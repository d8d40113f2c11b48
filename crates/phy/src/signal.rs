//! Received-signal containers and reader-side signal processing.
//!
//! The USRP reader in the paper captures complex baseband samples at 4 MHz
//! while tags backscatter at 80 kbps, i.e. ~50 samples per bit.  This module
//! provides:
//!
//! * [`IqTrace`] — a sample-accurate received waveform (used to reproduce the
//!   magnitude plots of Fig. 2 and Fig. 8),
//! * [`Constellation`] — symbol-level constellation extraction (Fig. 3),
//! * [`PowerDetector`] — the occupied/empty slot decision used by the
//!   cardinality-estimation and bucket-hashing stages,
//! * level clustering used to count distinct received levels in a collision.

use crate::complex::Complex;
use crate::{PhyError, PhyResult};

/// A sample-accurate complex baseband trace captured by the reader.
#[derive(Debug, Clone, PartialEq)]
pub struct IqTrace {
    samples: Vec<Complex>,
    /// Sampling rate in Hz.
    sample_rate_hz: f64,
}

impl IqTrace {
    /// Wraps raw samples captured at `sample_rate_hz`.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] for a non-positive sample rate.
    pub fn new(samples: Vec<Complex>, sample_rate_hz: f64) -> PhyResult<Self> {
        if !(sample_rate_hz.is_finite() && sample_rate_hz > 0.0) {
            return Err(PhyError::InvalidParameter(
                "sample rate must be finite and positive",
            ));
        }
        Ok(Self {
            samples,
            sample_rate_hz,
        })
    }

    /// Builds a trace by holding each symbol for `samples_per_symbol` samples
    /// (rectangular pulse shaping, which is what OOK backscatter looks like at
    /// the reader after its matched filter).
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] if `samples_per_symbol` is zero
    /// or the sample rate is invalid.
    pub fn from_symbols(
        symbols: &[Complex],
        samples_per_symbol: usize,
        sample_rate_hz: f64,
    ) -> PhyResult<Self> {
        if samples_per_symbol == 0 {
            return Err(PhyError::InvalidParameter(
                "samples per symbol must be non-zero",
            ));
        }
        let mut samples = Vec::with_capacity(symbols.len() * samples_per_symbol);
        for &s in symbols {
            samples.extend(std::iter::repeat_n(s, samples_per_symbol));
        }
        Self::new(samples, sample_rate_hz)
    }

    /// The raw samples.
    #[must_use]
    pub fn samples(&self) -> &[Complex] {
        &self.samples
    }

    /// The sampling rate in Hz.
    #[must_use]
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// The magnitude of each sample paired with its time in microseconds —
    /// exactly the series plotted in Fig. 2 / Fig. 8.
    #[must_use]
    pub fn magnitude_series_us(&self) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .enumerate()
            .map(|(i, s)| (i as f64 / self.sample_rate_hz * 1e6, s.abs()))
            .collect()
    }
}

/// A symbol-level constellation: the set of received complex values.
#[derive(Debug, Clone, PartialEq)]
pub struct Constellation {
    points: Vec<Complex>,
}

impl Constellation {
    /// Collects the constellation of a symbol stream.
    #[must_use]
    pub fn from_symbols(symbols: &[Complex]) -> Self {
        Self {
            points: symbols.to_vec(),
        }
    }

    /// The raw constellation points (one per received symbol).
    #[must_use]
    pub fn points(&self) -> &[Complex] {
        &self.points
    }

    /// Greedily clusters the points with distance threshold `epsilon` and
    /// returns the cluster centroids — i.e. the distinct constellation
    /// points.  With K colliding tags and clean channels this returns `2^K`
    /// centroids (Fig. 3: 2 points for one tag, 4 for two tags).
    #[must_use]
    pub fn distinct_levels(&self, epsilon: f64) -> Vec<Complex> {
        let mut centroids: Vec<(Complex, usize)> = Vec::new();
        for &p in &self.points {
            match centroids
                .iter_mut()
                .find(|(c, _)| (*c - p).abs() <= epsilon)
            {
                Some((c, n)) => {
                    // Running mean keeps the centroid centred on its cluster.
                    let count = *n as f64;
                    *c = (*c * count + p) / (count + 1.0);
                    *n += 1;
                }
                None => centroids.push((p, 1)),
            }
        }
        centroids.into_iter().map(|(c, _)| c).collect()
    }

    /// The minimum distance between any two distinct levels, a proxy for how
    /// decodable the collision constellation is at a given noise level.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::Empty`] if there are fewer than two distinct levels.
    pub fn minimum_distance(&self, epsilon: f64) -> PhyResult<f64> {
        let levels = self.distinct_levels(epsilon);
        if levels.len() < 2 {
            return Err(PhyError::Empty);
        }
        let mut min = f64::MAX;
        for i in 0..levels.len() {
            for j in (i + 1)..levels.len() {
                min = min.min((levels[i] - levels[j]).abs());
            }
        }
        Ok(min)
    }
}

/// Occupied/empty decision for a time slot based on received power.
///
/// The identification protocol's first two stages only need to know whether
/// *any* tag transmitted in a slot (§5.1-A/B); this detector thresholds the
/// mean power of the slot's samples after baseline removal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerDetector {
    /// Power threshold above which a slot is declared occupied.
    pub threshold: f64,
}

/// The reader's verdict about one time slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotObservation {
    /// No tag transmitted (power below threshold).
    Empty,
    /// At least one tag transmitted.
    Occupied,
}

impl PowerDetector {
    /// Creates a detector with an absolute power threshold.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] for a negative or non-finite
    /// threshold.
    pub fn new(threshold: f64) -> PhyResult<Self> {
        if !(threshold.is_finite() && threshold >= 0.0) {
            return Err(PhyError::InvalidParameter(
                "power threshold must be finite and non-negative",
            ));
        }
        Ok(Self { threshold })
    }

    /// Chooses a threshold halfway (in power) between the noise floor and the
    /// weakest expected single-tag reflection.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] if the weakest signal power is
    /// not above the noise power.
    pub fn between(noise_power: f64, weakest_signal_power: f64) -> PhyResult<Self> {
        if !(weakest_signal_power > noise_power && noise_power >= 0.0) {
            return Err(PhyError::InvalidParameter(
                "weakest signal power must exceed noise power",
            ));
        }
        Self::new((noise_power + weakest_signal_power) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_rejects_bad_rate() {
        assert!(IqTrace::new(vec![], 0.0).is_err());
        assert!(IqTrace::new(vec![], f64::NAN).is_err());
    }

    #[test]
    fn trace_duration_and_series() {
        let symbols = vec![Complex::ONE, Complex::ZERO];
        let trace = IqTrace::from_symbols(&symbols, 50, 4.0e6).unwrap();
        assert_eq!(trace.samples().len(), 100);
        let series = trace.magnitude_series_us();
        assert_eq!(series.len(), 100);
        assert!((series[0].1 - 1.0).abs() < 1e-12);
        assert!((series[99].1 - 0.0).abs() < 1e-12);
    }

    #[test]
    fn from_symbols_rejects_zero_sps() {
        assert!(IqTrace::from_symbols(&[Complex::ONE], 0, 1.0e6).is_err());
    }

    #[test]
    fn single_tag_constellation_has_two_levels() {
        // Tag alternating 0/1 through a channel of 0.3+0.1i over a baseline.
        let baseline = Complex::new(1.4, -1.2);
        let h = Complex::new(0.3, 0.1);
        let symbols: Vec<Complex> = (0..100)
            .map(|i| if i % 2 == 0 { baseline } else { baseline + h })
            .collect();
        let c = Constellation::from_symbols(&symbols);
        assert_eq!(c.distinct_levels(1e-6).len(), 2);
    }

    #[test]
    fn two_tag_constellation_has_four_levels() {
        let h1 = Complex::new(0.3, 0.0);
        let h2 = Complex::new(0.0, 0.2);
        let mut symbols = Vec::new();
        for b1 in [false, true] {
            for b2 in [false, true] {
                for _ in 0..10 {
                    let mut y = Complex::ZERO;
                    if b1 {
                        y += h1;
                    }
                    if b2 {
                        y += h2;
                    }
                    symbols.push(y);
                }
            }
        }
        let c = Constellation::from_symbols(&symbols);
        assert_eq!(c.distinct_levels(1e-6).len(), 4);
        let dmin = c.minimum_distance(1e-6).unwrap();
        assert!((dmin - 0.2).abs() < 1e-9);
    }

    #[test]
    fn minimum_distance_needs_two_levels() {
        let c = Constellation::from_symbols(&[Complex::ONE; 5]);
        assert!(c.minimum_distance(1e-6).is_err());
    }

    #[test]
    fn clustering_merges_noisy_points() {
        let mut symbols = Vec::new();
        for i in 0..50 {
            let jitter = (i % 5) as f64 * 1e-3;
            symbols.push(Complex::new(1.0 + jitter, 0.0));
            symbols.push(Complex::new(0.0, jitter));
        }
        let c = Constellation::from_symbols(&symbols);
        assert_eq!(c.distinct_levels(0.05).len(), 2);
    }

    #[test]
    fn power_detector_validates_threshold() {
        assert!(PowerDetector::new(-1.0).is_err());
        assert!(PowerDetector::between(1.0, 0.5).is_err());
        assert!(PowerDetector::between(0.01, 1.0).is_ok());
    }
}
