//! The shared air interface between the tags and the reader.
//!
//! A [`Medium`] owns the per-tag channel coefficients, the carrier-leakage
//! baseline, and the AWGN source, and turns "which tags reflected a 1 in this
//! slot" into the complex symbol the reader receives.  This is the single
//! point through which every protocol (Buzz, TDMA, CDMA, FSA) touches the
//! physical layer, so all schemes experience identical channels and noise for
//! a given scenario — mirroring how the paper runs the compared schemes
//! back-to-back without moving the tags.

use std::sync::Arc;

use backscatter_phy::channel::Channel;
use backscatter_phy::complex::Complex;
use backscatter_phy::modulation::CarrierLeakage;
use backscatter_phy::noise::AwgnSource;
use backscatter_phy::signal::{PowerDetector, SlotObservation};
use backscatter_prng::{SplitMix64, Xoshiro256};

use crate::dynamics::{ScenarioDynamics, SlotView};
use crate::faults::{FaultPlan, SlotFaults};
use crate::{SimError, SimResult};

/// Number of independent noise looks averaged for an occupancy (power)
/// decision.  The reader integrates over a whole slot (many samples per bit),
/// which suppresses noise for the empty/occupied decision relative to a
/// single symbol draw.
const OCCUPANCY_INTEGRATION: usize = 16;

/// Configuration of a [`Medium`].
#[derive(Debug, Clone, Copy)]
pub struct MediumConfig {
    /// Total AWGN power per received symbol.
    pub noise_power: f64,
    /// Seed for the noise source.
    pub noise_seed: u64,
}

impl Default for MediumConfig {
    fn default() -> Self {
        Self {
            noise_power: 1e-4,
            noise_seed: 0x5eed,
        }
    }
}

/// The simulated air interface.
#[derive(Debug, Clone)]
pub struct Medium {
    /// The channels in effect for the *current* slot (equal to
    /// `base_channels` unless dynamics are attached and have perturbed them).
    channels: Vec<Channel>,
    /// The scenario's slot-0 channels, the reference every dynamic slot
    /// starts from.
    base_channels: Vec<Channel>,
    leakage: CarrierLeakage,
    noise: AwgnSource,
    detector: PowerDetector,
    config: MediumConfig,
    /// Per-slot effects applied at slot boundaries (empty = static medium).
    dynamics: Vec<Arc<dyn ScenarioDynamics>>,
    /// Seed material for the dynamics streams.
    dynamics_seed: u64,
    /// Control-plane fault plan, if any (`None` = fault-free sessions).
    faults: Option<Arc<FaultPlan>>,
    /// Amplitude multiplier on the noise source for the current slot
    /// (`sqrt` of the dynamics' power scale; 1.0 when static).
    noise_amplitude_scale: f64,
}

impl Medium {
    /// Creates a medium for a set of tag channels.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty channel set or invalid noise parameters.
    pub fn new(channels: Vec<Channel>, config: MediumConfig) -> SimResult<Self> {
        if channels.is_empty() {
            return Err(SimError::InvalidParameter("medium needs at least one tag"));
        }
        let noise = AwgnSource::new(config.noise_seed, config.noise_power)?;
        // Occupancy threshold: several times the post-integration noise power,
        // so empty slots are rarely mistaken for occupied ones while even a
        // weak single tag still trips the detector in good conditions.
        let integrated_noise = config.noise_power / OCCUPANCY_INTEGRATION as f64;
        let detector = PowerDetector::new(integrated_noise * 9.0)?;
        Ok(Self {
            base_channels: channels.clone(),
            channels,
            leakage: CarrierLeakage::typical(),
            noise,
            detector,
            config,
            dynamics: Vec::new(),
            dynamics_seed: 0,
            faults: None,
            noise_amplitude_scale: 1.0,
        })
    }

    /// Attaches per-slot dynamics to the medium.  `dynamics_seed` pins the
    /// dynamics' pseudorandom streams (drift directions, burst phases), so
    /// the same seed reproduces the same trajectory.
    ///
    /// Protocols drive the dynamics by calling [`Medium::begin_slot`] at slot
    /// boundaries; with no dynamics attached that call is free and the medium
    /// is bit-identical to a pre-dynamics one.
    #[must_use]
    pub fn with_dynamics(
        mut self,
        dynamics: Vec<Arc<dyn ScenarioDynamics>>,
        dynamics_seed: u64,
    ) -> Self {
        self.dynamics = dynamics;
        self.dynamics_seed = dynamics_seed;
        self
    }

    /// Starts slot `slot`: resets the per-slot channels/noise to the base
    /// state and applies every attached dynamics in order.  A no-op when no
    /// dynamics are attached, so static scenarios take this path for free.
    pub fn begin_slot(&mut self, slot: u64) {
        if self.dynamics.is_empty() {
            return;
        }
        self.channels.copy_from_slice(&self.base_channels);
        let mut noise_scale = 1.0f64;
        for (index, dynamics) in self.dynamics.iter().enumerate() {
            let stream_seed = SplitMix64::mix(self.dynamics_seed, 0xd1a_0001 + index as u64);
            let mut rng = Xoshiro256::seed_from_u64(SplitMix64::mix(stream_seed, slot));
            let mut view = SlotView {
                slot,
                channels: &mut self.channels,
                noise_scale: &mut noise_scale,
                stream_seed,
                rng: &mut rng,
            };
            dynamics.apply(&mut view);
        }
        self.noise_amplitude_scale = noise_scale.max(0.0).sqrt();
    }

    /// The attached dynamics (empty for a static medium).
    #[must_use]
    pub fn dynamics(&self) -> &[Arc<dyn ScenarioDynamics>] {
        &self.dynamics
    }

    /// Attaches a control-plane fault plan.  Protocols consult it through
    /// [`Medium::slot_faults`]; with no plan attached that call returns
    /// `None` and the medium is bit-identical to a pre-faults one.
    #[must_use]
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        if !plan.is_empty() {
            self.faults = Some(plan);
        }
        self
    }

    /// Whether a (non-empty) fault plan is attached.
    #[must_use]
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// The control-plane faults for `slot`, or `None` when no fault plan is
    /// attached.  Pure in the slot index: consulting the same slot twice
    /// yields identical faults.
    #[must_use]
    pub fn slot_faults(&self, slot: u64) -> Option<SlotFaults> {
        self.faults
            .as_ref()
            .map(|plan| plan.slot_faults(slot, self.channels.len()))
    }

    /// The effective noise power for the current slot (base noise times the
    /// dynamics' scale).
    #[must_use]
    pub fn slot_noise_power(&self) -> f64 {
        self.config.noise_power * self.noise_amplitude_scale * self.noise_amplitude_scale
    }

    /// One noise draw at the current slot's effective power.
    fn noise_sample(&mut self) -> Complex {
        let sample = self.noise.sample();
        if self.noise_amplitude_scale == 1.0 {
            sample
        } else {
            sample * self.noise_amplitude_scale
        }
    }

    /// The per-tag channels (ground truth; protocols should *estimate* these
    /// rather than read them unless the experiment grants genie knowledge).
    #[must_use]
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The configured noise power.
    #[must_use]
    pub fn noise_power(&self) -> f64 {
        self.config.noise_power
    }

    /// The carrier-leakage baseline (what a raw, uncorrected trace rides on).
    #[must_use]
    pub fn leakage(&self) -> CarrierLeakage {
        self.leakage
    }

    fn check_bits(&self, bits: &[bool]) -> SimResult<()> {
        if bits.len() != self.channels.len() {
            return Err(SimError::Phy(backscatter_phy::PhyError::LengthMismatch {
                expected: self.channels.len(),
                actual: bits.len(),
            }));
        }
        Ok(())
    }

    /// The noiseless superposition of the reflections of the tags whose bit is
    /// `true` (no leakage).
    fn clean_symbol(&self, bits: &[bool]) -> Complex {
        self.channels
            .iter()
            .zip(bits)
            .filter(|(_, &b)| b)
            .map(|(c, _)| c.coefficient)
            .sum()
    }

    /// One received symbol with leakage removed and noise added — the quantity
    /// the Buzz decoders operate on.
    ///
    /// `bits[i]` is whether tag `i` reflects in this slot.
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error if `bits` does not cover every tag.
    pub fn observe(&mut self, bits: &[bool]) -> SimResult<Complex> {
        self.check_bits(bits)?;
        Ok(self.clean_symbol(bits) + self.noise_sample())
    }

    /// Like [`Medium::observe`], but with the noise power scaled by
    /// `power_factor` for this one symbol — the hook fault plans use to model
    /// CRC-corrupting frame noise.  A factor of exactly 1 is draw-identical
    /// to a plain `observe` call, so fault-free slots stay byte-reproducible.
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error if `bits` does not cover every tag, or
    /// an invalid-parameter error for a non-finite or negative factor.
    pub fn observe_with_noise_factor(
        &mut self,
        bits: &[bool],
        power_factor: f64,
    ) -> SimResult<Complex> {
        if !power_factor.is_finite() || power_factor < 0.0 {
            return Err(SimError::InvalidParameter(
                "noise power factor must be finite and non-negative",
            ));
        }
        if power_factor == 1.0 {
            return self.observe(bits);
        }
        self.check_bits(bits)?;
        Ok(self.clean_symbol(bits) + self.noise_sample() * power_factor.sqrt())
    }

    /// One received symbol *including* the carrier-leakage baseline — what a
    /// raw USRP capture looks like before the reader subtracts the static
    /// environment (used by the Fig. 2/3 waveform reproductions).
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error if `bits` does not cover every tag.
    pub fn observe_raw(&mut self, bits: &[bool]) -> SimResult<Complex> {
        Ok(self.observe(bits)? + self.leakage.baseline)
    }

    /// One received symbol where each tag reflects for only a *fraction* of
    /// the integration window (`weights[i] ∈ [0, 1]`).
    ///
    /// This models imperfect chip/symbol alignment: a tag whose clock is
    /// offset by a fraction `f` of the period contributes `(1 − f)` of its
    /// current chip and `f` of its previous chip to the reader's integrator.
    /// The synchronous CDMA baseline uses this to capture how residual offsets
    /// break Walsh-code orthogonality (the origin of its near-far problem).
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error if `weights` does not cover every tag,
    /// or an invalid-parameter error if any weight is outside `[0, 1]`.
    pub fn observe_fractional(&mut self, weights: &[f64]) -> SimResult<Complex> {
        if weights.len() != self.channels.len() {
            return Err(SimError::Phy(backscatter_phy::PhyError::LengthMismatch {
                expected: self.channels.len(),
                actual: weights.len(),
            }));
        }
        if weights.iter().any(|w| !(0.0..=1.0).contains(w)) {
            return Err(SimError::InvalidParameter(
                "fractional reflection weights must be in [0, 1]",
            ));
        }
        let clean: Complex = self
            .channels
            .iter()
            .zip(weights)
            .map(|(c, &w)| c.coefficient * w)
            .sum();
        let noise = self.noise_sample();
        Ok(clean + noise)
    }

    /// Like [`Medium::observe_fractional`], but with the noise power scaled
    /// by `power_factor` for this one symbol (the CDMA baseline's hook for
    /// fault-plan frame noise).  A factor of exactly 1 is draw-identical to a
    /// plain `observe_fractional` call.
    ///
    /// # Errors
    ///
    /// As for [`Medium::observe_fractional`], plus an invalid-parameter error
    /// for a non-finite or negative factor.
    pub fn observe_fractional_with_noise_factor(
        &mut self,
        weights: &[f64],
        power_factor: f64,
    ) -> SimResult<Complex> {
        if !power_factor.is_finite() || power_factor < 0.0 {
            return Err(SimError::InvalidParameter(
                "noise power factor must be finite and non-negative",
            ));
        }
        if power_factor == 1.0 {
            return self.observe_fractional(weights);
        }
        if weights.len() != self.channels.len() {
            return Err(SimError::Phy(backscatter_phy::PhyError::LengthMismatch {
                expected: self.channels.len(),
                actual: weights.len(),
            }));
        }
        if weights.iter().any(|w| !(0.0..=1.0).contains(w)) {
            return Err(SimError::InvalidParameter(
                "fractional reflection weights must be in [0, 1]",
            ));
        }
        let clean: Complex = self
            .channels
            .iter()
            .zip(weights)
            .map(|(c, &w)| c.coefficient * w)
            .sum();
        Ok(clean + self.noise_sample() * power_factor.sqrt())
    }

    /// The reader's empty/occupied decision for a slot, integrating over the
    /// slot duration (suppresses noise relative to a single symbol draw).
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error if `bits` does not cover every tag.
    pub fn observe_occupancy(&mut self, bits: &[bool]) -> SimResult<SlotObservation> {
        self.check_bits(bits)?;
        let clean = self.clean_symbol(bits);
        let n = OCCUPANCY_INTEGRATION;
        // Average power over n independent looks at the same slot.
        let mean_power: f64 = (0..n)
            .map(|_| (clean + self.noise_sample()).norm_sqr())
            .sum::<f64>()
            / n as f64;
        // Subtract the expected noise contribution so the threshold compares
        // signal energy (matched to how a real reader calibrates on silence).
        let signal_power = (mean_power - self.config.noise_power).max(0.0);
        Ok(if signal_power > self.detector.threshold {
            SlotObservation::Occupied
        } else {
            SlotObservation::Empty
        })
    }

    /// The per-tag SNR in dB implied by this medium (channel power over noise
    /// power), mainly for labelling experiment conditions like Fig. 12.
    #[must_use]
    pub fn per_tag_snr_db(&self) -> Vec<f64> {
        self.channels
            .iter()
            .map(|c| c.snr_db(self.config.noise_power).unwrap_or(f64::INFINITY))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium_with(channels: &[(f64, f64)], noise_power: f64) -> Medium {
        let chans: Vec<Channel> = channels
            .iter()
            .map(|&(re, im)| Channel::from_coefficient(Complex::new(re, im)))
            .collect();
        Medium::new(
            chans,
            MediumConfig {
                noise_power,
                ..MediumConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn rejects_empty_channel_set() {
        assert!(Medium::new(vec![], MediumConfig::default()).is_err());
    }

    #[test]
    fn observe_checks_bit_vector_length() {
        let mut m = medium_with(&[(1.0, 0.0), (0.5, 0.0)], 1e-6);
        assert!(m.observe(&[true]).is_err());
        assert!(m.observe(&[true, false, true]).is_err());
        assert!(m.observe(&[true, false]).is_ok());
    }

    #[test]
    fn noiseless_superposition_is_sum_of_channels() {
        let mut m = medium_with(&[(1.0, 0.0), (0.0, 0.5)], 0.0);
        let y = m.observe(&[true, true]).unwrap();
        assert!((y - Complex::new(1.0, 0.5)).abs() < 1e-12);
        let y0 = m.observe(&[false, false]).unwrap();
        assert!(y0.abs() < 1e-12);
    }

    #[test]
    fn raw_observation_includes_leakage() {
        let mut m = medium_with(&[(1.0, 0.0)], 0.0);
        let clean = m.observe(&[false]).unwrap();
        let raw = m.observe_raw(&[false]).unwrap();
        assert!((raw - clean - m.leakage().baseline).abs() < 1e-12);
    }

    #[test]
    fn occupancy_detection_distinguishes_silence_from_reflection() {
        let mut m = medium_with(&[(0.3, 0.0), (0.0, 0.2)], 1e-4);
        let mut false_occupied = 0;
        let mut missed = 0;
        for _ in 0..200 {
            if m.observe_occupancy(&[false, false]).unwrap() == SlotObservation::Occupied {
                false_occupied += 1;
            }
            if m.observe_occupancy(&[true, false]).unwrap() == SlotObservation::Empty {
                missed += 1;
            }
        }
        assert!(false_occupied <= 2, "false occupied: {false_occupied}");
        assert_eq!(missed, 0, "missed detections: {missed}");
    }

    #[test]
    fn fractional_observation_scales_contributions() {
        let mut m = medium_with(&[(1.0, 0.0), (0.0, 2.0)], 0.0);
        let y = m.observe_fractional(&[0.5, 0.25]).unwrap();
        assert!((y - Complex::new(0.5, 0.5)).abs() < 1e-12);
        assert!(m.observe_fractional(&[0.5]).is_err());
        assert!(m.observe_fractional(&[0.5, 1.5]).is_err());
        // Weights of exactly 0/1 reproduce the boolean observation.
        let y_bool = m.observe(&[true, false]).unwrap();
        let y_frac = m.observe_fractional(&[1.0, 0.0]).unwrap();
        assert!((y_bool - y_frac).abs() < 1e-12);
    }

    #[test]
    fn begin_slot_without_dynamics_is_a_no_op() {
        // The static path must be bit-identical whether or not begin_slot is
        // called — this is what keeps the paper scenarios byte-reproducible
        // after the dynamics hook was added.
        let mut plain = medium_with(&[(1.0, 0.0), (0.5, 0.2)], 1e-4);
        let mut hooked = medium_with(&[(1.0, 0.0), (0.5, 0.2)], 1e-4);
        for slot in 0..16u64 {
            hooked.begin_slot(slot);
            let a = plain.observe(&[true, slot % 2 == 0]).unwrap();
            let b = hooked.observe(&[true, slot % 2 == 0]).unwrap();
            assert_eq!(a, b);
            assert_eq!(hooked.slot_noise_power(), hooked.noise_power());
        }
    }

    #[test]
    fn dynamics_perturb_channels_and_noise_per_slot() {
        use crate::dynamics::{BurstyInterference, Mobility};

        let channels = vec![
            Channel::from_coefficient(Complex::ONE),
            Channel::from_coefficient(Complex::I),
        ];
        let dynamics: Vec<Arc<dyn crate::dynamics::ScenarioDynamics>> = vec![
            Arc::new(Mobility::new(0.1, 0.0).unwrap()),
            Arc::new(BurstyInterference::new(4, 2, 9.0).unwrap()),
        ];
        let mut m = Medium::new(channels.clone(), MediumConfig::default())
            .unwrap()
            .with_dynamics(dynamics, 77);

        // Slot 0: mobility leaves slot-0 channels at their base value.
        m.begin_slot(0);
        for (base, got) in channels.iter().zip(m.channels()) {
            assert!((got.coefficient - base.coefficient).abs() < 1e-12);
        }

        // Later slots rotate the channels; magnitudes survive (no wobble).
        m.begin_slot(40);
        let rotated = m.channels().to_vec();
        assert!(rotated
            .iter()
            .zip(&channels)
            .all(|(r, b)| (r.coefficient.abs() - b.coefficient.abs()).abs() < 1e-12));
        assert!(rotated
            .iter()
            .zip(&channels)
            .any(|(r, b)| (r.coefficient - b.coefficient).abs() > 1e-3));

        // Burst slots raise the effective noise power by exactly 9x.
        let mut saw_burst = false;
        let mut saw_quiet = false;
        for slot in 0..32 {
            m.begin_slot(slot);
            let ratio = m.slot_noise_power() / m.noise_power();
            if (ratio - 9.0).abs() < 1e-9 {
                saw_burst = true;
            } else {
                assert!((ratio - 1.0).abs() < 1e-9, "unexpected ratio {ratio}");
                saw_quiet = true;
            }
        }
        assert!(saw_burst && saw_quiet);

        // Every slot's state is a pure function of the slot index.
        m.begin_slot(40);
        assert_eq!(m.channels(), &rotated[..]);
    }

    #[test]
    fn noise_factor_scales_the_same_draw() {
        let mut plain = medium_with(&[(1.0, 0.0)], 1e-4);
        let mut scaled = medium_with(&[(1.0, 0.0)], 1e-4);
        // Silence observations expose the raw noise draw: a factor of 4 in
        // power is exactly 2x the amplitude of the identical seeded draw.
        let n = plain.observe(&[false]).unwrap();
        let boosted = scaled.observe_with_noise_factor(&[false], 4.0).unwrap();
        assert!((boosted - n * 2.0).abs() < 1e-12);
        // Factor 1 takes the plain path bit-for-bit.
        let a = plain.observe(&[true]).unwrap();
        let b = scaled.observe_with_noise_factor(&[true], 1.0).unwrap();
        assert_eq!(a, b);
        assert!(scaled.observe_with_noise_factor(&[true], -1.0).is_err());
        assert!(scaled
            .observe_with_noise_factor(&[true], f64::INFINITY)
            .is_err());
    }

    #[test]
    fn fault_plan_attaches_and_is_pure() {
        use crate::faults::{FaultPlan, ReaderRestart, SlotErasure};

        let m = medium_with(&[(1.0, 0.0), (0.5, 0.2)], 1e-4);
        assert!(!m.has_faults());
        assert!(m.slot_faults(3).is_none());

        // An empty plan is dropped, keeping the fault-free fast path.
        let empty =
            medium_with(&[(1.0, 0.0)], 1e-4).with_faults(Arc::new(FaultPlan::new(9, Vec::new())));
        assert!(!empty.has_faults());

        let plan = Arc::new(FaultPlan::new(
            42,
            vec![
                Arc::new(SlotErasure::new(0.5).unwrap()),
                Arc::new(ReaderRestart::new(6)),
            ],
        ));
        let m = medium_with(&[(1.0, 0.0), (0.5, 0.2)], 1e-4).with_faults(plan);
        assert!(m.has_faults());
        let first: Vec<_> = (0..16).map(|s| m.slot_faults(s).unwrap()).collect();
        let second: Vec<_> = (0..16).map(|s| m.slot_faults(s).unwrap()).collect();
        assert_eq!(first, second);
        assert!(first[6].reader_restart);
        assert!(first.iter().any(|f| f.collision_erased));
    }

    #[test]
    fn per_tag_snr_reflects_channel_strength() {
        let m = medium_with(&[(1.0, 0.0), (0.1, 0.0)], 1e-2);
        let snrs = m.per_tag_snr_db();
        assert!((snrs[0] - 20.0).abs() < 1e-9);
        assert!((snrs[1] - 0.0).abs() < 1e-9);
    }
}
