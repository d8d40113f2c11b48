//! Pluggable per-slot effects: physical dynamics and the one trait
//! control-plane faults share with them.
//!
//! The paper's experiments keep the environment frozen while the compared
//! schemes run back-to-back, but real deployments are not static: carts move,
//! other radios burst, and tag populations mix strong and weak transmitters.
//! A [`ScenarioDynamics`] implementation captures one such time-varying
//! effect as a *pure function* of the slot index (plus deterministic seed
//! material), so dynamic scenarios keep the repo-wide reproducibility
//! contract: the same `(ScenarioConfig, dynamics, seed)` triple always
//! produces the same channel/noise trajectory, for every protocol.  The
//! control-plane faults of [`crate::faults`] implement the same trait and
//! write the slot's [`SlotFaults`].
//!
//! Effects are attached through [`crate::scenario::ScenarioBuilder`] and
//! applied by the [`crate::medium::Medium`] at slot boundaries
//! ([`crate::medium::Medium::begin_slot`]): each slot starts from the
//! scenario's *base* channels and noise floor, then every attached effect
//! perturbs that slot's view in order.  A scenario with no effects never
//! pays for the machinery — `begin_slot` returns at once and the medium
//! behaves exactly as it did before dynamics existed.
//!
//! # Time-base caveat
//!
//! "Slot" is *protocol-local*, for dynamics and faults alike: Buzz counts
//! air slots (identification's 12.5 µs symbols, then the data phase's
//! collision, request and poll slots, each phase from 0), CDMA spread bit
//! periods, and TDMA whole-message polling rounds, so one effect describes
//! a per-slot-index sequence, not a wall-clock trajectory shared across
//! schemes.  Cross-scheme tables built over dynamic or faulty scenarios
//! compare each scheme against its own slot clock — calibrate rates
//! per-scheme (or keep them qualitative) before reading such a table as an
//! apples-to-apples wall-clock experiment.  Schemes simulated without a PHY
//! medium at all (Gen-2 FSA's analytic inventory model) never observe these
//! effects; they serve as an unaffected control in the examples.

use core::fmt;

use backscatter_phy::channel::Channel;
use backscatter_phy::complex::Complex;
use backscatter_prng::{Rng64, SplitMix64, Xoshiro256};

use crate::faults::SlotFaults;
use crate::{SimError, SimResult};

/// The per-slot view a [`ScenarioDynamics`] implementation perturbs.
///
/// `channels` starts each slot as a copy of the scenario's base channels,
/// `noise_scale` starts at `1.0` and `faults` fault-free; effects mutate
/// them in attachment order, dynamics before faults.
#[derive(Debug)]
pub struct SlotView<'a> {
    /// The slot index since the start of the protocol phase.
    pub slot: u64,
    /// Per-tag channel coefficients for this slot (pre-seeded with the base
    /// channels).
    pub channels: &'a mut [Channel],
    /// Multiplier on the medium's base noise power for this slot.
    pub noise_scale: &'a mut f64,
    /// A seed that is stable across every slot of one run for one attached
    /// effect — derive per-tag constants (drift directions, power offsets)
    /// from it so they do not get redrawn every slot.
    pub stream_seed: u64,
    /// A generator seeded per `(effect, slot)` for effects that *should*
    /// vary slot to slot (jitter, burst phases, fault draws).
    pub rng: &'a mut Xoshiro256,
    /// The control-plane faults in effect for this slot.
    pub faults: &'a mut SlotFaults,
}

/// One composable time-varying effect on the shared medium.
///
/// Implementations must be deterministic: everything they do must derive
/// from `SlotView::slot`, `SlotView::stream_seed`, and `SlotView::rng` —
/// never from ambient state — so that scenario runs stay bit-reproducible.
pub trait ScenarioDynamics: fmt::Debug + Send + Sync {
    /// Perturbs one slot's channels, noise or faults in place.
    fn apply(&self, view: &mut SlotView<'_>);
}

/// Derives the per-tag constant seed stream dynamics implementations share.
fn tag_stream(stream_seed: u64, tag: usize) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(SplitMix64::mix(stream_seed, 0x7a9_0001 + tag as u64))
}

/// Per-slot channel drift: the cart (or the environment) is moving.
///
/// Each tag's channel phase rotates at a constant per-slot rate whose
/// magnitude and sign are drawn once per run from the dynamics stream seed,
/// and its amplitude takes a small per-slot fading wobble.  Over a data
/// phase this decorrelates the reader's identification-time channel
/// estimates from the truth, which is exactly the stress mobility puts on
/// Buzz's interference cancellation.
#[derive(Debug, Clone, Copy)]
pub struct Mobility {
    /// Maximum per-slot phase drift magnitude in radians (per tag rates are
    /// uniform in `[drift/2, drift]` with a random sign).
    pub max_phase_drift_rad_per_slot: f64,
    /// Peak-to-peak fractional amplitude wobble per slot (0 disables).
    pub amplitude_wobble: f64,
}

impl Mobility {
    /// A walking-pace default: ~0.02 rad of phase drift per 12.5 µs slot
    /// with a 5 % amplitude wobble.
    #[must_use]
    pub fn walking_pace() -> Self {
        Self {
            max_phase_drift_rad_per_slot: 0.02,
            amplitude_wobble: 0.05,
        }
    }

    /// Creates a mobility dynamics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for non-finite or negative
    /// rates, or a wobble outside `[0, 1)`.
    pub fn new(max_phase_drift_rad_per_slot: f64, amplitude_wobble: f64) -> SimResult<Self> {
        if !(max_phase_drift_rad_per_slot >= 0.0 && max_phase_drift_rad_per_slot.is_finite()) {
            return Err(SimError::InvalidParameter(
                "phase drift must be finite and non-negative",
            ));
        }
        if !(0.0..1.0).contains(&amplitude_wobble) {
            return Err(SimError::InvalidParameter(
                "amplitude wobble must be in [0, 1)",
            ));
        }
        Ok(Self {
            max_phase_drift_rad_per_slot,
            amplitude_wobble,
        })
    }
}

impl ScenarioDynamics for Mobility {
    fn apply(&self, view: &mut SlotView<'_>) {
        let slot = view.slot as f64;
        for (i, channel) in view.channels.iter_mut().enumerate() {
            let mut tag_rng = tag_stream(view.stream_seed, i);
            let sign = if tag_rng.next_bit() { 1.0 } else { -1.0 };
            let rate = self.max_phase_drift_rad_per_slot * (0.5 + 0.5 * tag_rng.next_f64()) * sign;
            let wobble = if self.amplitude_wobble > 0.0 {
                1.0 + self.amplitude_wobble * (view.rng.next_f64() - 0.5)
            } else {
                1.0
            };
            channel.coefficient *= Complex::from_polar(wobble, rate * slot);
        }
    }
}

/// On/off interference bursts from a co-located radio.
///
/// Time is divided into frames of `period_slots`; each frame carries one
/// burst of `burst_slots` slots whose offset within the frame is drawn
/// deterministically per frame.  During a burst the slot's noise power is
/// multiplied by `noise_multiplier`.
#[derive(Debug, Clone, Copy)]
pub struct BurstyInterference {
    /// Frame length in slots.
    pub period_slots: u64,
    /// Burst length in slots (≤ `period_slots`).
    pub burst_slots: u64,
    /// Noise-power multiplier while a burst is on (≥ 1).
    pub noise_multiplier: f64,
}

impl BurstyInterference {
    /// A default matching a duty-cycled 802.11 interferer: 3-slot bursts
    /// every 10 slots at 20× the noise floor.
    #[must_use]
    pub fn wifi_like() -> Self {
        Self {
            period_slots: 10,
            burst_slots: 3,
            noise_multiplier: 20.0,
        }
    }

    /// Creates a bursty-interference dynamics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for a zero period, a burst
    /// longer than the period, or a multiplier below 1.
    pub fn new(period_slots: u64, burst_slots: u64, noise_multiplier: f64) -> SimResult<Self> {
        if period_slots == 0 {
            return Err(SimError::InvalidParameter("period must be non-zero"));
        }
        if burst_slots > period_slots {
            return Err(SimError::InvalidParameter(
                "burst cannot be longer than the period",
            ));
        }
        if !(noise_multiplier >= 1.0 && noise_multiplier.is_finite()) {
            return Err(SimError::InvalidParameter(
                "noise multiplier must be finite and at least 1",
            ));
        }
        Ok(Self {
            period_slots,
            burst_slots,
            noise_multiplier,
        })
    }

    /// Whether `slot` falls inside a burst for the given stream seed.
    #[must_use]
    pub fn is_burst_slot(&self, stream_seed: u64, slot: u64) -> bool {
        in_burst(stream_seed, slot, self.period_slots, self.burst_slots)
    }
}

/// Whether `slot` falls in the one run of `burst` slots that each frame of
/// `period` slots carries, at an offset drawn per frame from `stream_seed`.
pub(crate) fn in_burst(stream_seed: u64, slot: u64, period: u64, burst: u64) -> bool {
    let mut frame_rng = Xoshiro256::seed_from_u64(SplitMix64::mix(stream_seed, slot / period));
    let offset = frame_rng.next_bounded(period);
    (slot % period + period - offset) % period < burst
}

impl ScenarioDynamics for BurstyInterference {
    fn apply(&self, view: &mut SlotView<'_>) {
        if self.is_burst_slot(view.stream_seed, view.slot) {
            *view.noise_scale *= self.noise_multiplier;
        }
    }
}

/// A static near-far spread beyond what geometry already produces: each tag's
/// channel amplitude is attenuated by a per-tag draw from `[0, spread_db]`.
///
/// Slot-independent, but expressed as a dynamics so it composes with the
/// others (e.g. "heterogeneous powers *and* mobility") without another
/// scenario constructor.
#[derive(Debug, Clone, Copy)]
pub struct HeterogeneousTagPower {
    /// Maximum per-tag attenuation in dB.
    pub spread_db: f64,
}

impl HeterogeneousTagPower {
    /// Creates a heterogeneous-power dynamics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for a negative or non-finite
    /// spread.
    pub fn new(spread_db: f64) -> SimResult<Self> {
        if !(spread_db >= 0.0 && spread_db.is_finite()) {
            return Err(SimError::InvalidParameter(
                "power spread must be finite and non-negative",
            ));
        }
        Ok(Self { spread_db })
    }
}

impl ScenarioDynamics for HeterogeneousTagPower {
    fn apply(&self, view: &mut SlotView<'_>) {
        for (i, channel) in view.channels.iter_mut().enumerate() {
            let mut tag_rng = tag_stream(view.stream_seed, i);
            let attenuation_db = self.spread_db * tag_rng.next_f64();
            let amplitude = 10f64.powf(-attenuation_db / 20.0);
            channel.coefficient = channel.coefficient * amplitude;
        }
    }
}

/// Tags arriving and departing mid-session: shoppers lifting items off a
/// shelf, cartons moving in and out of a reader's field.
///
/// Each tag cycles through its own presence schedule: per cycle of
/// `period_slots` it is *away* for `away_fraction` of the cycle, with a
/// per-tag phase (drawn once per run from the dynamics stream seed) so
/// departures desynchronize across the population.  While away, the tag's
/// channel coefficient is zeroed — its transmissions simply never reach the
/// reader, which is how an absent backscatter tag actually behaves (no
/// carrier power to reflect).  For Buzz this looks like participation slots
/// that arrive empty of the departed tag's signal; fixed-schedule protocols
/// lose the polls that land inside an absence window.
#[derive(Debug, Clone, Copy)]
pub struct TagChurn {
    /// Presence cycle length in slots.
    pub period_slots: u64,
    /// Fraction of each cycle a tag spends away, in `[0, 1)`.
    pub away_fraction: f64,
}

impl TagChurn {
    /// Creates a churn dynamics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for a zero period or an away
    /// fraction outside `[0, 1)`.
    pub fn new(period_slots: u64, away_fraction: f64) -> SimResult<Self> {
        if period_slots == 0 {
            return Err(SimError::InvalidParameter("churn period must be non-zero"));
        }
        if !(0.0..1.0).contains(&away_fraction) {
            return Err(SimError::InvalidParameter(
                "away fraction must be in [0, 1)",
            ));
        }
        Ok(Self {
            period_slots,
            away_fraction,
        })
    }

    /// Whether `tag` is away (departed) during `slot` for the given stream
    /// seed.  Pure function of its arguments, so every protocol sees the
    /// same arrival/departure schedule for a given run.
    #[must_use]
    pub fn is_away(&self, stream_seed: u64, tag: usize, slot: u64) -> bool {
        let away_slots = (self.period_slots as f64 * self.away_fraction) as u64;
        if away_slots == 0 {
            return false;
        }
        let phase = tag_stream(stream_seed, tag).next_bounded(self.period_slots);
        (slot + phase) % self.period_slots < away_slots
    }
}

impl ScenarioDynamics for TagChurn {
    fn apply(&self, view: &mut SlotView<'_>) {
        for (tag, channel) in view.channels.iter_mut().enumerate() {
            if self.is_away(view.stream_seed, tag, view.slot) {
                channel.coefficient = Complex::ZERO;
            }
        }
    }
}

/// Temporally *correlated* multipath fading: a sum-of-sinusoids (Jakes-style)
/// channel whose value drifts smoothly from slot to slot instead of being
/// redrawn independently.
///
/// Each tag's channel is multiplied by
///
/// ```text
/// fade(t) = 1 + √((1 − los)/paths) · Σ_p (exp(i·(±ω_p·t + φ_p)) − exp(i·φ_p))
/// ```
///
/// over eight paths, where the per-path angular rates `ω_p ∈ [doppler/4,
/// doppler]`, drift signs, and phases `φ_p` are drawn once per run from the
/// dynamics stream seed.  The construction anchors `fade(0) = 1` exactly — the reader's
/// identification-time channel estimates start correct, matching every other
/// dynamics' slot-0 convention — and then wanders: the scattered paths
/// decohere from their slot-0 alignment until the composite reaches a
/// steady-state excursion energy of `2·(1 − los)` around the line-of-sight
/// component.  `los = 1` disables fading entirely; small `los` lets the
/// channel fade *through* deep nulls, which is the regime where estimates
/// slowly rot and Buzz's interference cancellation is stressed differently
/// from [`Mobility`]'s pure phase drift.  `fade` is a pure function of the
/// slot index, so runs stay bit-reproducible.
#[derive(Debug, Clone, Copy)]
pub struct CorrelatedFading {
    /// Maximum per-path angular rate in radians per slot (0 freezes the
    /// fading pattern at its slot-0 draw).
    pub doppler_rad_per_slot: f64,
    /// Fraction of channel energy in the static line-of-sight component, in
    /// `[0, 1]`.
    pub line_of_sight: f64,
}

/// Scattering paths [`CorrelatedFading`] sums per tag (more paths deepen and
/// smooth the fading distribution).
const FADING_PATHS: usize = 8;

impl CorrelatedFading {
    /// Creates a correlated-fading dynamics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for a negative or non-finite
    /// doppler, or a line-of-sight fraction outside `[0, 1]`.
    pub fn new(doppler_rad_per_slot: f64, line_of_sight: f64) -> SimResult<Self> {
        if !(doppler_rad_per_slot >= 0.0 && doppler_rad_per_slot.is_finite()) {
            return Err(SimError::InvalidParameter(
                "doppler must be finite and non-negative",
            ));
        }
        if !(0.0..=1.0).contains(&line_of_sight) {
            return Err(SimError::InvalidParameter(
                "line-of-sight fraction must be in [0, 1]",
            ));
        }
        Ok(Self {
            doppler_rad_per_slot,
            line_of_sight,
        })
    }

    /// The multiplicative fade of `tag` at `slot` — a pure function of its
    /// arguments, shared by every protocol run over the same stream seed,
    /// with `fade(·, ·, 0) = 1` exactly.
    #[must_use]
    pub fn fade(&self, stream_seed: u64, tag: usize, slot: u64) -> Complex {
        let mut tag_rng = tag_stream(stream_seed, tag);
        let scatter_amp = ((1.0 - self.line_of_sight) / FADING_PATHS as f64).sqrt();
        let mut fade = Complex::ONE;
        for _ in 0..FADING_PATHS {
            let rate = self.doppler_rad_per_slot * (0.25 + 0.75 * tag_rng.next_f64());
            let sign = if tag_rng.next_bit() { 1.0 } else { -1.0 };
            let phase = tag_rng.next_f64() * core::f64::consts::TAU;
            fade += Complex::from_polar(scatter_amp, sign * rate * slot as f64 + phase)
                - Complex::from_polar(scatter_amp, phase);
        }
        fade
    }
}

impl ScenarioDynamics for CorrelatedFading {
    fn apply(&self, view: &mut SlotView<'_>) {
        for (tag, channel) in view.channels.iter_mut().enumerate() {
            channel.coefficient *= self.fade(view.stream_seed, tag, view.slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_channels() -> Vec<Channel> {
        vec![
            Channel::from_coefficient(Complex::new(1.0, 0.0)),
            Channel::from_coefficient(Complex::new(0.0, 0.5)),
            Channel::from_coefficient(Complex::new(-0.3, 0.4)),
        ]
    }

    fn apply_once(
        dynamics: &dyn ScenarioDynamics,
        slot: u64,
        stream_seed: u64,
    ) -> (Vec<Channel>, f64) {
        let mut channels = base_channels();
        let mut noise_scale = 1.0;
        let mut rng = Xoshiro256::seed_from_u64(SplitMix64::mix(stream_seed, slot));
        let mut view = SlotView {
            slot,
            channels: &mut channels,
            noise_scale: &mut noise_scale,
            stream_seed,
            rng: &mut rng,
            faults: &mut SlotFaults::default(),
        };
        dynamics.apply(&mut view);
        (channels, noise_scale)
    }

    #[test]
    fn constructors_validate() {
        assert!(Mobility::new(-0.1, 0.0).is_err());
        assert!(Mobility::new(0.1, 1.0).is_err());
        assert!(Mobility::new(0.1, 0.1).is_ok());
        assert!(BurstyInterference::new(0, 0, 2.0).is_err());
        assert!(BurstyInterference::new(4, 5, 2.0).is_err());
        assert!(BurstyInterference::new(4, 2, 0.5).is_err());
        assert!(BurstyInterference::new(4, 2, 2.0).is_ok());
        assert!(HeterogeneousTagPower::new(-1.0).is_err());
        assert!(HeterogeneousTagPower::new(12.0).is_ok());
    }

    #[test]
    fn mobility_is_deterministic_and_rotates_over_time() {
        let m = Mobility::new(0.05, 0.0).unwrap();
        let (a, _) = apply_once(&m, 40, 9);
        let (b, _) = apply_once(&m, 40, 9);
        assert_eq!(a, b);
        // Phase rotation preserves magnitude (wobble disabled) but moves the
        // coefficient as slots pass.
        let (later, _) = apply_once(&m, 400, 9);
        for ((base, at40), at400) in base_channels().iter().zip(&a).zip(&later) {
            assert!((at40.coefficient.abs() - base.coefficient.abs()).abs() < 1e-12);
            assert!((at400.coefficient - at40.coefficient).abs() > 1e-6);
        }
    }

    #[test]
    fn mobility_slot_zero_is_the_base_channel() {
        let m = Mobility::new(0.05, 0.0).unwrap();
        let (at0, _) = apply_once(&m, 0, 3);
        for (base, got) in base_channels().iter().zip(&at0) {
            assert!((got.coefficient - base.coefficient).abs() < 1e-12);
        }
    }

    #[test]
    fn bursts_hit_the_configured_duty_cycle() {
        let b = BurstyInterference::new(10, 3, 20.0).unwrap();
        let mut burst_slots = 0usize;
        let total = 10_000u64;
        for slot in 0..total {
            let (_, scale) = apply_once(&b, slot, 42);
            let in_burst = b.is_burst_slot(42, slot);
            assert_eq!(scale > 1.0, in_burst);
            if in_burst {
                assert!((scale - 20.0).abs() < 1e-12);
                burst_slots += 1;
            }
        }
        let duty = burst_slots as f64 / total as f64;
        assert!((duty - 0.3).abs() < 0.02, "duty = {duty}");
    }

    #[test]
    fn heterogeneous_power_is_static_across_slots() {
        let h = HeterogeneousTagPower::new(12.0).unwrap();
        let (a, scale_a) = apply_once(&h, 1, 7);
        let (b, scale_b) = apply_once(&h, 999, 7);
        assert_eq!(a, b, "attenuation must not be redrawn per slot");
        assert_eq!(scale_a, 1.0);
        assert_eq!(scale_b, 1.0);
        // At least one tag is attenuated, none is amplified.
        let base = base_channels();
        let mut attenuated = 0;
        for (orig, got) in base.iter().zip(&a) {
            assert!(got.coefficient.abs() <= orig.coefficient.abs() + 1e-12);
            if got.coefficient.abs() < orig.coefficient.abs() - 1e-9 {
                attenuated += 1;
            }
        }
        assert!(attenuated >= 1);
    }

    #[test]
    fn tag_churn_validates_and_hits_its_duty_cycle() {
        assert!(TagChurn::new(0, 0.2).is_err());
        assert!(TagChurn::new(8, 1.0).is_err());
        assert!(TagChurn::new(8, -0.1).is_err());
        let churn = TagChurn::new(32, 0.25).unwrap();
        let total = 32_000u64;
        for tag in 0..3 {
            let away = (0..total)
                .filter(|&slot| churn.is_away(9, tag, slot))
                .count();
            let duty = away as f64 / total as f64;
            assert!((duty - 0.25).abs() < 0.02, "tag {tag}: duty = {duty}");
        }
        // Zero away time is a strict no-op.
        let none = TagChurn::new(32, 0.0).unwrap();
        assert!((0..256).all(|slot| !none.is_away(9, 0, slot)));
    }

    #[test]
    fn tag_churn_zeros_departed_channels_and_is_deterministic() {
        let churn = TagChurn::new(4, 0.5).unwrap();
        let mut saw_away = false;
        let mut saw_present = false;
        for slot in 0..32 {
            let (a, scale_a) = apply_once(&churn, slot, 7);
            let (b, _) = apply_once(&churn, slot, 7);
            assert_eq!(a, b, "churn must be a pure function of the slot");
            assert_eq!(scale_a, 1.0, "churn does not touch the noise");
            for (tag, (got, base)) in a.iter().zip(base_channels()).enumerate() {
                if churn.is_away(7, tag, slot) {
                    assert_eq!(got.coefficient, Complex::ZERO);
                    saw_away = true;
                } else {
                    assert_eq!(got.coefficient, base.coefficient);
                    saw_present = true;
                }
            }
        }
        assert!(saw_away && saw_present);
    }

    #[test]
    fn tag_churn_departures_are_desynchronized() {
        // Per-tag phases must prevent the whole population from vanishing in
        // lockstep (at 25 % away, some tag should be present in every slot
        // of a long window for a handful of tags).
        let churn = TagChurn::new(64, 0.25).unwrap();
        for slot in 0..512u64 {
            let all_away = (0..8).all(|tag| churn.is_away(3, tag, slot));
            assert!(!all_away, "every tag away at slot {slot}");
        }
    }

    #[test]
    fn correlated_fading_validates_and_is_deterministic() {
        assert!(CorrelatedFading::new(-0.1, 0.5).is_err());
        assert!(CorrelatedFading::new(0.05, 1.5).is_err());
        let f = CorrelatedFading::new(0.05, 0.5).unwrap();
        let (a, scale_a) = apply_once(&f, 123, 9);
        let (b, scale_b) = apply_once(&f, 123, 9);
        assert_eq!(a, b, "fading must be a pure function of the slot");
        assert_eq!(scale_a, 1.0, "fading does not touch the noise");
        assert_eq!(scale_b, 1.0);
    }

    #[test]
    fn correlated_fading_is_smooth_across_adjacent_slots() {
        // The point of *correlated* fading: adjacent slots move the channel
        // far less than distant slots, per tag, and full line-of-sight
        // disables fading entirely.
        let f = CorrelatedFading::new(0.05, 0.3).unwrap();
        for tag in 0..4 {
            let mut adjacent = 0.0f64;
            let mut distant = 0.0f64;
            let samples = 200u64;
            for t in 0..samples {
                let here = f.fade(7, tag, t);
                adjacent += (f.fade(7, tag, t + 1) - here).abs();
                distant += (f.fade(7, tag, t + 401) - here).abs();
            }
            assert!(
                adjacent < distant / 4.0,
                "tag {tag}: adjacent drift {adjacent} vs distant {distant}"
            );
        }
        let frozen = CorrelatedFading::new(0.0, 0.3).unwrap();
        assert_eq!(frozen.fade(7, 0, 0), frozen.fade(7, 0, 999));
        let los_only = CorrelatedFading::new(0.05, 1.0).unwrap();
        for t in [0u64, 17, 400] {
            assert!((los_only.fade(7, 0, t) - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn correlated_fading_slot_zero_is_the_base_channel() {
        // The slot-0 convention every dynamics honours: the reader's
        // identification-time estimates start correct.
        let f = CorrelatedFading::new(0.05, 0.5).unwrap();
        for tag in 0..5 {
            assert!(
                (f.fade(11, tag, 0) - Complex::ONE).abs() < 1e-12,
                "tag {tag} fade(0) != 1"
            );
        }
        let (at0, _) = apply_once(&f, 0, 11);
        for (base, got) in base_channels().iter().zip(&at0) {
            assert!((got.coefficient - base.coefficient).abs() < 1e-12);
        }
    }

    #[test]
    fn correlated_fading_fades_through_nulls() {
        // Deep fades are what distinguish multipath fading from pure phase
        // drift: over a long window some slot must attenuate the channel
        // well below its base amplitude, and some slot must sit near it.
        let f = CorrelatedFading::new(0.05, 0.2).unwrap();
        let mut min_mag = f64::INFINITY;
        let mut max_mag = 0.0f64;
        for t in 0..4_000u64 {
            let mag = f.fade(3, 1, t).abs();
            min_mag = min_mag.min(mag);
            max_mag = max_mag.max(mag);
        }
        assert!(min_mag < 0.35, "no deep fade seen: min |fade| = {min_mag}");
        assert!(
            max_mag > 0.9,
            "no constructive slot: max |fade| = {max_mag}"
        );
    }

    #[test]
    fn dynamics_compose_in_order() {
        let h = HeterogeneousTagPower::new(6.0).unwrap();
        let b = BurstyInterference::new(1, 1, 4.0).unwrap();
        let mut channels = base_channels();
        let mut noise_scale = 1.0;
        let mut rng = Xoshiro256::seed_from_u64(1);
        for dynamics in [&h as &dyn ScenarioDynamics, &b] {
            let mut view = SlotView {
                slot: 0,
                channels: &mut channels,
                noise_scale: &mut noise_scale,
                stream_seed: 5,
                rng: &mut rng,
                faults: &mut SlotFaults::default(),
            };
            dynamics.apply(&mut view);
        }
        assert!((noise_scale - 4.0).abs() < 1e-12);
        assert!(channels[0].coefficient.abs() < 1.0);
    }
}
