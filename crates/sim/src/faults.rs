//! Seeded control-plane faults for protocol sessions.
//!
//! Where the physical dynamics of [`crate::dynamics`] perturb channels and
//! noise, these perturb the *control* plane: slots the reader fails to
//! frame-sync on, downlink feedback that never reaches the tags, tags that
//! brown out and reset mid-transfer, CRC-corrupting frame noise, and the
//! reader process itself restarting at a chosen slot.  Each fault is a
//! [`ScenarioDynamics`] attached with
//! [`crate::scenario::ScenarioBuilder::fault`]; the medium applies the
//! faults after the dynamics when a slot starts, and
//! [`crate::medium::Medium::begin_slot`] returns the slot's [`SlotFaults`].
//! Faults draw from their own salted streams, so attaching one never moves
//! a dynamics trajectory, and any failure a sweep surfaces replays
//! bit-for-bit from `(scenario seed, noise seed)`.  Every draw is a pure
//! function of the slot index, so replays across thread counts stay
//! byte-identical.

use backscatter_prng::{Rng64, SplitMix64, Xoshiro256};

use crate::dynamics::{in_burst, ScenarioDynamics, SlotView};
use crate::{SimError, SimResult};

/// The control-plane faults in effect for one slot, returned by
/// [`crate::medium::Medium::begin_slot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotFaults {
    /// The reader lost frame sync on this collision slot: tags transmit (and
    /// spend energy) but the reader discards the observation.  Singleton
    /// polls (TDMA-style, one tag addressed per slot) resynchronize on the
    /// preamble and are unaffected.
    pub collision_erased: bool,
    /// The downlink feedback sent at this slot (ACK / extra-slot request /
    /// poll command) is lost or corrupted and no tag acts on it.
    pub feedback_lost: bool,
    /// The reader process restarts at this slot: all undecoded session RAM
    /// is lost unless the protocol checkpoints.
    pub reader_restart: bool,
    /// Tags (by index) that reset at this slot and stay dark for the rest of
    /// the session.
    pub tags_reset: Vec<usize>,
}

/// Independent per-slot frame-sync loss on collision slots: each slot is
/// erased with probability `probability`.
#[derive(Debug, Clone, Copy)]
pub struct SlotErasure {
    probability: f64,
}

impl SlotErasure {
    /// Creates an erasure source with per-slot probability in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns an error for a probability outside `[0, 1]`.
    pub fn new(probability: f64) -> SimResult<Self> {
        if !(0.0..=1.0).contains(&probability) {
            return Err(SimError::InvalidParameter(
                "erasure probability must be in [0, 1]",
            ));
        }
        Ok(Self { probability })
    }
}

impl ScenarioDynamics for SlotErasure {
    fn apply(&self, view: &mut SlotView<'_>) {
        view.faults.collision_erased |= view.rng.next_f64() < self.probability;
    }
}

/// Periodic bursts of consecutive erased slots, phase-randomized per frame in
/// the style of [`crate::dynamics::BurstyInterference`]: each
/// `period_slots`-slot frame contains one run of `burst_slots` erased slots
/// at a frame-seeded offset.
#[derive(Debug, Clone, Copy)]
pub struct BurstSlotLoss {
    period_slots: u64,
    burst_slots: u64,
}

impl BurstSlotLoss {
    /// Creates a bursty erasure source.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < burst_slots <= period_slots`.
    pub fn new(period_slots: u64, burst_slots: u64) -> SimResult<Self> {
        if period_slots == 0 || burst_slots == 0 || burst_slots > period_slots {
            return Err(SimError::InvalidParameter(
                "burst loss needs 0 < burst_slots <= period_slots",
            ));
        }
        Ok(Self {
            period_slots,
            burst_slots,
        })
    }
}

impl ScenarioDynamics for BurstSlotLoss {
    fn apply(&self, view: &mut SlotView<'_>) {
        let (period, burst) = (self.period_slots, self.burst_slots);
        view.faults.collision_erased |= in_burst(view.stream_seed, view.slot, period, burst);
    }
}

/// Independent loss of the downlink feedback sent at a slot (ACKs, extra-slot
/// requests, poll commands).
#[derive(Debug, Clone, Copy)]
pub struct FeedbackLoss {
    probability: f64,
}

impl FeedbackLoss {
    /// Creates a feedback-loss source with per-slot probability in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns an error for a probability outside `[0, 1]`.
    pub fn new(probability: f64) -> SimResult<Self> {
        if !(0.0..=1.0).contains(&probability) {
            return Err(SimError::InvalidParameter(
                "feedback loss probability must be in [0, 1]",
            ));
        }
        Ok(Self { probability })
    }
}

impl ScenarioDynamics for FeedbackLoss {
    fn apply(&self, view: &mut SlotView<'_>) {
        view.faults.feedback_lost |= view.rng.next_f64() < self.probability;
    }
}

/// CRC-corrupting frame noise: with probability `probability` a slot's
/// observations see `power_factor` times its noise power, scaled the way
/// [`crate::dynamics::BurstyInterference`] scales a burst slot.
#[derive(Debug, Clone, Copy)]
pub struct FrameNoise {
    probability: f64,
    power_factor: f64,
}

impl FrameNoise {
    /// Creates a frame-noise source.
    ///
    /// # Errors
    ///
    /// Returns an error for a probability outside `[0, 1]` or a power factor
    /// below 1.
    pub fn new(probability: f64, power_factor: f64) -> SimResult<Self> {
        if !(0.0..=1.0).contains(&probability) {
            return Err(SimError::InvalidParameter(
                "frame noise probability must be in [0, 1]",
            ));
        }
        if !power_factor.is_finite() || power_factor < 1.0 {
            return Err(SimError::InvalidParameter(
                "frame noise power factor must be >= 1",
            ));
        }
        Ok(Self {
            probability,
            power_factor,
        })
    }
}

impl ScenarioDynamics for FrameNoise {
    fn apply(&self, view: &mut SlotView<'_>) {
        if view.rng.next_f64() < self.probability {
            *view.noise_scale *= self.power_factor;
        }
    }
}

/// Per-tag stream salt within a [`TagDropout`] stream.
const TAG_STREAM_SALT: u64 = 0x7a9_1001;

/// Mid-transfer tag reset/dropout: each tag independently browns out with
/// probability `probability`, at a slot drawn uniformly from
/// `[1, horizon_slots]`.  A reset tag stays dark for the rest of the session.
#[derive(Debug, Clone, Copy)]
pub struct TagDropout {
    probability: f64,
    horizon_slots: u64,
}

impl TagDropout {
    /// Creates a dropout source.
    ///
    /// # Errors
    ///
    /// Returns an error for a probability outside `[0, 1]` or a zero horizon.
    pub fn new(probability: f64, horizon_slots: u64) -> SimResult<Self> {
        if !(0.0..=1.0).contains(&probability) {
            return Err(SimError::InvalidParameter(
                "dropout probability must be in [0, 1]",
            ));
        }
        if horizon_slots == 0 {
            return Err(SimError::InvalidParameter(
                "dropout horizon must be non-zero",
            ));
        }
        Ok(Self {
            probability,
            horizon_slots,
        })
    }
}

impl ScenarioDynamics for TagDropout {
    fn apply(&self, view: &mut SlotView<'_>) {
        // Per-tag decisions come from per-tag streams keyed on the
        // session-constant stream seed, so the drop schedule is a pure
        // function of the medium's seed — not of the slots visited so far.
        for tag in 0..view.channels.len() {
            let mut rng = Xoshiro256::seed_from_u64(SplitMix64::mix(
                view.stream_seed,
                TAG_STREAM_SALT + tag as u64,
            ));
            if rng.next_f64() >= self.probability {
                continue;
            }
            let reset_slot = 1 + rng.next_bounded(self.horizon_slots);
            if reset_slot == view.slot {
                view.faults.tags_reset.push(tag);
            }
        }
    }
}

/// Deterministic reader restart at a chosen slot: session RAM is lost there
/// unless the protocol checkpoints its decoder state.
#[derive(Debug, Clone, Copy)]
pub struct ReaderRestart {
    at_slot: u64,
}

impl ReaderRestart {
    /// Creates a restart at `at_slot`.
    #[must_use]
    pub fn new(at_slot: u64) -> Self {
        Self { at_slot }
    }
}

impl ScenarioDynamics for ReaderRestart {
    fn apply(&self, view: &mut SlotView<'_>) {
        view.faults.reader_restart |= view.slot == self.at_slot;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use backscatter_phy::channel::Channel;
    use backscatter_phy::complex::Complex;

    use super::*;
    use crate::dynamics::Mobility;
    use crate::medium::{Medium, MediumConfig};

    /// A `num_tags`-tag medium carrying `dynamics` and `faults`.
    fn medium(
        num_tags: usize,
        seed: u64,
        dynamics: Vec<Arc<dyn ScenarioDynamics>>,
        faults: Vec<Arc<dyn ScenarioDynamics>>,
    ) -> Medium {
        let channels = (0..num_tags)
            .map(|i| Channel::from_coefficient(Complex::new(1.0, i as f64)))
            .collect();
        Medium::new(channels, MediumConfig::default())
            .unwrap()
            .with_effects(dynamics, faults, seed)
    }

    fn plan(num_tags: usize, faults: Vec<Arc<dyn ScenarioDynamics>>) -> Medium {
        medium(num_tags, 0xbadc0de, Vec::new(), faults)
    }

    #[test]
    fn constructors_validate_parameters() {
        assert!(SlotErasure::new(-0.1).is_err());
        assert!(SlotErasure::new(1.1).is_err());
        assert!(BurstSlotLoss::new(0, 1).is_err());
        assert!(BurstSlotLoss::new(4, 5).is_err());
        assert!(FeedbackLoss::new(2.0).is_err());
        assert!(FrameNoise::new(0.5, 0.5).is_err());
        assert!(FrameNoise::new(1.5, 2.0).is_err());
        assert!(TagDropout::new(0.5, 0).is_err());
    }

    #[test]
    fn slot_faults_is_pure_and_order_independent() {
        let mut m = plan(
            4,
            vec![
                Arc::new(SlotErasure::new(0.4).unwrap()),
                Arc::new(FeedbackLoss::new(0.3).unwrap()),
                Arc::new(FrameNoise::new(0.3, 16.0).unwrap()),
                Arc::new(TagDropout::new(0.5, 32).unwrap()),
            ],
        );
        let mut visit = |s: u64| (m.begin_slot(s), m.slot_noise_power() / m.noise_power());
        let forward: Vec<_> = (0..64).map(&mut visit).collect();
        let backward: Vec<_> = (0..64).rev().map(&mut visit).collect();
        for (slot, faults) in forward.iter().enumerate() {
            assert_eq!(faults, &backward[63 - slot]);
            // Re-visiting the same slot is identical too.
            assert_eq!(faults, &visit(slot as u64));
        }
        // Some slot actually carries each kind of fault at these rates.
        assert!(forward.iter().any(|(f, _)| f.collision_erased));
        assert!(forward.iter().any(|(f, _)| f.feedback_lost));
        assert!(forward.iter().any(|&(_, noise)| noise > 1.0));
        assert!(forward.iter().any(|(f, _)| !f.tags_reset.is_empty()));
    }

    #[test]
    fn different_seeds_give_different_erasure_patterns() {
        let erasures = |seed: u64| -> Vec<bool> {
            let faults: Vec<Arc<dyn ScenarioDynamics>> =
                vec![Arc::new(SlotErasure::new(0.5).unwrap())];
            let mut m = medium(1, seed, Vec::new(), faults);
            (0..64).map(|s| m.begin_slot(s).collision_erased).collect()
        };
        assert_ne!(erasures(1), erasures(2));
    }

    #[test]
    fn burst_loss_erases_exactly_burst_slots_per_frame() {
        let mut m = plan(1, vec![Arc::new(BurstSlotLoss::new(8, 3).unwrap())]);
        for frame in 0..8u64 {
            let erased = (0..8)
                .filter(|pos| m.begin_slot(frame * 8 + pos).collision_erased)
                .count();
            assert_eq!(erased, 3, "frame {frame}");
        }
    }

    #[test]
    fn dropout_schedule_is_per_tag_and_sticky_to_one_slot() {
        let mut m = plan(5, vec![Arc::new(TagDropout::new(1.0, 16).unwrap())]);
        let mut reset_slots = [None; 5];
        for slot in 0..=16u64 {
            for tag in m.begin_slot(slot).tags_reset {
                assert!(reset_slots[tag].is_none(), "tag {tag} reset twice");
                reset_slots[tag] = Some(slot);
            }
        }
        // probability 1.0 => every tag resets somewhere in [1, horizon].
        for (tag, slot) in reset_slots.iter().enumerate() {
            let slot = slot.unwrap_or_else(|| panic!("tag {tag} never reset"));
            assert!((1..=16).contains(&slot));
        }
    }

    #[test]
    fn reader_restart_fires_only_at_its_slot() {
        let mut m = plan(1, vec![Arc::new(ReaderRestart::new(7))]);
        for slot in 0..32u64 {
            assert_eq!(m.begin_slot(slot).reader_restart, slot == 7);
        }
    }

    #[test]
    fn empty_plan_is_fault_free() {
        let mut m = plan(3, vec![]);
        assert!(!m.has_faults());
        for slot in 0..16u64 {
            assert_eq!(m.begin_slot(slot), SlotFaults::default());
            assert_eq!(m.slot_noise_power(), m.noise_power());
        }
    }

    #[test]
    fn faults_and_dynamics_draw_independent_streams() {
        // Attaching a fault beside a dynamics moves neither: the channels
        // follow the dynamics-only medium and the erasures the fault-only
        // one, slot for slot.
        let mobility = || -> Vec<Arc<dyn ScenarioDynamics>> {
            vec![Arc::new(Mobility::new(0.1, 0.2).unwrap())]
        };
        let erasure =
            || -> Vec<Arc<dyn ScenarioDynamics>> { vec![Arc::new(SlotErasure::new(0.5).unwrap())] };
        let mut both = medium(3, 17, mobility(), erasure());
        let mut moving = medium(3, 17, mobility(), Vec::new());
        let mut erasing = medium(3, 17, Vec::new(), erasure());
        let mut erased = 0;
        for slot in 0..64u64 {
            let faults = both.begin_slot(slot);
            assert_eq!(moving.begin_slot(slot), SlotFaults::default());
            assert_eq!(both.channels(), moving.channels(), "slot {slot}");
            assert_eq!(faults, erasing.begin_slot(slot), "slot {slot}");
            erased += usize::from(faults.collision_erased);
        }
        assert!((1..64).contains(&erased), "erased {erased} of 64");
    }
}
