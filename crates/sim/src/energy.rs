//! Tag energy model.
//!
//! Fig. 13 of the paper compares the per-query energy drain of Buzz, TDMA and
//! CDMA by charging a large capacitor (`C = 0.1 F`) to a starting voltage
//! `V0 ∈ {3, 4, 5}` V, replying to 8800 queries, and measuring
//! `E = ½·C·(V0² − Vf²)`.
//!
//! The model here charges a tag for three things during a reply:
//!
//! 1. a fixed wake-up/command-decode cost per query,
//! 2. static active power while the radio front end and MCU are engaged in
//!    the reply (proportional to the time spent transmitting), and
//! 3. impedance-switching cost per transition of the antenna state (this is
//!    what makes Miller-4 and CDMA chipping expensive).
//!
//! All three scale with the square of the supply voltage, reflecting CMOS
//! dynamic power, which reproduces the upward trend across `V0` in Fig. 13.

// Per-tag energy cost constants, loosely calibrated to the Moo (MSP430-class
// MCU + backscatter front end) so that a TDMA reply to one query lands in the
// µJ range of Fig. 13.

/// Wake-up + command decode energy per query at the reference voltage, J.
pub const WAKEUP_J: f64 = 0.4e-6;
/// Static power while actively replying at the reference voltage, W.
pub const ACTIVE_POWER_W: f64 = 1.5e-3;
/// Energy per antenna impedance transition at the reference voltage, J.
pub const PER_TRANSITION_J: f64 = 1.2e-9;
/// Reference supply voltage for the constants above, V.
pub const REFERENCE_VOLTAGE_V: f64 = 3.0;

/// What a tag actually transmitted while answering one query, as seen by the
/// energy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransmissionProfile {
    /// Time the tag spent actively replying (radio + MCU engaged), seconds.
    pub active_time_s: f64,
    /// Number of antenna impedance transitions performed.
    pub transitions: u64,
}

impl TransmissionProfile {
    /// A profile for transmitting `bits` bits at `bit_rate_bps` with a line
    /// code that performs `transitions_per_bit` impedance transitions per bit,
    /// repeated `repeats` times (e.g. the number of collision slots a Buzz tag
    /// participates in).
    #[must_use]
    pub fn for_bits(
        bits: usize,
        bit_rate_bps: f64,
        transitions_per_bit: f64,
        repeats: usize,
    ) -> Self {
        let per_message_s = if bit_rate_bps > 0.0 {
            bits as f64 / bit_rate_bps
        } else {
            0.0
        };
        Self {
            active_time_s: per_message_s * repeats as f64,
            transitions: (bits as f64 * transitions_per_bit * repeats as f64).round() as u64,
        }
    }

    /// The energy this reply costs at supply voltage `supply_v`: the three
    /// costs above, scaled by `(V / Vref)²`.
    #[must_use]
    pub fn reply_energy_j(&self, supply_v: f64) -> f64 {
        let r = supply_v / REFERENCE_VOLTAGE_V;
        let scale = r * r;
        let raw = WAKEUP_J
            + ACTIVE_POWER_W * self.active_time_s
            + PER_TRANSITION_J * self.transitions as f64;
        raw * scale
    }

    /// Merges two profiles (e.g. identification phase + data phase).
    #[must_use]
    pub fn combined(&self, other: &TransmissionProfile) -> Self {
        Self {
            active_time_s: self.active_time_s + other.active_time_s,
            transitions: self.transitions + other.transitions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_energy_scales_with_voltage() {
        let profile = TransmissionProfile::for_bits(37, 80_000.0, 1.5, 1);
        let e3 = profile.reply_energy_j(3.0);
        let e5 = profile.reply_energy_j(5.0);
        assert!(e5 > e3);
        assert!((e5 / e3 - 25.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn more_transitions_cost_more() {
        // Same bits, FM0-style vs Miller-4-style transition counts.
        let fm0 = TransmissionProfile::for_bits(37, 80_000.0, 1.5, 1);
        let miller4 = TransmissionProfile::for_bits(37, 80_000.0, 8.0, 1);
        assert!(miller4.reply_energy_j(3.0) > fm0.reply_energy_j(3.0));
    }

    #[test]
    fn longer_transmissions_cost_more() {
        let once = TransmissionProfile::for_bits(37, 80_000.0, 1.5, 1);
        let many = TransmissionProfile::for_bits(37, 80_000.0, 1.5, 16);
        assert!(many.reply_energy_j(3.0) > once.reply_energy_j(3.0));
    }

    #[test]
    fn tdma_reply_energy_is_in_microjoule_range() {
        // Sanity check against Fig. 13's axis (a few to a few tens of µJ).
        let miller4 = TransmissionProfile::for_bits(37, 80_000.0, 8.0, 1);
        let e = miller4.reply_energy_j(3.0);
        assert!(e > 0.1e-6 && e < 50e-6, "e = {e}");
    }

    #[test]
    fn combined_profiles_add() {
        let a = TransmissionProfile::for_bits(10, 1000.0, 2.0, 1);
        let b = TransmissionProfile::for_bits(20, 1000.0, 2.0, 1);
        let c = a.combined(&b);
        assert!((c.active_time_s - 0.03).abs() < 1e-12);
        assert_eq!(c.transitions, 60);
    }

    #[test]
    fn zero_bit_rate_profile_is_empty_time() {
        let p = TransmissionProfile::for_bits(10, 0.0, 2.0, 1);
        assert_eq!(p.active_time_s, 0.0);
    }
}
