//! The Miller-M baseband line code used by EPC Gen-2 backscatter links.
//!
//! EPC Gen-2 tags encode their uplink bits with either FM0 or Miller-M
//! (M ∈ {2, 4, 8}) *before* ON-OFF keying them onto the carrier.  The paper's
//! TDMA baseline uses Miller-4 (§9), which trades 4 subcarrier cycles per bit
//! (4× more impedance switching, hence 4× the symbol rate and more energy,
//! see Fig. 13) for robustness to bad channels.
//!
//! The encoder works at the *chip* level: one data bit becomes
//! `chips_per_bit` binary chips, each of which is then OOK-modulated.  The
//! decoder correlates against the two candidate chip patterns per bit.

use crate::{PhyError, PhyResult};

/// Miller-M encoding: each data bit is multiplied by a square-wave subcarrier
/// of M cycles per bit; data is carried in the phase inversions between bits.
///
/// The implementation captures the two properties the evaluation depends on:
/// the M-fold increase in chip rate (bandwidth/robustness trade) and the
/// 2·M impedance transitions per bit (energy cost, Fig. 13).
#[derive(Debug, Clone, Copy)]
pub struct Miller {
    m: usize,
}

impl Miller {
    /// Creates a Miller encoder with `m` subcarrier cycles per bit.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] unless `m ∈ {2, 4, 8}` (the
    /// values the Gen-2 standard defines).
    pub fn new(m: usize) -> PhyResult<Self> {
        if !matches!(m, 2 | 4 | 8) {
            return Err(PhyError::InvalidParameter("Miller M must be 2, 4, or 8"));
        }
        Ok(Self { m })
    }

    /// The chip pattern for one bit given the starting subcarrier phase,
    /// returning `(chips, ending_phase)`.
    ///
    /// Exposed so that soft (matched-filter) decoders can correlate received
    /// samples against the two candidate patterns instead of slicing each chip
    /// in isolation.
    pub fn bit_pattern(&self, bit: bool, phase: bool) -> (Vec<bool>, bool) {
        // Subcarrier: alternating chips, 2 chips per cycle.
        // Data "1": phase inversion in the middle of the bit.
        // Data "0": no mid-bit inversion (inversion at the boundary instead is
        // handled by the caller's running phase).
        let mut chips = Vec::with_capacity(2 * self.m);
        let mut level = phase;
        let half = self.m; // chips in half a bit = m (2m chips per bit total)
        for i in 0..(2 * self.m) {
            if bit && i == half {
                level = !level; // mid-bit phase inversion encodes "1"
            }
            chips.push(level);
            level = !level;
        }
        // The next bit starts from the level following the last chip; a data
        // "0" additionally inverts phase at the boundary (Miller rule: phase
        // inversion between two consecutive "0"s).
        let end_phase = if bit { level } else { !level };
        (chips, end_phase)
    }

    /// Number of chips transmitted per data bit.
    #[must_use]
    pub fn chips_per_bit(&self) -> usize {
        2 * self.m
    }

    /// Encodes a full bit string into chips.
    #[must_use]
    pub fn encode(&self, bits: &[bool]) -> Vec<bool> {
        let mut chips = Vec::with_capacity(bits.len() * 2 * self.m);
        let mut phase = true;
        for &bit in bits {
            let (mut c, next) = self.bit_pattern(bit, phase);
            chips.append(&mut c);
            phase = next;
        }
        chips
    }

    /// Decodes chips back into bits by per-bit correlation.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::LengthMismatch`] if `chips` is not a whole number
    /// of encoded bits.
    pub fn decode(&self, chips: &[bool]) -> PhyResult<Vec<bool>> {
        let per = self.chips_per_bit();
        if !chips.len().is_multiple_of(per) {
            return Err(PhyError::LengthMismatch {
                expected: (chips.len() / per + 1) * per,
                actual: chips.len(),
            });
        }
        // Correlate each bit period against the two candidate patterns for
        // both possible starting phases and pick the best match; track phase
        // forward like the encoder does.
        let mut bits = Vec::with_capacity(chips.len() / per);
        let mut phase = true;
        for window in chips.chunks_exact(per) {
            let (p1, next1) = self.bit_pattern(true, phase);
            let (p0, next0) = self.bit_pattern(false, phase);
            let score1 = window.iter().zip(&p1).filter(|(a, b)| a == b).count();
            let score0 = window.iter().zip(&p0).filter(|(a, b)| a == b).count();
            if score1 >= score0 {
                bits.push(true);
                phase = next1;
            } else {
                bits.push(false);
                phase = next0;
            }
        }
        Ok(bits)
    }

    /// Number of impedance transitions per data bit, used by the energy
    /// model: each transition costs switching energy on the tag.
    #[must_use]
    pub fn transitions_per_bit(&self) -> f64 {
        // One transition per chip boundary within the bit: ≈ 2·M transitions.
        2.0 * self.m as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_prng::{BitStream, Rng64, Xoshiro256};

    #[test]
    fn miller_requires_valid_m() {
        assert!(Miller::new(3).is_err());
        assert!(Miller::new(2).is_ok());
        assert!(Miller::new(8).is_ok());
    }

    #[test]
    fn miller4_round_trip() {
        let code = Miller::new(4).unwrap();
        let mut stream = BitStream::seed_from_u64(2);
        let bits = stream.take_bits(200);
        let chips = code.encode(&bits);
        assert_eq!(chips.len(), 200 * 8);
        assert_eq!(code.decode(&chips).unwrap(), bits);
    }

    #[test]
    fn miller2_and_miller8_round_trip() {
        for m in [2usize, 8] {
            let code = Miller::new(m).unwrap();
            let mut stream = BitStream::seed_from_u64(m as u64);
            let bits = stream.take_bits(64);
            assert_eq!(code.decode(&code.encode(&bits)).unwrap(), bits);
        }
    }

    #[test]
    fn miller_rejects_partial_bit() {
        let code = Miller::new(4).unwrap();
        let chips = code.encode(&[true]);
        assert!(code.decode(&chips[..chips.len() - 1]).is_err());
    }

    #[test]
    fn miller_decode_survives_sparse_chip_errors() {
        // Miller-4's redundancy (8 chips/bit) lets the correlator absorb one
        // flipped chip per bit — the robustness property the paper's TDMA
        // baseline relies on.
        let code = Miller::new(4).unwrap();
        let bits = vec![true, false, false, true, true, false];
        let mut chips = code.encode(&bits);
        let mut rng = Xoshiro256::seed_from_u64(3);
        for b in 0..bits.len() {
            let idx = b * 8 + (rng.next_bounded(8) as usize);
            chips[idx] = !chips[idx];
        }
        assert_eq!(code.decode(&chips).unwrap(), bits);
    }

    #[test]
    fn transition_counts_reflect_energy_cost() {
        assert_eq!(Miller::new(4).unwrap().transitions_per_bit(), 8.0);
        assert_eq!(Miller::new(2).unwrap().transitions_per_bit(), 4.0);
    }

    #[test]
    fn chips_per_bit_values() {
        assert_eq!(Miller::new(4).unwrap().chips_per_bit(), 8);
        assert_eq!(Miller::new(2).unwrap().chips_per_bit(), 4);
    }
}
