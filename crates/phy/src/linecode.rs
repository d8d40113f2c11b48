//! Baseband line codes used by EPC Gen-2 backscatter links.
//!
//! EPC Gen-2 tags encode their uplink bits with either FM0 or Miller-M
//! (M ∈ {2, 4, 8}) *before* ON-OFF keying them onto the carrier.  The paper's
//! TDMA baseline uses Miller-4 (§9), which trades 4 subcarrier cycles per bit
//! (4× more impedance switching, hence 4× the symbol rate and more energy,
//! see Fig. 13) for robustness to bad channels.
//!
//! These encoders work at the *chip* level: one data bit becomes `chips_per_bit`
//! binary chips, each of which is then OOK-modulated.  The decoders correlate
//! against the two candidate chip patterns per bit.

use crate::{PhyError, PhyResult};

/// A binary line code mapping data bits to transmitted chips.
pub trait LineCode {
    /// Number of chips transmitted per data bit.
    fn chips_per_bit(&self) -> usize;

    /// Encodes a full bit string into chips.
    fn encode(&self, bits: &[bool]) -> Vec<bool>;

    /// Decodes chips back into bits by per-bit correlation.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::LengthMismatch`] if `chips` is not a whole number
    /// of encoded bits.
    fn decode(&self, chips: &[bool]) -> PhyResult<Vec<bool>>;

    /// Number of impedance transitions per data bit (averaged over the two bit
    /// values), used by the energy model: each transition costs switching
    /// energy on the tag.
    fn transitions_per_bit(&self) -> f64;
}

/// FM0 (bi-phase space) encoding: the baseline inverts at every bit boundary,
/// and a "0" bit has an additional mid-bit inversion.
///
/// FM0 is the lowest-overhead Gen-2 encoding (2 chips/bit) and is what the
/// paper's Buzz data phase effectively assumes (plain OOK at the data rate,
/// 1 transition per bit on average).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fm0 {
    _private: (),
}

impl Fm0 {
    /// Creates an FM0 encoder.
    #[must_use]
    pub fn new() -> Self {
        Self { _private: () }
    }
}

impl LineCode for Fm0 {
    fn chips_per_bit(&self) -> usize {
        2
    }

    fn encode(&self, bits: &[bool]) -> Vec<bool> {
        // Track the current baseband level; FM0 always inverts at a bit
        // boundary, and inverts mid-bit for a data "0".
        let mut level = true;
        let mut chips = Vec::with_capacity(bits.len() * 2);
        for &bit in bits {
            level = !level; // boundary inversion
            chips.push(level);
            if !bit {
                level = !level; // mid-bit inversion encodes "0"
            }
            chips.push(level);
        }
        chips
    }

    fn decode(&self, chips: &[bool]) -> PhyResult<Vec<bool>> {
        if !chips.len().is_multiple_of(2) {
            return Err(PhyError::LengthMismatch {
                expected: chips.len() + 1,
                actual: chips.len(),
            });
        }
        // A bit is "1" when the two half-bit chips are equal (no mid-bit
        // inversion), "0" when they differ.
        Ok(chips
            .chunks_exact(2)
            .map(|pair| pair[0] == pair[1])
            .collect())
    }

    fn transitions_per_bit(&self) -> f64 {
        // Boundary inversion always (1) + mid-bit inversion for "0" bits
        // (expected 0.5 for random data).
        1.5
    }
}

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

    /// The subcarrier cycles per bit.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
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
}

impl LineCode for Miller {
    fn chips_per_bit(&self) -> usize {
        2 * self.m
    }

    fn encode(&self, bits: &[bool]) -> Vec<bool> {
        let mut chips = Vec::with_capacity(bits.len() * 2 * self.m);
        let mut phase = true;
        for &bit in bits {
            let (mut c, next) = self.bit_pattern(bit, phase);
            chips.append(&mut c);
            phase = next;
        }
        chips
    }

    fn decode(&self, chips: &[bool]) -> PhyResult<Vec<bool>> {
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

    fn transitions_per_bit(&self) -> f64 {
        // One transition per chip boundary within the bit: ≈ 2·M transitions.
        2.0 * self.m as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_prng::{BitStream, Rng64, Xoshiro256};

    #[test]
    fn fm0_round_trip() {
        let code = Fm0::new();
        let mut stream = BitStream::seed_from_u64(1);
        let bits = stream.take_bits(256);
        let chips = code.encode(&bits);
        assert_eq!(chips.len(), 512);
        assert_eq!(code.decode(&chips).unwrap(), bits);
    }

    #[test]
    fn fm0_rejects_odd_chip_count() {
        assert!(Fm0::new().decode(&[true]).is_err());
    }

    #[test]
    fn fm0_always_inverts_at_bit_boundary() {
        let code = Fm0::new();
        let chips = code.encode(&[true, true, false, true]);
        // Chip at end of bit i must differ from chip at start of bit i+1.
        for i in 0..3 {
            assert_ne!(chips[2 * i + 1], chips[2 * i + 2]);
        }
    }

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
        assert!(Miller::new(4).unwrap().transitions_per_bit() > Fm0::new().transitions_per_bit());
        assert_eq!(Miller::new(4).unwrap().transitions_per_bit(), 8.0);
    }

    #[test]
    fn chips_per_bit_values() {
        assert_eq!(Fm0::new().chips_per_bit(), 2);
        assert_eq!(Miller::new(4).unwrap().chips_per_bit(), 8);
        assert_eq!(Miller::new(2).unwrap().chips_per_bit(), 4);
    }
}
