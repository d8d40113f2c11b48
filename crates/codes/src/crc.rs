//! The cyclic redundancy check of Buzz messages.
//!
//! **CRC-5** (polynomial `x^5 + x^3 + 1`, preset `01001`) protects Gen-2
//! Query commands; the paper's uplink experiments attach a 5-bit CRC to each
//! 32-bit tag message (§9).
//!
//! It is implemented bit-serially over `bool` slices because every caller in
//! this workspace works with bit vectors, and messages are at most a few
//! hundred bits long.

use crate::{CodeError, CodeResult};

/// The 5-bit CRC defined in EPC Gen-2 Annex F.
#[derive(Debug, Clone, Copy, Default)]
pub struct Crc5 {
    _private: (),
}

impl Crc5 {
    /// Polynomial x^5 + x^3 + 1 (0b101001 with the implicit leading term).
    const POLY: u8 = 0b0_1001;
    /// Preset value defined by the standard.
    const PRESET: u8 = 0b0_1001;

    /// Creates a CRC-5 engine.
    #[must_use]
    pub fn new() -> Self {
        Self { _private: () }
    }

    /// Computes the 5-bit CRC of `bits`, returned as 5 bits MSB first.
    #[must_use]
    pub fn compute(&self, bits: &[bool]) -> Vec<bool> {
        let mut reg = Self::PRESET;
        for &bit in bits {
            let msb = (reg >> 4) & 1;
            let feedback = msb ^ u8::from(bit);
            reg = (reg << 1) & 0b1_1111;
            if feedback == 1 {
                reg ^= Self::POLY;
            }
        }
        (0..5).rev().map(|i| (reg >> i) & 1 == 1).collect()
    }

    /// Appends the CRC to a copy of `bits`.
    #[must_use]
    pub fn append(&self, bits: &[bool]) -> Vec<bool> {
        let mut out = bits.to_vec();
        out.extend(self.compute(bits));
        out
    }

    /// Checks a bit string whose last 5 bits are the CRC of the rest.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::LengthMismatch`] if fewer than 5 bits are given.
    pub fn check(&self, bits_with_crc: &[bool]) -> CodeResult<bool> {
        if bits_with_crc.len() < 5 {
            return Err(CodeError::LengthMismatch {
                expected: 5,
                actual: bits_with_crc.len(),
            });
        }
        let (data, crc) = bits_with_crc.split_at(bits_with_crc.len() - 5);
        Ok(self.compute(data) == crc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::u64_to_bits;
    use backscatter_prng::BitStream;

    #[test]
    fn crc5_detects_single_bit_errors() {
        let crc = Crc5::new();
        let mut stream = BitStream::seed_from_u64(1);
        for _ in 0..20 {
            let data = stream.take_bits(32);
            let framed = crc.append(&data);
            assert!(crc.check(&framed).unwrap());
            for i in 0..framed.len() {
                let mut corrupted = framed.clone();
                corrupted[i] = !corrupted[i];
                assert!(!crc.check(&corrupted).unwrap(), "missed error at bit {i}");
            }
        }
    }

    #[test]
    fn crc5_is_deterministic_and_5_bits() {
        let crc = Crc5::new();
        let data = u64_to_bits(0xDEADBEEF, 32).unwrap();
        let a = crc.compute(&data);
        let b = crc.compute(&data);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn crc5_check_requires_minimum_length() {
        assert!(Crc5::new().check(&[true; 4]).is_err());
        // Exactly 5 bits: empty payload + CRC of empty payload.
        let framed = Crc5::new().append(&[]);
        assert!(Crc5::new().check(&framed).unwrap());
    }

    #[test]
    fn crc5_golden_vectors() {
        // Pinned outputs: the CRC is part of the protocol wire format, so any
        // drift here silently breaks tag/reader agreement.
        let crc = Crc5::new();
        let as_value = |bits: &[bool]| bits.iter().fold(0u8, |a, &b| (a << 1) | u8::from(b));
        for (value, width, expected) in [
            (0u64, 32usize, 0b10010u8),
            (0xDEAD_BEEF, 32, 0b01010),
            ((1 << 17) - 1, 17, 0b11010),
            (2012, 16, 0b11100),
        ] {
            let bits = u64_to_bits(value, width).unwrap();
            assert_eq!(
                as_value(&crc.compute(&bits)),
                expected,
                "CRC-5 of {value:#x}/{width}"
            );
        }
    }

    #[test]
    fn crc5_residue_is_zero() {
        // EPC Gen-2 Annex F receiver check: clocking data followed by its own
        // CRC-5 through the register leaves the register at zero.
        let crc = Crc5::new();
        let mut stream = BitStream::seed_from_u64(5);
        for len in [1usize, 16, 32, 100] {
            let framed = crc.append(&stream.take_bits(len));
            assert!(crc.compute(&framed).iter().all(|&b| !b));
        }
    }

    #[test]
    fn different_payloads_rarely_share_crc5() {
        // Sanity: CRC-5 of 0 and 1 differ.
        let crc = Crc5::new();
        let a = crc.compute(&u64_to_bits(0, 32).unwrap());
        let b = crc.compute(&u64_to_bits(1, 32).unwrap());
        assert_ne!(a, b);
    }
}
