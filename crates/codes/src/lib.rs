//! Coding substrates for backscatter links.
//!
//! Everything in this crate operates on plain bit vectors and is shared by the
//! Buzz protocol, the EPC Gen-2 substrate, and the TDMA/CDMA baselines:
//!
//! * [`crc`] — the CRC-5 check defined by EPC Gen-2, which the paper's
//!   uplink messages carry,
//! * [`walsh`] — Walsh–Hadamard orthogonal spreading codes for the CDMA
//!   baseline,
//! * [`rn16`] — the temporary-id spaces Buzz uses once `K` is known, in
//!   place of Gen-2's 16-bit RN16,
//! * [`message`] — tag payload construction (data + CRC) and verification.
//!
//! The matrices the protocol decodes against live beside their readers: the
//! identification phase's sensing matrix `A′` in `sparse_recovery::sensing`,
//! and the data phase's participation matrix `D` in the `buzz` crate, next
//! to its decoder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod message;
pub mod rn16;
pub mod walsh;

pub use crc::Crc5;
pub use message::Message;
pub use rn16::TemporaryIdSpace;
pub use walsh::WalshCode;

/// Errors produced by coding operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// A parameter was outside its valid domain.
    InvalidParameter(&'static str),
    /// Data lengths disagree (e.g. chips not a multiple of the spreading
    /// factor).
    LengthMismatch {
        /// Expected length (or multiple).
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A requested index was out of range.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The allowed bound (exclusive).
        bound: usize,
    },
}

impl core::fmt::Display for CodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodeError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            CodeError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            CodeError::IndexOutOfRange { index, bound } => {
                write!(f, "index {index} out of range (bound {bound})")
            }
        }
    }
}

impl std::error::Error for CodeError {}

/// Result alias for coding operations.
pub type CodeResult<T> = Result<T, CodeError>;

/// Packs a bit slice (MSB first) into a `u64`.
///
/// # Errors
///
/// Returns [`CodeError::InvalidParameter`] for more than 64 bits.
pub fn bits_to_u64(bits: &[bool]) -> CodeResult<u64> {
    if bits.len() > 64 {
        return Err(CodeError::InvalidParameter("more than 64 bits"));
    }
    Ok(bits.iter().fold(0u64, |acc, &b| (acc << 1) | u64::from(b)))
}

/// Unpacks the low `width` bits of a `u64` into a bit vector (MSB first).
///
/// # Errors
///
/// Returns [`CodeError::InvalidParameter`] for a width above 64.
pub fn u64_to_bits(value: u64, width: usize) -> CodeResult<Vec<bool>> {
    if width > 64 {
        return Err(CodeError::InvalidParameter("width above 64 bits"));
    }
    Ok((0..width).rev().map(|i| (value >> i) & 1 == 1).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_packing_round_trip() {
        let bits = u64_to_bits(0b1011_0010, 8).unwrap();
        assert_eq!(
            bits,
            vec![true, false, true, true, false, false, true, false]
        );
        assert_eq!(bits_to_u64(&bits).unwrap(), 0b1011_0010);
    }

    #[test]
    fn bit_packing_validates_width() {
        assert!(u64_to_bits(0, 65).is_err());
        assert!(bits_to_u64(&[false; 65]).is_err());
        assert_eq!(bits_to_u64(&[]).unwrap(), 0);
        assert_eq!(u64_to_bits(5, 0).unwrap(), Vec::<bool>::new());
    }

    #[test]
    fn error_display() {
        assert!(CodeError::InvalidParameter("x").to_string().contains("x"));
        assert!(CodeError::LengthMismatch {
            expected: 1,
            actual: 2
        }
        .to_string()
        .contains("expected 1"));
        assert!(CodeError::IndexOutOfRange { index: 9, bound: 4 }
            .to_string()
            .contains("9"));
    }
}
