//! Tag uplink messages: payload + CRC framing.
//!
//! The paper's uplink experiments (§9) use 32-bit payloads protected by a
//! 5-bit CRC; the §8.2 microbenchmark uses 96-bit messages in line with the
//! Gen-2 EPC length.  A [`Message`] owns the payload bits and knows how to
//! frame itself (append CRC) and verify a decoded frame.

use backscatter_prng::{BitStream, Xoshiro256};

use crate::crc::Crc5;
use crate::{CodeError, CodeResult};

/// A tag's uplink message: the payload bits that the data-transfer phase must
/// deliver to the reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    payload: Vec<bool>,
}

impl Message {
    /// Wraps explicit payload bits.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameter`] for an empty payload.
    pub fn new(payload: Vec<bool>) -> CodeResult<Self> {
        if payload.is_empty() {
            return Err(CodeError::InvalidParameter("payload must be non-empty"));
        }
        Ok(Self { payload })
    }

    /// Generates a random payload of `bits` bits (the simulator's stand-in for
    /// sensor readings / EPC contents).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameter`] for zero bits.
    pub fn random(seed: u64, bits: usize) -> CodeResult<Self> {
        if bits == 0 {
            return Err(CodeError::InvalidParameter("payload must be non-empty"));
        }
        let mut stream = BitStream::new(Xoshiro256::seed_from_u64(seed));
        Self::new(stream.take_bits(bits))
    }

    /// The paper's standard data-phase message: 32 payload bits (framed length
    /// 37 bits with the 5-bit CRC).
    ///
    /// # Errors
    ///
    /// Propagates [`Message::random`] errors (none for this fixed size).
    pub fn standard_32bit(seed: u64) -> CodeResult<Self> {
        Self::random(seed, 32)
    }

    /// The payload bits.
    #[must_use]
    pub fn payload(&self) -> &[bool] {
        &self.payload
    }

    /// Payload length in bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty (never true for a constructed message).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// The framed bits actually transmitted: payload followed by its CRC-5.
    #[must_use]
    pub fn framed(&self) -> Vec<bool> {
        Crc5::new().append(&self.payload)
    }

    /// Checks whether candidate framed bits are a valid frame, and if so
    /// returns the recovered message.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::LengthMismatch`] if the frame is too short to
    /// contain a CRC.
    pub fn verify(framed: &[bool]) -> CodeResult<Option<Self>> {
        let crc = Crc5::new();
        if !crc.check(framed)? {
            return Ok(None);
        }
        let payload = framed[..framed.len() - 5].to_vec();
        if payload.is_empty() {
            return Ok(None);
        }
        Ok(Some(Self { payload }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_payload() {
        assert!(Message::new(vec![]).is_err());
        assert!(Message::random(1, 0).is_err());
    }

    #[test]
    fn standard_message_lengths() {
        let m = Message::standard_32bit(42).unwrap();
        assert_eq!(m.len(), 32);
        assert_eq!(m.framed().len(), 37);
        assert!(!m.is_empty());
    }

    #[test]
    fn framed_messages_verify() {
        for seed in 0..50 {
            let m = Message::random(seed, 96).unwrap();
            let recovered = Message::verify(&m.framed()).unwrap();
            assert_eq!(recovered, Some(m));
        }
    }

    #[test]
    fn corrupted_frames_fail_verification() {
        let m = Message::standard_32bit(7).unwrap();
        let mut framed = m.framed();
        framed[3] = !framed[3];
        assert_eq!(Message::verify(&framed).unwrap(), None);
    }

    #[test]
    fn verify_rejects_short_frames() {
        assert!(Message::verify(&[true; 4]).is_err());
    }

    #[test]
    fn random_messages_differ_across_seeds() {
        let a = Message::random(1, 32).unwrap();
        let b = Message::random(2, 32).unwrap();
        assert_ne!(a, b);
        let c = Message::random(1, 32).unwrap();
        assert_eq!(a, c);
    }
}
