//! Bit streams with configurable bias.
//!
//! Two protocol stages consume biased bit streams:
//!
//! * the cardinality-estimation stage (§5.1-A of the paper) where in step `j`
//!   every node transmits in a slot with probability `p_j = 2^{-j}`, and
//! * the data-phase participation code (§6) where every node transmits its
//!   message in a slot with a small probability chosen so that only a few
//!   nodes share each slot.

use crate::{Rng64, Xoshiro256};

/// An unbounded stream of fair pseudorandom bits driven by an [`Rng64`].
#[derive(Debug, Clone)]
pub struct BitStream<R: Rng64 = Xoshiro256> {
    rng: R,
    buffer: u64,
    remaining: u32,
}

impl<R: Rng64> BitStream<R> {
    /// Wraps a generator into a bit stream.
    pub fn new(rng: R) -> Self {
        Self {
            rng,
            buffer: 0,
            remaining: 0,
        }
    }

    /// Returns the next fair bit.
    pub fn next_bit(&mut self) -> bool {
        if self.remaining == 0 {
            self.buffer = self.rng.next_u64();
            self.remaining = 64;
        }
        let bit = self.buffer & 1 == 1;
        self.buffer >>= 1;
        self.remaining -= 1;
        bit
    }

    /// Returns the next `n` bits as a vector (LSB-first draw order).
    pub fn take_bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_bit()).collect()
    }
}

impl BitStream<Xoshiro256> {
    /// Convenience constructor from a 64-bit seed.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Self::new(Xoshiro256::seed_from_u64(seed))
    }
}

/// A stream of bits where `1` appears with probability `p`.
///
/// Each draw consumes exactly one `f64` from the underlying generator, so the
/// reader can reproduce a node's decisions by replaying the same seed with the
/// same probability schedule.
#[derive(Debug, Clone)]
pub struct BiasedBits<R: Rng64 = Xoshiro256> {
    rng: R,
    p: f64,
}

impl<R: Rng64> BiasedBits<R> {
    /// Creates a biased bit source.  `p` is clamped to `[0, 1]`.
    pub fn new(rng: R, p: f64) -> Self {
        Self {
            rng,
            p: p.clamp(0.0, 1.0),
        }
    }

    /// Returns the probability of drawing a `1`.
    pub fn probability(&self) -> f64 {
        self.p
    }

    /// Changes the probability of drawing a `1` for subsequent draws.
    ///
    /// The cardinality-estimation stage halves the probability at every step;
    /// the participation code sets it once from the reader's estimate of `K`.
    pub fn set_probability(&mut self, p: f64) {
        self.p = p.clamp(0.0, 1.0);
    }

    /// Draws the next biased bit.
    pub fn next_bit(&mut self) -> bool {
        self.rng.next_f64() < self.p
    }

    /// Draws `n` biased bits.
    pub fn take_bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_bit()).collect()
    }
}

impl BiasedBits<Xoshiro256> {
    /// Convenience constructor from a 64-bit seed.
    #[must_use]
    pub fn seed_from_u64(seed: u64, p: f64) -> Self {
        Self::new(Xoshiro256::seed_from_u64(seed), p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitstream_is_deterministic() {
        let mut a = BitStream::seed_from_u64(11);
        let mut b = BitStream::seed_from_u64(11);
        assert_eq!(a.take_bits(500), b.take_bits(500));
    }

    #[test]
    fn bitstream_buffer_refills() {
        let mut s = BitStream::seed_from_u64(3);
        // More than 64 bits forces at least one refill.
        let bits = s.take_bits(200);
        assert_eq!(bits.len(), 200);
        assert!(bits.iter().any(|&b| b));
        assert!(bits.iter().any(|&b| !b));
    }

    #[test]
    fn biased_bits_probability_zero_and_one() {
        let mut zero = BiasedBits::seed_from_u64(1, 0.0);
        let mut one = BiasedBits::seed_from_u64(1, 1.0);
        assert!(zero.take_bits(100).iter().all(|&b| !b));
        assert!(one.take_bits(100).iter().all(|&b| b));
    }

    #[test]
    fn biased_bits_clamps_probability() {
        let b = BiasedBits::seed_from_u64(1, 7.5);
        assert_eq!(b.probability(), 1.0);
        let b = BiasedBits::seed_from_u64(1, -2.0);
        assert_eq!(b.probability(), 0.0);
    }

    #[test]
    fn biased_bits_empirical_rate() {
        for &p in &[0.1, 0.25, 0.5, 0.9] {
            let mut b = BiasedBits::seed_from_u64(77, p);
            let n = 40_000;
            let ones = b.take_bits(n).iter().filter(|&&x| x).count();
            let rate = ones as f64 / n as f64;
            assert!((rate - p).abs() < 0.02, "p = {p}, rate = {rate}");
        }
    }

    #[test]
    fn set_probability_takes_effect() {
        let mut b = BiasedBits::seed_from_u64(5, 1.0);
        assert!(b.next_bit());
        b.set_probability(0.0);
        assert!(!b.next_bit());
    }
}
