//! Deterministic pseudorandom sequences shared by backscatter tags and the reader.
//!
//! Buzz requires that a backscatter node and the reader derive *bit-identical*
//! pseudorandom sequences from a shared seed (the node's id and, for the data
//! phase, the time-slot index).  The node uses the sequence to decide whether
//! to reflect the reader's carrier in a given slot; the reader regenerates the
//! same sequence to reconstruct the sensing matrix `A` (identification phase)
//! and the participation matrix `D` (data phase).
//!
//! To guarantee reproducibility across the two sides of the link — and across
//! library versions — this crate implements the generators from scratch rather
//! than relying on an external crate whose stream might change between
//! releases.  The generators are:
//!
//! * [`SplitMix64`] — a tiny 64-bit mixer used to expand seeds,
//! * [`Xoshiro256`] — the xoshiro256** generator used for all per-node
//!   sequences,
//! * [`BiasedBits`] — a stream of `{0, 1}` bits where `1` appears with a
//!   configurable probability `p` (used for the probability-halving
//!   cardinality-estimation stage and the sparse participation code),
//! * [`NodeSeed`] — per-node decisions keyed by the `(node id, slot)` pair,
//!   mirroring §6(a) of the paper where the data-phase generator is "seeded
//!   by its own temporary id and the current time slot".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod seed;
pub mod splitmix;
pub mod xoshiro;

pub use bits::{BiasedBits, BitStream};
pub use seed::NodeSeed;
pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256;

/// A minimal trait for deterministic 64-bit generators.
///
/// Both the tag-side firmware model and the reader-side decoder use this trait
/// so that the two sides are guaranteed to consume the stream identically.
pub trait Rng64 {
    /// Returns the next 64 pseudorandom bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 pseudorandom bits (upper half of [`Rng64::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    ///
    /// Uses the conventional 53-bit mantissa construction so the result is
    /// exactly reproducible on any IEEE-754 platform.
    fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Returns a single fair pseudorandom bit.
    fn next_bit(&mut self) -> bool {
        // Use the top bit, which has the best statistical quality in xoshiro-
        // family generators.
        self.next_u64() >> 63 == 1
    }

    /// Returns a uniformly distributed integer in `[0, bound)`.
    ///
    /// Uses Lemire-style rejection to avoid modulo bias. A zero bound returns 0.
    fn next_bounded(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // `low < bound`: only a small sliver of values is biased; reject
            // and retry when inside the biased zone.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Fills `dst` with pseudorandom bytes.
    fn fill_bytes(&mut self, dst: &mut [u8]) {
        let mut chunks = dst.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// Maps 64 random bits to `[0, 1)` as [`Rng64::next_f64`] does: the 53 high
/// bits over 2^53.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / ((1u64 << 53) as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_bounded_zero_bound_is_zero() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        assert_eq!(rng.next_bounded(0), 0);
    }

    #[test]
    fn next_bounded_respects_bound() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(rng.next_bounded(bound) < bound);
            }
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(42);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn fill_bytes_deterministic() {
        let mut a = Xoshiro256::seed_from_u64(5);
        let mut b = Xoshiro256::seed_from_u64(5);
        let mut buf_a = [0u8; 37];
        let mut buf_b = [0u8; 37];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn fill_bytes_partial_chunk() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut buf = [0u8; 3];
        rng.fill_bytes(&mut buf);
        // At least one byte should be non-zero with overwhelming probability.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn next_bit_is_roughly_fair() {
        let mut rng = Xoshiro256::seed_from_u64(99);
        let ones = (0..100_000).filter(|_| rng.next_bit()).count();
        assert!((45_000..55_000).contains(&ones), "ones = {ones}");
    }
}
