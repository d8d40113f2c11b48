//! SplitMix64: a tiny, fast 64-bit mixer.
//!
//! SplitMix64 is used exclusively for *seed expansion*: a single 64-bit seed
//! (such as a tag id) is stretched into the 256 bits of state required by
//! [`crate::Xoshiro256`].  It is also handy as a standalone hash for mixing a
//! `(node id, slot index)` pair into one seed word.

use crate::Rng64;

/// The SplitMix64 generator of Steele, Lea & Flood (2014).
///
/// Every call advances an internal counter by a fixed odd constant and applies
/// a 64-bit finalizer, so the output sequence is a bijection of the counter —
/// a property that guarantees distinct outputs for the first 2^64 draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator whose first output is determined by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Mixes two 64-bit words into one, used to derive per-slot seeds from a
    /// `(node id, slot)` pair without constructing a generator.
    ///
    /// The combination is *not* commutative: `mix(a, b) != mix(b, a)` in
    /// general, which is intentional (node 3 / slot 5 must differ from node 5
    /// / slot 3).  It is [`SplitMix64::mix_tail`] over
    /// [`SplitMix64::mix_head`], so a caller mixing one `a` with many `b`s
    /// can hash `a` once.
    #[must_use]
    pub fn mix(a: u64, b: u64) -> u64 {
        Self::mix_tail(Self::mix_head(a), b)
    }

    /// The half of [`SplitMix64::mix`] that depends only on its first word.
    #[must_use]
    pub fn mix_head(a: u64) -> u64 {
        SplitMix64::new(a ^ GOLDEN_GAMMA.rotate_left(17)).next_u64()
    }

    /// Finishes [`SplitMix64::mix`]: `mix_tail(mix_head(a), b) == mix(a, b)`.
    #[must_use]
    pub fn mix_tail(head: u64, b: u64) -> u64 {
        SplitMix64::new(head.wrapping_add(b)).next_u64()
    }
}

/// The Weyl-sequence increment of the reference implementation.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

impl Rng64 for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        // Constants from the reference implementation.
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference outputs for seed 1234567, from the canonical C implementation
    /// (Vigna, <https://prng.di.unimi.it/splitmix64.c>).
    #[test]
    fn matches_reference_vector() {
        let mut g = SplitMix64::new(1234567);
        let expected: [u64; 5] = [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for &e in &expected {
            assert_eq!(g.next_u64(), e);
        }
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let mut a = SplitMix64::new(0);
        let mut b = SplitMix64::new(1);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn mix_is_order_sensitive() {
        assert_ne!(SplitMix64::mix(3, 5), SplitMix64::mix(5, 3));
    }

    #[test]
    fn mix_is_deterministic() {
        assert_eq!(SplitMix64::mix(17, 99), SplitMix64::mix(17, 99));
    }

    /// Reference `mix`: two throwaway generators, no head/tail split.  Every
    /// seed in the workspace derives from this stream.
    fn mix_reference(a: u64, b: u64) -> u64 {
        let mut g = SplitMix64::new(a ^ 0x9e37_79b9_7f4a_7c15u64.rotate_left(17));
        let first = g.next_u64();
        let mut g2 = SplitMix64::new(first.wrapping_add(b));
        g2.next_u64()
    }

    proptest! {
        #[test]
        fn head_and_tail_compose_to_mix(a in any::<u64>(), b in any::<u64>()) {
            let head = SplitMix64::mix_head(a);
            prop_assert_eq!(SplitMix64::mix_tail(head, b), SplitMix64::mix(a, b));
            prop_assert_eq!(SplitMix64::mix(a, b), mix_reference(a, b));
        }
    }
}
