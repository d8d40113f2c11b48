//! xoshiro256** — the workhorse generator for per-node pseudorandom sequences.
//!
//! The generator is small enough to be plausible on a computational RFID
//! microcontroller (four 64-bit words of state, a handful of shifts and adds
//! per output) yet has excellent statistical quality, which matters because
//! the sensing matrix `A` and participation matrix `D` built from these
//! sequences must behave like random binary matrices for compressive sensing
//! and belief-propagation decoding to work.

use crate::{Rng64, SplitMix64};

/// The xoshiro256** 1.0 generator of Blackman & Vigna.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator by expanding a 64-bit seed with [`SplitMix64`],
    /// the seeding procedure recommended by the xoshiro authors.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// The first output of [`Xoshiro256::seed_from_u64`]`(seed)`, computed
    /// without the other three state words: xoshiro256**'s first output
    /// reads only `s[1]`, the seed's second SplitMix64 draw.  Per-slot
    /// decisions that need one draw per seed use this instead of a full
    /// seeding.
    #[must_use]
    pub fn first_output(seed: u64) -> u64 {
        let mut sm = SplitMix64::new(seed);
        let _s0 = sm.next_u64();
        scramble(sm.next_u64())
    }
}

/// The `**` scrambler: the output function applied to `s[1]`.
fn scramble(s1: u64) -> u64 {
    s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9)
}

impl Rng64 for Xoshiro256 {
    fn next_u64(&mut self) -> u64 {
        let result = scramble(self.s[1]);
        let t = self.s[1] << 17;

        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);

        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The first outputs from state {1, 2, 3, 4} can be computed by hand from
    /// the xoshiro256** update rule: the very first output is
    /// `rotl(s[1]*5, 7)*9 = rotl(10, 7)*9 = 11520`, and after the first state
    /// update `s[1]` becomes 0, so the second output is 0.
    #[test]
    fn matches_hand_computed_prefix() {
        let mut g = Xoshiro256 { s: [1, 2, 3, 4] };
        assert_eq!(g.next_u64(), 11520);
        assert_eq!(g.next_u64(), 0);
        assert_eq!(g.next_u64(), 1509978240);
    }

    #[test]
    fn seed_from_u64_is_deterministic() {
        let mut a = Xoshiro256::seed_from_u64(2024);
        let mut b = Xoshiro256::seed_from_u64(2024);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #[test]
        fn first_output_is_the_seeded_generators_first_output(seed in any::<u64>()) {
            prop_assert_eq!(
                Xoshiro256::first_output(seed),
                Xoshiro256::seed_from_u64(seed).next_u64()
            );
        }
    }

    #[test]
    fn mean_of_unit_doubles_is_half() {
        let mut g = Xoshiro256::seed_from_u64(31337);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| g.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }
}
