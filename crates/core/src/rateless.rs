//! The rateless participation code of the data phase.
//!
//! §6(a)-(b) of the paper: after identification, every node that has data
//! repeatedly transmits its *entire framed message* in a random subset of time
//! slots.  The subset is chosen independently per slot by a pseudorandom
//! generator seeded with the node's temporary id and the slot index, with a
//! participation probability the reader ties to its estimate of `K` so that
//! only a few nodes collide in any one slot (a *low-density* code).  Nodes keep
//! going until the reader kills its carrier; the reader keeps collecting
//! collisions until its decoder has recovered every message — which is what
//! makes the code rateless.

use backscatter_prng::NodeSeed;

use crate::{BuzzError, BuzzResult};

/// The participation-probability rule of the low-density collision code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParticipationCode {
    /// Probability that a node transmits its message in any given slot.
    probability: f64,
}

impl ParticipationCode {
    /// Default target for the expected number of nodes colliding per slot.
    ///
    /// The paper only states that the sparsity "is related to K"; a target of
    /// three-to-four colliding nodes keeps the superposed constellation
    /// decodable (few local minima for the bit-flipping decoder) while still
    /// covering every node within a small number of slots.  The ablation bench
    /// sweeps this value.
    pub const DEFAULT_TARGET_COLLISION_SIZE: f64 = 3.5;

    /// Creates a code with an explicit per-slot participation probability.
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::InvalidParameter`] unless `probability ∈ (0, 1]`.
    pub fn with_probability(probability: f64) -> BuzzResult<Self> {
        if !(probability > 0.0 && probability <= 1.0) {
            return Err(BuzzError::InvalidParameter(
                "participation probability must be in (0, 1]",
            ));
        }
        Ok(Self { probability })
    }

    /// The rule the reader applies: aim for `target` colliding nodes per slot
    /// given (an estimate of) `k` active nodes, clamped to `[0.15, 0.85]` so
    /// very small populations still collide and very large ones still make
    /// progress every slot.
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::InvalidParameter`] for `k == 0` or a non-positive
    /// target.
    pub fn for_population(k: usize, target: f64) -> BuzzResult<Self> {
        if k == 0 {
            return Err(BuzzError::InvalidParameter("population must be non-zero"));
        }
        if !(target > 0.0 && target.is_finite()) {
            return Err(BuzzError::InvalidParameter(
                "target collision size must be positive",
            ));
        }
        Self::with_probability((target / k as f64).clamp(0.15, 0.85))
    }

    /// The default rule (target collision size of
    /// [`Self::DEFAULT_TARGET_COLLISION_SIZE`]).
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::InvalidParameter`] for `k == 0`.
    pub fn for_k(k: usize) -> BuzzResult<Self> {
        Self::for_population(k, Self::DEFAULT_TARGET_COLLISION_SIZE)
    }

    /// The per-slot participation probability.
    #[must_use]
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Whether the node with seed `seed` transmits in `slot`.
    #[must_use]
    pub fn participates(&self, seed: NodeSeed, slot: u64) -> bool {
        seed.participates_in_slot(slot, self.probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_rules() {
        assert!(ParticipationCode::with_probability(0.0).is_err());
        assert!(ParticipationCode::with_probability(1.1).is_err());
        assert!(ParticipationCode::for_population(0, 4.0).is_err());
        assert!(ParticipationCode::for_population(8, 0.0).is_err());

        // Small populations are clamped high, large ones low.
        let small = ParticipationCode::for_k(2).unwrap();
        assert!((small.probability() - 0.85).abs() < 1e-12);
        let large = ParticipationCode::for_k(100).unwrap();
        assert!((large.probability() - 0.15).abs() < 1e-12);
        // Mid-size: target / k.
        let mid = ParticipationCode::for_population(10, 5.0).unwrap();
        assert!((mid.probability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn participation_is_deterministic_per_seed_and_slot() {
        let code = ParticipationCode::for_k(8).unwrap();
        let seed = NodeSeed(99);
        for slot in 0..50 {
            assert_eq!(code.participates(seed, slot), code.participates(seed, slot));
        }
    }

    #[test]
    fn average_collision_size_tracks_target() {
        let k = 12;
        let target = 5.0;
        let code = ParticipationCode::for_population(k, target).unwrap();
        let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(77 + i)).collect();
        let slots = 400;
        let total = (0..slots as u64)
            .map(|slot| {
                seeds
                    .iter()
                    .filter(|&&s| code.participates(s, slot))
                    .count()
            })
            .sum::<usize>();
        let avg = total as f64 / slots as f64;
        assert!((avg - target).abs() < 0.8, "avg collision size = {avg}");
    }
}
