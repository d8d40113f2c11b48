//! Stage 2: hashing the temporary-id space into buckets.
//!
//! §5.1-B of the paper: the `a·c·K`-sized temporary-id space is hashed into
//! `c·K` buckets of `a` ids each.  The reader allocates one bit-length time
//! slot per bucket; a tag transmits a "1" in the slot of the bucket its
//! temporary id hashes to.  Every id hashing to a bucket whose slot stayed
//! empty is eliminated, leaving at most `a·K` candidate ids for the
//! compressive-sensing stage.
//!
//! Tag and reader must agree on the hash, so it is a fixed function of the id
//! (no per-run salt beyond the protocol round number).

use backscatter_prng::SplitMix64;

use crate::{RecoveryError, RecoveryResult};

/// Deterministic id → bucket hash shared by the tags and the reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketHasher {
    num_buckets: u64,
    /// [`SplitMix64::mix_head`] of the round's salt, hashed once here so
    /// [`BucketHasher::bucket_of`] costs one mix per id.  The protocol round
    /// number is in the salt, so a restarted round (after a failed K
    /// estimate) re-scatters the ids.
    head: u64,
}

impl BucketHasher {
    /// Creates a hasher over `num_buckets` buckets for protocol `round`.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::InvalidParameter`] for zero buckets.
    pub fn new(num_buckets: u64, round: u64) -> RecoveryResult<Self> {
        if num_buckets == 0 {
            return Err(RecoveryError::InvalidParameter("need at least one bucket"));
        }
        Ok(Self {
            num_buckets,
            head: SplitMix64::mix_head(round ^ 0xb0c4e7),
        })
    }

    /// The Buzz sizing rule: `c · K̂` buckets (the paper uses `c = 10`).
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::InvalidParameter`] if either factor is zero.
    pub fn for_buzz(k_hat: u64, c: u64, round: u64) -> RecoveryResult<Self> {
        if k_hat == 0 || c == 0 {
            return Err(RecoveryError::InvalidParameter(
                "bucket sizing factors must be non-zero",
            ));
        }
        Self::new(c.saturating_mul(k_hat), round)
    }

    /// Number of buckets (= number of bucket-stage time slots).
    #[must_use]
    pub fn num_buckets(&self) -> u64 {
        self.num_buckets
    }

    /// The bucket a temporary id hashes to.
    #[must_use]
    pub fn bucket_of(&self, temporary_id: u64) -> u64 {
        SplitMix64::mix_tail(self.head, temporary_id) % self.num_buckets
    }

    /// Given which bucket slots the reader observed occupied, returns the
    /// candidate ids that survive pruning, scanning the whole temporary-id
    /// space `0..id_space`.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::DimensionMismatch`] unless `occupied` has one
    /// entry per bucket.
    pub fn surviving_ids(&self, id_space: u64, occupied: &[bool]) -> RecoveryResult<Vec<u64>> {
        if occupied.len() as u64 != self.num_buckets {
            return Err(RecoveryError::DimensionMismatch {
                expected: self.num_buckets as usize,
                actual: occupied.len(),
            });
        }
        Ok((0..id_space)
            .filter(|&id| occupied[self.bucket_of(id) as usize])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_prng::{Rng64, Xoshiro256};

    #[test]
    fn construction_validates() {
        assert!(BucketHasher::new(0, 0).is_err());
        assert!(BucketHasher::for_buzz(0, 10, 0).is_err());
        assert!(BucketHasher::for_buzz(4, 0, 0).is_err());
        assert_eq!(
            BucketHasher::for_buzz(16, 10, 0).unwrap().num_buckets(),
            160
        );
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        let h = BucketHasher::new(100, 3).unwrap();
        for id in 0..1000u64 {
            let b = h.bucket_of(id);
            assert!(b < 100);
            assert_eq!(b, h.bucket_of(id));
        }
    }

    #[test]
    fn hoisted_head_matches_the_full_mix() {
        for round in [0u64, 1, 7] {
            let h = BucketHasher::new(97, round).unwrap();
            for id in (0..5_000u64).chain([u64::MAX - 1, u64::MAX]) {
                let full = SplitMix64::mix(round ^ 0xb0c4e7, id) % 97;
                assert_eq!(h.bucket_of(id), full, "round {round}, id {id}");
            }
        }
    }

    #[test]
    fn different_rounds_rescatter() {
        let h1 = BucketHasher::new(64, 1).unwrap();
        let h2 = BucketHasher::new(64, 2).unwrap();
        let same = (0..512u64).all(|id| h1.bucket_of(id) == h2.bucket_of(id));
        assert!(!same);
    }

    #[test]
    fn hash_is_roughly_uniform() {
        let h = BucketHasher::new(32, 0).unwrap();
        let mut counts = vec![0usize; 32];
        let n = 32_000u64;
        for id in 0..n {
            counts[h.bucket_of(id) as usize] += 1;
        }
        let expected = n as f64 / 32.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < expected * 0.2,
                "bucket {i} has {c} ids (expected ≈ {expected})"
            );
        }
    }

    #[test]
    fn surviving_ids_keeps_active_ids_and_prunes_most_others() {
        // Simulate the whole stage: K active ids in an a·c·K space hashed into
        // c·K buckets; mark the buckets of the active ids occupied.
        let k = 16u64;
        let c = 10u64;
        let a = k;
        let id_space = a * c * k;
        let h = BucketHasher::for_buzz(k, c, 0).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(5);
        let active: Vec<u64> = (0..k).map(|_| rng.next_bounded(id_space)).collect();

        let mut occupied = vec![false; h.num_buckets() as usize];
        for &id in &active {
            occupied[h.bucket_of(id) as usize] = true;
        }
        let survivors = h.surviving_ids(id_space, &occupied).unwrap();

        // Every active id survives.
        for id in &active {
            assert!(survivors.contains(id));
        }
        // The survivor count is near the a·K bound (and far below the full
        // space).
        assert!(survivors.len() as u64 <= a * k + a);
        assert!((survivors.len() as u64) < id_space / 5);
        // And matches the analytic expectation to within 30 %: k ids occupy
        // b·(1 − (1 − 1/b)^k) distinct buckets on average, each carrying
        // id_space / b ids.
        let b = h.num_buckets() as f64;
        let expected = b * (1.0 - (1.0 - 1.0 / b).powi(k as i32)) * (id_space as f64 / b);
        let ratio = survivors.len() as f64 / expected;
        assert!((0.7..1.3).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn surviving_ids_checks_dimensions() {
        let h = BucketHasher::new(8, 0).unwrap();
        assert!(h.surviving_ids(100, &[true; 7]).is_err());
    }

    #[test]
    fn no_occupied_buckets_means_no_survivors() {
        let h = BucketHasher::new(8, 0).unwrap();
        let survivors = h.surviving_ids(1000, &[false; 8]).unwrap();
        assert!(survivors.is_empty());
    }
}
