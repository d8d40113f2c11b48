//! The three-stage compressive-sensing identification protocol (§5).
//!
//! Stage 1 estimates `K` (the number of tags with data) from empty-slot
//! statistics while tags transmit with geometrically decreasing probability.
//! Stage 2 has every tag draw a temporary id from a space of size `a·c·K̂` and
//! announce the *bucket* its id hashes to, letting the reader discard every id
//! that hashed to a silent bucket.  Stage 3 runs the actual compressive
//! sensing: over `M ≈ K̂·log₂(a)` bit-slots each tag transmits its
//! pseudorandom sensing pattern, and the reader recovers which candidate ids
//! are active — and their complex channels — with a sparse solver.
//!
//! The driver below runs all three stages against a [`Medium`], updating the
//! scenario's tags with their assigned temporary ids, and accounts the air
//! time the way Fig. 14 does.

use backscatter_codes::rn16::TemporaryIdSpace;
use backscatter_gen2::commands::ReaderCommand;
use backscatter_gen2::timing::PAPER_TIMING;
use backscatter_phy::complex::Complex;
use backscatter_phy::signal::SlotObservation;
use backscatter_prng::{BiasedBits, NodeSeed, SplitMix64};
use backscatter_sim::medium::Medium;
use backscatter_sim::scenario::Scenario;
use sparse_recovery::buckets::BucketHasher;
use sparse_recovery::kest::{KEstimate, KEstimator};
use sparse_recovery::omp::{self, prune_insignificant};
use sparse_recovery::sensing::SensingMatrix;

use crate::{BuzzError, BuzzResult};

/// Stage-1 estimator slots per step (the paper uses `s = 4`; the estimator
/// terminates at a 0.75 empty-slot fraction).
const ESTIMATOR_SLOTS_PER_STEP: usize = 4;

/// Bucket multiplier `c` (the paper uses 10): stage 2 uses `c·K̂` buckets.
const BUCKETS_PER_TAG: u64 = 10;

/// Number of stage-3 measurements as a multiple of `K̂·log₂(a)` (1.0 is the
/// information-theoretic scaling; a little head-room buys robustness).
const MEASUREMENT_FACTOR: f64 = 2.5;

/// Sensing-pattern transmit probability (0.5 in the paper's formulation).
const SENSING_PROBABILITY: f64 = 0.5;

/// Magnitude-pruning fraction applied to the sparse solution.
const PRUNE_FRACTION: f64 = 0.02;

/// Maximum protocol restarts when tags draw colliding temporary ids.
const MAX_ROUNDS: usize = 8;

/// Configuration of the identification protocol.  Link timing is
/// [`PAPER_TIMING`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentificationConfig {
    /// Whether `a` (ids per bucket) equals `K̂` (the paper's choice, `None`)
    /// or a fixed value.  With `a = K̂` the id space (`a·c·K̂`) grows as `K̂²`
    /// and the odds that two tags draw the same temporary id do not depend
    /// on K.  A fixed `a` makes the space linear in `K̂`, so at K = 100+
    /// birthday collisions recur; each restart after a collision then grows
    /// `K̂` by half.
    pub ids_per_bucket: Option<u64>,
}

impl IdentificationConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::InvalidParameter`] for a zero `ids_per_bucket`.
    pub fn validate(&self) -> BuzzResult<()> {
        if self.ids_per_bucket == Some(0) {
            return Err(BuzzError::InvalidParameter(
                "ids per bucket must be non-zero",
            ));
        }
        Ok(())
    }
}

/// One tag discovered by the reader.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscoveredTag {
    /// The temporary id the reader recovered.
    pub temporary_id: u64,
    /// The reader's estimate of the tag's channel coefficient.
    pub channel_estimate: Complex,
}

/// Slot accounting of the three stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdentificationSlots {
    /// Bit-slots spent in the K-estimation stage.
    pub estimation: usize,
    /// Bit-slots spent in the bucket stage.
    pub bucket: usize,
    /// Bit-slots spent in the compressive-sensing stage.
    pub compressive: usize,
    /// Reader trigger/stop commands issued.
    pub reader_commands: usize,
}

impl IdentificationSlots {
    /// Total uplink bit-slots.
    #[must_use]
    pub fn total(&self) -> usize {
        self.estimation + self.bucket + self.compressive
    }
}

/// The result of running the identification protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentificationOutcome {
    /// The stage-1 estimate of `K`.
    pub k_estimate: KEstimate,
    /// The tags the reader discovered (temporary id + channel estimate).
    pub discovered: Vec<DiscoveredTag>,
    /// The ground-truth temporary id each scenario tag drew (index-aligned
    /// with the scenario's tags) — used by the evaluation to score recovery,
    /// not by the reader.
    pub assignments: Vec<u64>,
    /// Slot/command accounting.
    pub slots: IdentificationSlots,
    /// Number of protocol rounds used (> 1 only after temporary-id
    /// collisions).
    pub rounds: usize,
    /// Total identification air time in milliseconds (the Fig. 14 metric).
    pub time_ms: f64,
    /// The size of the temporary-id space used in the final round.
    pub id_space: u64,
}

impl IdentificationOutcome {
    /// Whether the reader discovered exactly the true set of temporary ids.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        if self.discovered.len() != self.assignments.len() {
            return false;
        }
        let mut truth = self.assignments.clone();
        truth.sort_unstable();
        let mut got: Vec<u64> = self.discovered.iter().map(|d| d.temporary_id).collect();
        got.sort_unstable();
        truth == got
    }
}

/// The identification protocol driver.
#[derive(Debug, Clone)]
pub struct Identifier {
    config: IdentificationConfig,
}

impl Identifier {
    /// Creates an identifier.
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::InvalidParameter`] for an invalid configuration.
    pub fn new(config: IdentificationConfig) -> BuzzResult<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// Runs the three stages against the scenario's tags and medium.
    ///
    /// On success the scenario's tags have been re-seeded with their temporary
    /// ids (ready for the data phase).
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::IdentificationFailed`] if stage 1's estimator
    /// runs out of steps without an estimate (every estimation slot reads
    /// occupied, as under noise well above the medium's base power) or
    /// distinct temporary ids could not be assigned within the retry budget,
    /// or propagates lower layer errors.
    pub fn run(
        &self,
        scenario: &mut Scenario,
        medium: &mut Medium,
    ) -> BuzzResult<IdentificationOutcome> {
        let timing = PAPER_TIMING;
        let mut slots = IdentificationSlots::default();
        let mut time_s = 0.0;
        // Protocol-local slot clock driving scenario dynamics (mobility,
        // interference bursts) across all three stages; a no-op on static
        // media.
        let mut slot_clock: u64 = 0;

        // ---- Stage 1: estimate K -------------------------------------------------
        // Reader trigger.
        time_s += timing.downlink_s(ReaderCommand::BuzzTrigger.bits()) + timing.t1_s;
        slots.reader_commands += 1;

        let mut estimator = KEstimator::new(ESTIMATOR_SLOTS_PER_STEP)?;
        // Per-tag biased bit streams for this stage (seeded by global id).
        let mut tag_streams: Vec<BiasedBits> = scenario
            .tags()
            .iter()
            .map(|t| BiasedBits::new(NodeSeed(t.global_id).estimation_rng(), 0.5))
            .collect();
        let k_estimate = loop {
            let p = estimator
                .next_probability()
                .ok_or(BuzzError::IdentificationFailed)?;
            for stream in &mut tag_streams {
                stream.set_probability(p);
            }
            let mut empty = 0;
            for _ in 0..ESTIMATOR_SLOTS_PER_STEP {
                let bits: Vec<bool> = tag_streams.iter_mut().map(BiasedBits::next_bit).collect();
                slots.estimation += 1;
                time_s += timing.uplink_symbol_s();
                medium.begin_slot(slot_clock);
                slot_clock += 1;
                if medium.observe_occupancy(&bits)? == SlotObservation::Empty {
                    empty += 1;
                }
            }
            if let Some(estimate) = estimator.record_step(empty)? {
                break estimate;
            }
        };
        let k_hat = k_estimate.k_rounded() as u64;

        // ---- Stage 2 + 3 (with restarts on temporary-id collisions or a K
        // estimate that turned out too small) --------------------------------------
        let mut k_work = k_hat;
        let mut assignments: Vec<u64> = Vec::new();
        let mut discovered: Vec<DiscoveredTag> = Vec::new();
        let mut rounds = 0;
        let mut id_space_size = 0;

        for round in 0..MAX_ROUNDS {
            rounds = round + 1;
            let a = self.config.ids_per_bucket.unwrap_or(k_work.max(2));
            let id_space = TemporaryIdSpace::for_buzz(k_work, a, BUCKETS_PER_TAG)?;
            id_space_size = id_space.size();

            // Each active tag draws a temporary id deterministically from its
            // global id and the round number.
            assignments = scenario
                .tags()
                .iter()
                .map(|t| SplitMix64::mix(t.global_id, 0xa11_0c8 ^ round as u64) % id_space.size())
                .collect();
            let mut unique = assignments.clone();
            unique.sort_unstable();
            unique.dedup();
            if unique.len() != assignments.len() {
                // Two tags picked the same temporary id; the reader cannot
                // tell them apart, so the protocol restarts with a new round
                // (the paper: "the reader starts over").  Account the trigger.
                time_s += timing.downlink_s(ReaderCommand::BuzzTrigger.bits()) + timing.t1_s;
                slots.reader_commands += 1;
                if self.config.ids_per_bucket.is_some() {
                    // With a fixed ids-per-bucket factor the id space is
                    // linear in K̂ and birthday collisions recur at K = 100+;
                    // grow the space so restarts actually converge.
                    k_work += k_work.div_ceil(2);
                }
                continue;
            }

            // Stage 2: bucket announcement.
            time_s += timing.downlink_s(ReaderCommand::BuzzTrigger.bits()) + timing.t1_s;
            slots.reader_commands += 1;
            let hasher = BucketHasher::for_buzz(k_work, BUCKETS_PER_TAG, round as u64)?;
            let num_buckets = hasher.num_buckets() as usize;
            // Each tag's bucket is a pure function of its id: hash once per
            // tag instead of once per (bucket, tag) pair — the bucket stage
            // is O(buckets · K) slots on the air either way, but the reader
            // model should not pay O(buckets · K) *hashes* on top (at
            // K = 150 with c = 10 that is 2¼ million redundant mixes).
            let tag_bucket: Vec<usize> = assignments
                .iter()
                .map(|&id| hasher.bucket_of(id) as usize)
                .collect();
            let mut occupied = vec![false; num_buckets];
            for bucket in 0..num_buckets {
                let bits: Vec<bool> = tag_bucket.iter().map(|&b| b == bucket).collect();
                slots.bucket += 1;
                time_s += timing.uplink_symbol_s();
                medium.begin_slot(slot_clock);
                slot_clock += 1;
                occupied[bucket] = medium.observe_occupancy(&bits)? == SlotObservation::Occupied;
            }
            let candidates = hasher.surviving_ids(id_space.size(), &occupied)?;
            if candidates.is_empty() {
                // Detection failed completely (e.g. abysmal SNR); restart.
                continue;
            }

            // The bucket stage gives a second, free estimate of K: at least as
            // many tags are present as buckets were occupied.  Using it to
            // size the final stage protects against a stage-1 underestimate
            // (the coarse s = 4 estimator can be off by 2×).
            let occupied_count = occupied.iter().filter(|&&o| o).count() as u64;
            let k_refined = k_work.max(occupied_count);

            // A gross underestimate also means the temporary-id space itself
            // (sized from K̂) is too small, which inflates the id-collision
            // probability and starves the sparse decode.  Restart the round
            // with the corrected population in that case.
            if occupied_count > 2 * k_work && round + 1 < MAX_ROUNDS {
                k_work = occupied_count;
                continue;
            }

            // Stage 3: compressive sensing over the surviving candidates.
            time_s += timing.downlink_s(ReaderCommand::BuzzTrigger.bits()) + timing.t1_s;
            slots.reader_commands += 1;
            let m = ((k_refined as f64) * (a.max(2) as f64).log2() * MEASUREMENT_FACTOR).ceil()
                as usize;
            let m = m.max(2 * k_refined as usize).max(16);

            // The reader's reduced sensing matrix A' over candidate ids...
            let candidate_seeds: Vec<NodeSeed> =
                candidates.iter().map(|&id| NodeSeed(id)).collect();
            let a_reduced = SensingMatrix::from_seeds(m, &candidate_seeds, SENSING_PROBABILITY);
            // ...and the on-air measurements produced by the actual tags,
            // each transmitting its own column of the full matrix A.
            let tag_seeds: Vec<NodeSeed> = assignments.iter().map(|&id| NodeSeed(id)).collect();
            let tag_columns = SensingMatrix::from_seeds(m, &tag_seeds, SENSING_PROBABILITY);
            let mut measurements: Vec<Complex> = Vec::with_capacity(m);
            for slot in 0..m {
                let bits: Vec<bool> = (0..tag_seeds.len())
                    .map(|tag| tag_columns.get(slot, tag))
                    .collect();
                slots.compressive += 1;
                time_s += timing.uplink_symbol_s();
                medium.begin_slot(slot_clock);
                slot_clock += 1;
                measurements.push(medium.observe(&bits)?);
            }

            // Allow generous head-room over the (coarse, s = 4) stage-1
            // estimate; spurious picks are removed by the noise-aware pruning
            // below.
            let max_sparsity = (2 * k_refined as usize).max(4);
            let raw_solution = omp::solve(&a_reduced, &measurements, max_sparsity)?;

            // Drop support entries whose contribution to the fit is explained
            // by noise (a phantom tag in the discovered set would stall the
            // data phase), then apply a light relative-magnitude prune against
            // gross outliers.
            let solution = prune_insignificant(
                &a_reduced,
                &measurements,
                &raw_solution,
                medium.noise_power(),
                4.0,
            )?;
            let max_mag = solution
                .values
                .iter()
                .map(|v| v.abs())
                .fold(0.0f64, f64::max);
            discovered = solution
                .support
                .iter()
                .zip(&solution.values)
                .filter(|(_, v)| v.abs() > max_mag * PRUNE_FRACTION)
                .map(|(&col, &value)| DiscoveredTag {
                    temporary_id: candidates[col],
                    channel_estimate: value,
                })
                .collect();

            // If the solver saturated its sparsity budget while still leaving
            // a large unexplained residual, the stage-1 estimate was probably
            // too small: grow K and start the round over (a couple of extra
            // rounds cost far less than a failed inventory).
            let saturated = solution.support.len() >= max_sparsity
                && solution.relative_residual > 0.05
                && round + 1 < MAX_ROUNDS;
            if saturated {
                k_work = (k_work * 2).max(k_work + 1);
                discovered.clear();
                continue;
            }

            if !discovered.is_empty() {
                break;
            }
        }

        if discovered.is_empty() {
            return Err(BuzzError::IdentificationFailed);
        }

        // Reader stops the phase by dropping its carrier.
        time_s += timing.downlink_s(ReaderCommand::BuzzStop.bits()) + timing.t2_s;
        slots.reader_commands += 1;

        // Re-seed the scenario's tags with their temporary ids so the data
        // phase keys off them (what the real tags do on receiving the data-
        // phase trigger).
        for (tag, &tmp) in scenario.tags_mut().iter_mut().zip(&assignments) {
            tag.assign_temporary_id(tmp);
        }

        Ok(IdentificationOutcome {
            k_estimate,
            discovered,
            assignments,
            slots,
            rounds,
            time_ms: time_s * 1e3,
            id_space: id_space_size,
        })
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &IdentificationConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_sim::scenario::ScenarioBuilder;

    fn run_for(k: usize, seed: u64) -> (Scenario, IdentificationOutcome) {
        let mut scenario = ScenarioBuilder::paper_uplink(k, seed).build().unwrap();
        let mut medium = scenario.medium(seed ^ 0xfeed).unwrap();
        let outcome = Identifier::new(IdentificationConfig::default())
            .unwrap()
            .run(&mut scenario, &mut medium)
            .unwrap();
        (scenario, outcome)
    }

    #[test]
    fn config_validation() {
        assert!(IdentificationConfig::default().validate().is_ok());
        let bad = IdentificationConfig {
            ids_per_bucket: Some(0),
        };
        assert!(bad.validate().is_err());
        assert!(Identifier::new(bad).is_err());
    }

    #[test]
    fn identifies_all_tags_in_good_channels() {
        for &k in &[4usize, 8, 16] {
            let (_, outcome) = run_for(k, 100 + k as u64);
            assert!(
                outcome.is_exact(),
                "k = {k}: discovered {} of {} (exact = {})",
                outcome.discovered.len(),
                k,
                outcome.is_exact()
            );
        }
    }

    #[test]
    fn pruning_keeps_every_real_tag_in_one_round() {
        // Single-round sessions where dropping every insignificant support
        // entry of a prune round at once, instead of only the weakest, loses
        // a real tag (3 of 4, 7 of 8 and 15 of 16 found).
        for (k, scenario_seed, medium_seed) in
            [(4, 5015, 65250), (8, 5005, 65256), (16, 5016, 65277)]
        {
            let mut scenario = ScenarioBuilder::paper_uplink(k, scenario_seed)
                .build()
                .unwrap();
            let mut medium = scenario.medium(medium_seed).unwrap();
            let outcome = Identifier::new(IdentificationConfig::default())
                .unwrap()
                .run(&mut scenario, &mut medium)
                .unwrap();
            assert_eq!(outcome.rounds, 1, "k = {k}");
            assert!(
                outcome.is_exact(),
                "k = {k}: discovered {} of {k}",
                outcome.discovered.len()
            );
        }
    }

    #[test]
    fn k_estimate_is_right_order_of_magnitude() {
        let (_, outcome) = run_for(16, 7);
        let k_hat = outcome.k_estimate.k_rounded();
        assert!((5..=48).contains(&k_hat), "k_hat = {k_hat}");
    }

    #[test]
    fn tags_receive_their_temporary_ids() {
        let (scenario, outcome) = run_for(8, 11);
        for (tag, &assigned) in scenario.tags().iter().zip(&outcome.assignments) {
            assert_eq!(tag.node_seed, NodeSeed(assigned));
        }
        // All assignments are within the temporary-id space and distinct.
        let mut ids = outcome.assignments.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
        assert!(ids.iter().all(|&id| id < outcome.id_space));
    }

    #[test]
    fn channel_estimates_are_accurate_in_good_conditions() {
        let (scenario, outcome) = run_for(8, 13);
        // Relative error ‖ĥ − h‖ / ‖h‖ over the tags whose id was discovered.
        let (mut num, mut den) = (0.0, 0.0);
        for (tag, &id) in scenario.tags().iter().zip(&outcome.assignments) {
            if let Some(d) = outcome.discovered.iter().find(|d| d.temporary_id == id) {
                num += (d.channel_estimate - tag.channel.coefficient).norm_sqr();
                den += tag.channel.coefficient.norm_sqr();
            }
        }
        assert!(den > 0.0, "no overlap");
        let err = f64::sqrt(num / den);
        assert!(err < 0.25, "relative channel error = {err}");
    }

    #[test]
    fn identification_is_fast_compared_to_fsa_budget() {
        // Fig. 14 ballpark: Buzz identifies 16 tags in a few ms while FSA
        // needs tens of ms.  Enforce the absolute scale loosely.
        let (_, outcome) = run_for(16, 17);
        assert!(outcome.time_ms < 12.0, "time = {} ms", outcome.time_ms);
        assert!(outcome.slots.total() > 0);
        assert!(outcome.slots.bucket > 0);
        assert!(outcome.slots.compressive > 0);
    }

    #[test]
    fn slot_accounting_adds_up() {
        let (_, outcome) = run_for(4, 19);
        let s = outcome.slots;
        assert_eq!(s.total(), s.estimation + s.bucket + s.compressive);
        assert!(s.reader_commands >= 4);
        assert!(outcome.rounds >= 1);
    }
}
