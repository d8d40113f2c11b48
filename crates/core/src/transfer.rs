//! The rateless data-transfer phase (§6).
//!
//! After identification, the reader broadcasts a single data-phase trigger.
//! In every subsequent time slot a pseudorandom subset of the tags transmits
//! its framed message; the reader appends the collision to its
//! [`BitFlippingDecoder`] and re-decodes.  The phase ends when every message
//! has passed its CRC (the reader drops its carrier) or when the slot budget
//! runs out — the latter only happens in conditions far worse than the paper
//! evaluates.
//!
//! The per-slot decoding progress recorded here is exactly the data behind
//! Fig. 9, and the aggregate `K/L` bits-per-symbol figure is the rate-adaptation
//! metric of Fig. 10 and Fig. 12.

use backscatter_gen2::commands::ReaderCommand;
use backscatter_gen2::timing::LinkTiming;
use backscatter_phy::complex::Complex;
use backscatter_prng::NodeSeed;
use backscatter_sim::medium::Medium;
use backscatter_sim::tag::SimTag;

use crate::bp::{BitFlippingDecoder, DecodeSchedule};
use crate::identification::DiscoveredTag;
use crate::rateless::{ParticipationCode, RatelessEncoder};
use crate::{BuzzError, BuzzResult};

/// Configuration of the data-transfer phase.
#[derive(Debug, Clone, Copy)]
pub struct TransferConfig {
    /// Target number of colliding tags per slot.  It drives the
    /// participation probability `target / K` through
    /// [`ParticipationCode::for_population`], which clamps it to
    /// `[0.15, 0.85]` — so the target is met only while it lies between
    /// `0.15·K` and `0.85·K`.  At large K the floor binds: a target of 4
    /// gives `0.15·K` colliders per slot from K = 27 up (15 at K = 100, 30
    /// at K = 200).
    pub target_collision_size: f64,
    /// Slot budget as a multiple of the number of tags (the rateless phase
    /// aborts after `budget_factor · K` slots).
    pub budget_factor: usize,
    /// Air-interface timing used for transfer-time accounting.
    pub timing: LinkTiming,
    /// How the reader's decoder schedules its per-position work.  The
    /// default ([`DecodeSchedule::Worklist`]) is the hard-decision
    /// bit-flipping decoder the paper figures run, which only revisits
    /// perturbed positions as slots arrive;
    /// [`DecodeSchedule::MessagePassing`] is the soft-decision decoder with
    /// channel tracking for time-varying (fading) channels — see
    /// [`crate::mp`] for when each paradigm wins.
    pub decode_schedule: DecodeSchedule,
}

impl Default for TransferConfig {
    fn default() -> Self {
        Self {
            target_collision_size: ParticipationCode::DEFAULT_TARGET_COLLISION_SIZE,
            budget_factor: 20,
            timing: LinkTiming::paper_default(),
            decode_schedule: DecodeSchedule::default(),
        }
    }
}

impl TransferConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::InvalidParameter`] for out-of-range fields.
    pub fn validate(&self) -> BuzzResult<()> {
        if !(self.target_collision_size > 0.0 && self.target_collision_size.is_finite()) {
            return Err(BuzzError::InvalidParameter(
                "target collision size must be positive",
            ));
        }
        if self.budget_factor == 0 {
            return Err(BuzzError::InvalidParameter(
                "budget factor must be non-zero",
            ));
        }
        self.timing
            .validate()
            .map_err(|_| BuzzError::InvalidParameter("link timing is invalid"))?;
        Ok(())
    }
}

/// The outcome of one data-transfer phase.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferOutcome {
    /// Number of collision slots used (`L`).
    pub slots_used: usize,
    /// Decoded payloads in the *reader's* column order (the order of the
    /// discovered tags handed to [`DataTransfer::run`]); `None` for messages
    /// never decoded.
    pub decoded_payloads: Vec<Option<Vec<bool>>>,
    /// Number of newly decoded messages after each slot (the Fig. 9 series).
    pub newly_decoded_per_slot: Vec<usize>,
    /// How many slots each tag transmitted in (energy accounting).
    pub per_tag_transmissions: Vec<usize>,
    /// Framed message length in bits.
    pub framed_bits: usize,
    /// Air time of the phase in milliseconds.
    pub time_ms: f64,
    /// Whether every message was decoded within the budget.
    pub complete: bool,
}

impl TransferOutcome {
    /// Number of messages decoded.
    #[must_use]
    pub fn decoded_count(&self) -> usize {
        self.decoded_payloads.iter().filter(|p| p.is_some()).count()
    }

    /// Number of messages lost (undecoded).
    #[must_use]
    pub fn lost_count(&self) -> usize {
        self.decoded_payloads.len() - self.decoded_count()
    }

    /// Message loss rate in `[0, 1]`.
    #[must_use]
    pub fn loss_rate(&self) -> f64 {
        if self.decoded_payloads.is_empty() {
            0.0
        } else {
            self.lost_count() as f64 / self.decoded_payloads.len() as f64
        }
    }

    /// The aggregate bit rate in bits per symbol: `decoded / L` (§6(d): when
    /// all K messages decode in L slots the network delivered K·P data bits in
    /// L·P symbols).
    #[must_use]
    pub fn bits_per_symbol(&self) -> f64 {
        if self.slots_used == 0 {
            0.0
        } else {
            self.decoded_count() as f64 / self.slots_used as f64
        }
    }

    /// Cumulative decoded counts per slot (the dark-blue bars of Fig. 9).
    #[must_use]
    pub fn cumulative_decoded_per_slot(&self) -> Vec<usize> {
        let mut total = 0;
        self.newly_decoded_per_slot
            .iter()
            .map(|&n| {
                total += n;
                total
            })
            .collect()
    }
}

/// The data-transfer driver.
#[derive(Debug, Clone)]
pub struct DataTransfer {
    config: TransferConfig,
}

impl DataTransfer {
    /// Creates a transfer driver.
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::InvalidParameter`] for an invalid configuration.
    pub fn new(config: TransferConfig) -> BuzzResult<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// Runs the rateless data phase.
    ///
    /// * `tags` — the physical tags (their `node_seed` must already hold the
    ///   temporary id assigned during identification; all of them transmit).
    /// * `discovered` — the reader's view: temporary ids and channel
    ///   estimates.  Decoding is performed for these columns only; a tag the
    ///   reader failed to discover acts as unmodelled interference, exactly as
    ///   it would over the air.
    /// * `medium` — the shared channel.
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::InvalidParameter`] for empty inputs or mismatched
    /// message lengths, and propagates decoder/medium errors.
    pub fn run(
        &self,
        tags: &[SimTag],
        discovered: &[DiscoveredTag],
        medium: &mut Medium,
    ) -> BuzzResult<TransferOutcome> {
        if tags.is_empty() {
            return Err(BuzzError::InvalidParameter("no tags to transfer from"));
        }
        if discovered.is_empty() {
            return Err(BuzzError::InvalidParameter("reader discovered no tags"));
        }
        let framed: Vec<Vec<bool>> = tags.iter().map(|t| t.message.framed()).collect();
        let framed_bits = framed[0].len();
        if framed.iter().any(|f| f.len() != framed_bits) {
            return Err(BuzzError::InvalidParameter(
                "all tags must use the same message length",
            ));
        }

        let timing = self.config.timing;
        let k_reader = discovered.len();
        let code = ParticipationCode::for_population(k_reader, self.config.target_collision_size)?;

        // Reader-side bookkeeping of the participation matrix, in the order of
        // the discovered tags.
        let reader_seeds: Vec<NodeSeed> = discovered
            .iter()
            .map(|d| NodeSeed(d.temporary_id))
            .collect();
        let mut encoder = RatelessEncoder::new(code, reader_seeds)?;
        let channels: Vec<Complex> = discovered.iter().map(|d| d.channel_estimate).collect();
        let mut decoder = BitFlippingDecoder::new(channels, framed_bits, medium.noise_power())?
            .with_schedule(self.config.decode_schedule);
        if self.config.decode_schedule == DecodeSchedule::MessagePassing
            && medium.dynamics().is_empty()
        {
            // Static session: once the soft sweeps reach their fixed point,
            // hand the rest of the decode to the cheaper hard worklist.
            decoder.enable_static_handoff(true);
        }

        // Data-phase trigger.
        let mut time_s = timing.downlink_s(ReaderCommand::BuzzTrigger.bits()) + timing.t1_s;

        let budget = self.config.budget_factor * tags.len().max(k_reader);
        let mut newly_decoded_per_slot = Vec::new();
        let mut tag_transmissions = vec![0usize; tags.len()];
        let mut complete = false;
        let mut final_state = None;
        // Control-plane fault state: tags that browned out stay dark, and a
        // reader restart kills the (checkpoint-free) session outright.
        let mut tag_dead = vec![false; tags.len()];
        let mut restarted = false;

        for slot in 0..budget as u64 {
            // Slot boundary: scenarios with dynamics (mobility, interference
            // bursts) evolve the medium here; static scenarios take a no-op.
            medium.begin_slot(slot);
            let faults = medium.slot_faults(slot);
            if let Some(f) = &faults {
                for &t in &f.tags_reset {
                    if t < tag_dead.len() {
                        tag_dead[t] = true;
                    }
                }
                if f.reader_restart {
                    // The plain protocol keeps no checkpoint: the restart
                    // wipes all undecoded session RAM and the transfer is
                    // lost (the resuming variant lives in `crate::recovery`).
                    restarted = true;
                    break;
                }
            }
            // Tag side: every physical tag decides from its own temporary id.
            let tag_participation: Vec<bool> = tags
                .iter()
                .enumerate()
                .map(|(i, t)| !tag_dead[i] && code.participates(t.node_seed, slot))
                .collect();
            for (count, &p) in tag_transmissions.iter_mut().zip(&tag_participation) {
                if p {
                    *count += 1;
                }
            }
            // Reader side: the participation row for its discovered columns.
            let reader_participation = encoder.next_slot();

            // The collision on the air, one symbol per framed-bit position.
            let noise_factor = faults.as_ref().map_or(1.0, |f| f.noise_power_factor);
            let mut symbols = Vec::with_capacity(framed_bits);
            for pos in 0..framed_bits {
                let bits: Vec<bool> = tags
                    .iter()
                    .enumerate()
                    .map(|(i, _)| tag_participation[i] && framed[i][pos])
                    .collect();
                symbols.push(medium.observe_with_noise_factor(&bits, noise_factor)?);
            }
            time_s += framed_bits as f64 * timing.uplink_symbol_s();

            if faults.as_ref().is_some_and(|f| f.collision_erased) {
                // Frame-sync loss: the slot aired (the tags spent the energy
                // and the time passed) but the reader discards the
                // observation instead of feeding its decoder.
                newly_decoded_per_slot.push(0);
                continue;
            }

            decoder.add_slot(&reader_participation, symbols)?;
            let state = decoder.decode()?;
            newly_decoded_per_slot.push(state.newly_decoded.len());
            let done = state.all_decoded();
            final_state = Some(state);
            if done {
                complete = true;
                break;
            }
        }

        // Reader terminates the phase by dropping its carrier.
        time_s += timing.downlink_s(ReaderCommand::BuzzStop.bits()) + timing.t2_s;

        let decoded_payloads = if restarted {
            vec![None; k_reader]
        } else {
            final_state
                .map(|s| s.decoded_payloads)
                .unwrap_or_else(|| vec![None; k_reader])
        };

        Ok(TransferOutcome {
            slots_used: newly_decoded_per_slot.len(),
            decoded_payloads,
            newly_decoded_per_slot,
            per_tag_transmissions: tag_transmissions,
            framed_bits,
            time_ms: time_s * 1e3,
            complete,
        })
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &TransferConfig {
        &self.config
    }
}

/// Scores a transfer outcome against the ground truth: for each discovered
/// column, checks whether the decoded payload matches the message of the tag
/// holding that temporary id.  Returns `(correct, incorrect_or_missing)`.
#[must_use]
pub fn score_against_truth(
    outcome: &TransferOutcome,
    discovered: &[DiscoveredTag],
    tags: &[SimTag],
) -> (usize, usize) {
    // Index the ground truth once; the old per-column linear scan made
    // scoring O(K²) at the K = 100+ populations the large-K sweep runs.
    let truth_by_seed: std::collections::HashMap<NodeSeed, &[bool]> = tags
        .iter()
        .map(|t| (t.node_seed, t.message.payload()))
        .collect();
    let mut correct = 0;
    let mut wrong = 0;
    for (col, decoded) in outcome.decoded_payloads.iter().enumerate() {
        let truth = truth_by_seed
            .get(&NodeSeed(discovered[col].temporary_id))
            .copied();
        match (decoded, truth) {
            (Some(d), Some(t)) if d.as_slice() == t => correct += 1,
            _ => wrong += 1,
        }
    }
    (correct, wrong)
}

/// Per-tag delivery flags in *tag order*: `flags[i]` is `true` iff the column
/// holding tag `i`'s temporary id decoded to exactly that tag's message.
///
/// This is the attribution the fleet layer needs to carry undelivered
/// messages across sessions — [`score_against_truth`] aggregates the same
/// comparison into counts, this keeps it per tag.  A tag whose temporary id
/// was never discovered (a missed identification) reports `false`.
#[must_use]
pub fn per_tag_delivery(
    outcome: &TransferOutcome,
    discovered: &[DiscoveredTag],
    tags: &[SimTag],
) -> Vec<bool> {
    let index_by_seed: std::collections::HashMap<NodeSeed, usize> = tags
        .iter()
        .enumerate()
        .map(|(i, t)| (t.node_seed, i))
        .collect();
    let mut delivered = vec![false; tags.len()];
    for (col, decoded) in outcome.decoded_payloads.iter().enumerate() {
        let Some(payload) = decoded else { continue };
        if let Some(&i) = index_by_seed.get(&NodeSeed(discovered[col].temporary_id)) {
            if payload.as_slice() == tags[i].message.payload() {
                delivered[i] = true;
            }
        }
    }
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_sim::scenario::{Scenario, ScenarioBuilder};

    /// Builds a scenario, assigns temporary ids directly (bypassing the
    /// identification phase), and returns genie-aided discovered tags.
    fn genie_setup(k: usize, seed: u64) -> (Scenario, Vec<DiscoveredTag>) {
        let mut scenario = ScenarioBuilder::paper_uplink(k, seed).build().unwrap();
        let mut discovered = Vec::new();
        for (i, tag) in scenario.tags_mut().iter_mut().enumerate() {
            let temp_id = 1000 + i as u64;
            tag.assign_temporary_id(temp_id);
            discovered.push(DiscoveredTag {
                temporary_id: temp_id,
                channel_estimate: tag.channel.coefficient,
            });
        }
        (scenario, discovered)
    }

    #[test]
    fn config_validation() {
        assert!(TransferConfig::default().validate().is_ok());
        let bad = [
            TransferConfig {
                target_collision_size: 0.0,
                ..TransferConfig::default()
            },
            TransferConfig {
                budget_factor: 0,
                ..TransferConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn rejects_empty_inputs() {
        let (scenario, discovered) = genie_setup(2, 1);
        let mut medium = scenario.medium(9).unwrap();
        let transfer = DataTransfer::new(TransferConfig::default()).unwrap();
        assert!(transfer.run(&[], &discovered, &mut medium).is_err());
        assert!(transfer.run(scenario.tags(), &[], &mut medium).is_err());
    }

    #[test]
    fn delivers_all_messages_in_good_channels() {
        for &k in &[4usize, 8, 14] {
            let (scenario, discovered) = genie_setup(k, 20 + k as u64);
            let mut medium = scenario.medium(5).unwrap();
            let transfer = DataTransfer::new(TransferConfig::default()).unwrap();
            let outcome = transfer
                .run(scenario.tags(), &discovered, &mut medium)
                .unwrap();
            assert!(outcome.complete, "k = {k}: incomplete");
            assert_eq!(outcome.decoded_count(), k);
            assert_eq!(outcome.loss_rate(), 0.0);
            let (correct, wrong) = score_against_truth(&outcome, &discovered, scenario.tags());
            assert_eq!((correct, wrong), (k, 0), "k = {k}");
        }
    }

    #[test]
    fn achieves_multiple_bits_per_symbol_in_good_channels() {
        let (scenario, discovered) = genie_setup(8, 31);
        let mut medium = scenario.medium(3).unwrap();
        let transfer = DataTransfer::new(TransferConfig::default()).unwrap();
        let outcome = transfer
            .run(scenario.tags(), &discovered, &mut medium)
            .unwrap();
        assert!(outcome.complete);
        assert!(
            outcome.bits_per_symbol() > 1.0,
            "rate = {} bits/symbol over {} slots",
            outcome.bits_per_symbol(),
            outcome.slots_used
        );
    }

    #[test]
    fn adapts_below_one_bit_per_symbol_in_bad_channels_without_losing_messages() {
        // The Fig. 12 claim: in challenging conditions Buzz takes more slots
        // (rate < 1 bit/symbol) but still decodes everything.
        let mut scenario = ScenarioBuilder::challenging(4, 3, 7.0).build().unwrap();
        let mut discovered = Vec::new();
        for (i, tag) in scenario.tags_mut().iter_mut().enumerate() {
            let temp_id = 2000 + i as u64;
            tag.assign_temporary_id(temp_id);
            discovered.push(DiscoveredTag {
                temporary_id: temp_id,
                channel_estimate: tag.channel.coefficient,
            });
        }
        let mut medium = scenario.medium(77).unwrap();
        let transfer = DataTransfer::new(TransferConfig::default()).unwrap();
        let outcome = transfer
            .run(scenario.tags(), &discovered, &mut medium)
            .unwrap();
        assert!(outcome.complete, "did not finish in challenging channel");
        assert_eq!(outcome.loss_rate(), 0.0);
        assert!(outcome.slots_used >= 4, "used {} slots", outcome.slots_used);
    }

    #[test]
    fn progress_series_is_consistent() {
        let (scenario, discovered) = genie_setup(8, 41);
        let mut medium = scenario.medium(11).unwrap();
        let transfer = DataTransfer::new(TransferConfig::default()).unwrap();
        let outcome = transfer
            .run(scenario.tags(), &discovered, &mut medium)
            .unwrap();
        assert_eq!(outcome.newly_decoded_per_slot.len(), outcome.slots_used);
        let cumulative = outcome.cumulative_decoded_per_slot();
        assert_eq!(*cumulative.last().unwrap(), outcome.decoded_count());
        assert!(cumulative.windows(2).all(|w| w[1] >= w[0]));
        // Transmission counts cover every tag and are bounded by the slots.
        assert_eq!(outcome.per_tag_transmissions.len(), 8);
        assert!(outcome
            .per_tag_transmissions
            .iter()
            .all(|&c| c <= outcome.slots_used));
        assert!(outcome.time_ms > 0.0);
        assert_eq!(outcome.framed_bits, 37);
    }

    #[test]
    fn zero_rate_fault_plan_is_byte_identical_to_no_plan() {
        use backscatter_sim::faults::{FeedbackLoss, SlotErasure};

        let run = |faulted: bool| {
            let mut builder = ScenarioBuilder::paper_uplink(6, 71);
            if faulted {
                builder = builder
                    .fault(SlotErasure::new(0.0).unwrap())
                    .fault(FeedbackLoss::new(0.0).unwrap());
            }
            let mut scenario = builder.build().unwrap();
            let mut discovered = Vec::new();
            for (i, tag) in scenario.tags_mut().iter_mut().enumerate() {
                let temp_id = 1000 + i as u64;
                tag.assign_temporary_id(temp_id);
                discovered.push(DiscoveredTag {
                    temporary_id: temp_id,
                    channel_estimate: tag.channel.coefficient,
                });
            }
            let mut medium = scenario.medium(5).unwrap();
            DataTransfer::new(TransferConfig::default())
                .unwrap()
                .run(scenario.tags(), &discovered, &mut medium)
                .unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn reader_restart_without_checkpoint_loses_the_transfer() {
        use backscatter_sim::faults::ReaderRestart;

        let mut scenario = ScenarioBuilder::paper_uplink(4, 23)
            .fault(ReaderRestart::new(1))
            .build()
            .unwrap();
        let mut discovered = Vec::new();
        for (i, tag) in scenario.tags_mut().iter_mut().enumerate() {
            let temp_id = 3000 + i as u64;
            tag.assign_temporary_id(temp_id);
            discovered.push(DiscoveredTag {
                temporary_id: temp_id,
                channel_estimate: tag.channel.coefficient,
            });
        }
        let mut medium = scenario.medium(7).unwrap();
        let outcome = DataTransfer::new(TransferConfig::default())
            .unwrap()
            .run(scenario.tags(), &discovered, &mut medium)
            .unwrap();
        assert!(!outcome.complete);
        assert_eq!(outcome.decoded_count(), 0);
        assert_eq!(outcome.lost_count(), 4);
    }

    #[test]
    fn total_erasure_burns_the_budget_without_decoding() {
        use backscatter_sim::faults::SlotErasure;

        let mut scenario = ScenarioBuilder::paper_uplink(3, 29)
            .fault(SlotErasure::new(1.0).unwrap())
            .build()
            .unwrap();
        let mut discovered = Vec::new();
        for (i, tag) in scenario.tags_mut().iter_mut().enumerate() {
            let temp_id = 4000 + i as u64;
            tag.assign_temporary_id(temp_id);
            discovered.push(DiscoveredTag {
                temporary_id: temp_id,
                channel_estimate: tag.channel.coefficient,
            });
        }
        let mut medium = scenario.medium(3).unwrap();
        let outcome = DataTransfer::new(TransferConfig::default())
            .unwrap()
            .run(scenario.tags(), &discovered, &mut medium)
            .unwrap();
        assert!(!outcome.complete);
        assert_eq!(outcome.decoded_count(), 0);
        // Every budgeted slot aired and was discarded.
        assert_eq!(outcome.slots_used, 20 * 3);
        assert!(outcome.per_tag_transmissions.iter().any(|&c| c > 0));
    }

    #[test]
    fn undiscovered_tag_becomes_interference_but_others_still_decode() {
        // Drop one tag from the reader's view: the remaining messages should
        // still decode (its transmissions act as extra noise), and the
        // outcome reports only the discovered columns.
        let (scenario, mut discovered) = genie_setup(6, 51);
        discovered.pop();
        let mut medium = scenario.medium(13).unwrap();
        let transfer = DataTransfer::new(TransferConfig::default()).unwrap();
        let outcome = transfer
            .run(scenario.tags(), &discovered, &mut medium)
            .unwrap();
        assert_eq!(outcome.decoded_payloads.len(), 5);
        let (correct, _) = score_against_truth(&outcome, &discovered, scenario.tags());
        assert!(correct >= 3, "only {correct} of 5 decoded correctly");
    }

    #[test]
    fn per_tag_delivery_agrees_with_aggregate_scoring() {
        // The per-tag attribution must sum to exactly what the aggregate
        // scorer counts, including when a tag is hidden from the reader.
        let (scenario, mut discovered) = genie_setup(6, 51);
        discovered.pop();
        let mut medium = scenario.medium(13).unwrap();
        let transfer = DataTransfer::new(TransferConfig::default()).unwrap();
        let outcome = transfer
            .run(scenario.tags(), &discovered, &mut medium)
            .unwrap();
        let (correct, _) = score_against_truth(&outcome, &discovered, scenario.tags());
        let flags = per_tag_delivery(&outcome, &discovered, scenario.tags());
        assert_eq!(flags.len(), 6);
        assert_eq!(flags.iter().filter(|&&d| d).count(), correct);
        // The undiscovered tag can never be marked delivered.
        assert!(!flags[5]);
    }
}
