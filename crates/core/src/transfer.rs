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
//!
//! [`DataTransfer::run`] is one loop over the crate-private `DataPhase`,
//! which owns everything a slot does; the recovery loop of
//! [`crate::recovery`] drives the same `DataPhase`.

use backscatter_gen2::commands::ReaderCommand;
use backscatter_gen2::timing::PAPER_TIMING;
use backscatter_phy::complex::Complex;
use backscatter_prng::NodeSeed;
use backscatter_sim::faults::SlotFaults;
use backscatter_sim::medium::Medium;
use backscatter_sim::tag::SimTag;

use crate::bp::{BitFlippingDecoder, DecodeSchedule, DecodeState};
use crate::identification::DiscoveredTag;
use crate::participation::{self, DEFAULT_TARGET_COLLISION_SIZE};
use crate::{BuzzError, BuzzResult};

/// Slot budget of the plain data phase as a multiple of the population (the
/// larger of the tags on the air and the reader's columns): the phase gives
/// up after `20·K` slots.
const BUDGET_FACTOR: usize = 20;

/// Configuration of the data-transfer phase.  Air time is accounted at
/// [`PAPER_TIMING`].
#[derive(Debug, Clone, Copy)]
pub struct TransferConfig {
    /// Target number of colliding tags per slot (3.5 by default).  The
    /// per-slot participation probability follows from it by the one
    /// participation rule, stated with where its bounds bind in the
    /// crate-private `participation` module (`src/participation.rs`): the
    /// target holds only for mid-sized populations, and at large K a
    /// probability floor decides instead.
    pub target_collision_size: f64,
    /// How the reader's decoder schedules its per-position work.  The
    /// default ([`DecodeSchedule::Worklist`]) is the hard-decision
    /// bit-flipping decoder the paper figures run, which carries one
    /// descent state per bit position from call to call as slots arrive;
    /// [`DecodeSchedule::MessagePassing`] is the soft-decision decoder with
    /// channel tracking for time-varying (fading) channels — see
    /// [`crate::mp`] for when each paradigm wins.
    pub decode_schedule: DecodeSchedule,
}

impl Default for TransferConfig {
    fn default() -> Self {
        Self {
            target_collision_size: DEFAULT_TARGET_COLLISION_SIZE,
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
    /// Number of newly decoded messages after each slot (the Fig. 9
    /// series): every decoded message counts once, at the slot of the lock
    /// the decoder ended the phase with, so the series sums to the messages
    /// the decoder delivered.
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
}

/// One data phase in progress: the tags on the air, the reader's decoder,
/// and the accounting both session loops share — air time, per-tag
/// transmissions, browned-out tags, and the slot each decoded message is
/// counted at in the per-slot progress series.
pub(crate) struct DataPhase<'a> {
    pub(crate) tags: &'a [SimTag],
    pub(crate) discovered: &'a [DiscoveredTag],
    /// Every tag's framed message, in tag order.
    framed: Vec<Vec<bool>>,
    /// The per-slot participation probability for the discovered
    /// population.
    probability: f64,
    schedule: DecodeSchedule,
    pub(crate) decoder: BitFlippingDecoder,
    /// The latest decode (`None` before the first, and after a restart).
    pub(crate) state: Option<DecodeState>,
    /// Air slots so far, each an entry of the Fig. 9 series.
    pub(crate) slots: usize,
    /// Per reader column, the air slot of the lock the decoder holds for it
    /// (`None` while undecoded).  A lock the decoder erases withdraws its
    /// slot, and a later lock sets a new one, so the series counts every
    /// message once, at the lock it ends the phase with.
    pub(crate) lock_slots: Vec<Option<usize>>,
    tag_transmissions: Vec<usize>,
    /// Tags that browned out; they stay dark for the rest of the session.
    pub(crate) tag_dead: Vec<bool>,
    pub(crate) time_s: f64,
}

impl<'a> DataPhase<'a> {
    /// Checks the inputs (as documented on [`DataTransfer::run`]), sets up
    /// the reader's decoder and airs the data-phase trigger.
    pub(crate) fn new(
        config: &TransferConfig,
        tags: &'a [SimTag],
        discovered: &'a [DiscoveredTag],
        medium: &Medium,
    ) -> BuzzResult<Self> {
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
        let probability =
            participation::probability(discovered.len(), config.target_collision_size);
        let timing = PAPER_TIMING;
        let decoder = new_decoder(discovered, framed_bits, config.decode_schedule, medium)?;
        Ok(Self {
            tags,
            discovered,
            framed,
            probability,
            schedule: config.decode_schedule,
            decoder,
            state: None,
            slots: 0,
            lock_slots: vec![None; discovered.len()],
            tag_transmissions: vec![0; tags.len()],
            tag_dead: vec![false; tags.len()],
            time_s: timing.downlink_s(ReaderCommand::BuzzTrigger.bits()) + timing.t1_s,
        })
    }

    /// The population a slot budget scales with: the larger of the tags on
    /// the air and the reader's columns.
    pub(crate) fn population(&self) -> usize {
        self.tags.len().max(self.discovered.len())
    }

    fn framed_bits(&self) -> usize {
        self.framed[0].len()
    }

    /// Air time of one collision slot, seconds.
    fn slot_s(&self) -> f64 {
        self.framed_bits() as f64 * PAPER_TIMING.uplink_symbol_s()
    }

    /// A decoder that has observed nothing, as after a reader restart with
    /// no checkpoint.
    pub(crate) fn fresh_decoder(&self, medium: &Medium) -> BuzzResult<BitFlippingDecoder> {
        new_decoder(self.discovered, self.framed_bits(), self.schedule, medium)
    }

    /// Opens air slot `slot`: scenarios with dynamics or faults evolve the
    /// medium, static ones take a no-op, and the tags the slot's faults
    /// brown out go dark.  Returns those faults.
    pub(crate) fn begin_slot(&mut self, medium: &mut Medium, slot: u64) -> SlotFaults {
        let faults = medium.begin_slot(slot);
        for &t in &faults.tags_reset {
            if let Some(dead) = self.tag_dead.get_mut(t) {
                *dead = true;
            }
        }
        faults
    }

    /// Whether temporary id `id` transmits in `slot` of `epoch`: the one
    /// rule the tags follow and the reader predicts its rows from.
    fn participates(&self, id: u64, epoch: u64, slot: u64) -> bool {
        participation::participates(id, epoch, slot, self.probability)
    }

    /// A slot that passes with nothing on the air for the decoder.
    pub(crate) fn idle_slot(&mut self) {
        self.slots += 1;
        self.time_s += self.slot_s();
    }

    /// Airs collision slot `slot` in participation epoch `epoch` and, unless
    /// `faults` erased it, feeds it to the decoder and re-decodes.  Returns
    /// the decoder's count of messages newly decoded by this call, or `None`
    /// for an erased slot.
    pub(crate) fn collision_slot(
        &mut self,
        medium: &mut Medium,
        slot: u64,
        epoch: u64,
        faults: &SlotFaults,
    ) -> BuzzResult<Option<usize>> {
        // Tag side: every live tag decides from its own temporary id.
        let participation: Vec<bool> = self
            .tags
            .iter()
            .zip(&self.tag_dead)
            .map(|(t, &dead)| !dead && self.participates(t.node_seed.0, epoch, slot))
            .collect();
        for (count, &p) in self.tag_transmissions.iter_mut().zip(&participation) {
            *count += usize::from(p);
        }
        // The collision on the air, one symbol per framed-bit position.
        let mut bits = vec![false; self.tags.len()];
        let mut symbols = Vec::with_capacity(self.framed_bits());
        for pos in 0..self.framed_bits() {
            for (i, bit) in bits.iter_mut().enumerate() {
                *bit = participation[i] && self.framed[i][pos];
            }
            symbols.push(medium.observe(&bits)?);
        }
        self.time_s += self.slot_s();

        if faults.collision_erased {
            // Frame-sync loss: the slot aired (the tags spent the energy
            // and the time passed) but the reader discards the observation.
            self.slots += 1;
            return Ok(None);
        }
        // Reader side: the row it predicts for its discovered columns.  It
        // cannot know a tag browned out, so a dead tag keeps its row.
        let row: Vec<bool> = self
            .discovered
            .iter()
            .map(|d| self.participates(d.temporary_id, epoch, slot))
            .collect();
        self.decoder.add_slot(&row, symbols)?;
        let state = self.decoder.decode()?;
        // An erased lock withdraws its slot; a new one is counted here.
        for (lock, payload) in self.lock_slots.iter_mut().zip(&state.decoded_payloads) {
            if payload.is_none() {
                *lock = None;
            }
        }
        for &node in &state.newly_decoded {
            self.lock_slots[node] = Some(self.slots);
        }
        self.slots += 1;
        let newly = state.newly_decoded.len();
        self.state = Some(state);
        Ok(Some(newly))
    }

    /// Airs one singleton reply: only tag `tag` transmits its framed
    /// message.  Returns the observed symbols.
    pub(crate) fn singleton_reply(
        &mut self,
        medium: &mut Medium,
        tag: usize,
    ) -> BuzzResult<Vec<Complex>> {
        self.tag_transmissions[tag] += 1;
        let mut symbols = Vec::with_capacity(self.framed_bits());
        for pos in 0..self.framed_bits() {
            symbols.push(medium.observe_single(tag, self.framed[tag][pos])?);
        }
        self.time_s += self.framed_bits() as f64 / PAPER_TIMING.uplink_bps + PAPER_TIMING.t2_s;
        Ok(symbols)
    }

    /// Whether the latest decode holds every message.
    pub(crate) fn all_decoded(&self) -> bool {
        self.state.as_ref().is_some_and(DecodeState::all_decoded)
    }

    /// The decoder's residual power under its latest candidate frames
    /// (infinite before any decode), the stall detector's progress signal.
    pub(crate) fn residual_power(&self) -> f64 {
        self.state.as_ref().map_or(f64::INFINITY, |s| {
            self.decoder.residual_power(&s.candidate_frames)
        })
    }

    /// Takes the decoded payloads out of the latest decode, in column order.
    pub(crate) fn take_payloads(&mut self) -> Vec<Option<Vec<bool>>> {
        self.state
            .take()
            .map_or_else(|| vec![None; self.discovered.len()], |s| s.decoded_payloads)
    }

    /// Ends the phase — the reader drops its carrier — with the payloads
    /// the reader holds.  The progress series counts each payload the
    /// decoder delivered at the slot of its lock (a payload a TDMA poll
    /// delivered has no lock, and counts nowhere).
    pub(crate) fn finish(mut self, decoded_payloads: Vec<Option<Vec<bool>>>) -> TransferOutcome {
        self.time_s += PAPER_TIMING.downlink_s(ReaderCommand::BuzzStop.bits()) + PAPER_TIMING.t2_s;
        let mut progress = vec![0; self.slots];
        for (lock, payload) in self.lock_slots.iter().zip(&decoded_payloads) {
            if let (Some(slot), Some(_)) = (lock, payload) {
                progress[*slot] += 1;
            }
        }
        TransferOutcome {
            slots_used: self.slots,
            complete: decoded_payloads.iter().all(Option::is_some),
            framed_bits: self.framed_bits(),
            decoded_payloads,
            newly_decoded_per_slot: progress,
            per_tag_transmissions: self.tag_transmissions,
            time_ms: self.time_s * 1e3,
        }
    }
}

/// The reader's decoder over its discovered columns and channel estimates.
fn new_decoder(
    discovered: &[DiscoveredTag],
    framed_bits: usize,
    schedule: DecodeSchedule,
    medium: &Medium,
) -> BuzzResult<BitFlippingDecoder> {
    let channels = discovered.iter().map(|d| d.channel_estimate).collect();
    Ok(
        BitFlippingDecoder::new(channels, framed_bits, medium.noise_power())?
            .with_schedule(schedule),
    )
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
        let mut phase = DataPhase::new(&self.config, tags, discovered, medium)?;
        for slot in 0..(BUDGET_FACTOR * phase.population()) as u64 {
            let faults = phase.begin_slot(medium, slot);
            if faults.reader_restart {
                // The plain protocol keeps no checkpoint: the restart wipes
                // all undecoded session RAM and the transfer is lost (the
                // resuming variant lives in `crate::recovery`).
                phase.state = None;
                break;
            }
            phase.collision_slot(medium, slot, 0, &faults)?;
            if phase.all_decoded() {
                break;
            }
        }
        let payloads = phase.take_payloads();
        Ok(phase.finish(payloads))
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
    use proptest::prelude::*;

    /// Assigns tag `i` the temporary id `first_id + i` directly (bypassing
    /// the identification phase) and returns the genie-aided discovered
    /// tags, column `i` for tag `i`.
    fn genie_ids(scenario: &mut Scenario, first_id: u64) -> Vec<DiscoveredTag> {
        let mut discovered = Vec::new();
        for (i, tag) in scenario.tags_mut().iter_mut().enumerate() {
            let temp_id = first_id + i as u64;
            tag.assign_temporary_id(temp_id);
            discovered.push(DiscoveredTag {
                temporary_id: temp_id,
                channel_estimate: tag.channel.coefficient,
            });
        }
        discovered
    }

    /// A `paper_uplink` scenario with genie-aided ids from 1000.
    fn genie_setup(k: usize, seed: u64) -> (Scenario, Vec<DiscoveredTag>) {
        let mut scenario = ScenarioBuilder::paper_uplink(k, seed).build().unwrap();
        let discovered = genie_ids(&mut scenario, 1000);
        (scenario, discovered)
    }

    #[test]
    fn reader_rows_are_what_the_tags_aired_at_every_epoch() {
        use backscatter_sim::faults::TagDropout;

        // Fault-free: at epoch 0 and after re-keying to epoch 3, every
        // tag's transmission count is exactly the length of its decoder
        // column (tag `i` is column `i`).
        let k = 8;
        let (scenario, discovered) = genie_setup(k, 61);
        let mut medium = scenario.medium(17).unwrap();
        let config = TransferConfig::default();
        let mut phase = DataPhase::new(&config, scenario.tags(), &discovered, &medium).unwrap();
        let p = participation::probability(k, config.target_collision_size);
        for slot in 0..24u64 {
            let epoch = if slot < 12 { 0 } else { 3 };
            phase
                .collision_slot(&mut medium, slot, epoch, &SlotFaults::default())
                .unwrap();
            for tag in 0..k {
                let column = phase.decoder.d.col(tag).len();
                assert_eq!(
                    phase.tag_transmissions[tag], column,
                    "tag {tag}, slot {slot}"
                );
            }
        }
        // The epoch-3 rows are a fresh draw, not the epoch-0 rows replayed.
        assert!((12..24).any(|slot| {
            (0..k).any(|tag| {
                let epoch0 = participation::participates(1000 + tag as u64, 0, slot, p);
                epoch0 != phase.decoder.d.row(slot as usize).contains(&tag)
            })
        }));

        // A tag browned out by `TagDropout` keeps its reader rows (the
        // reader cannot know it went dark) but adds no transmissions from
        // the slot it went dark on.
        let mut scenario = ScenarioBuilder::paper_uplink(k, 61)
            .fault(TagDropout::new(0.5, 12).unwrap())
            .build()
            .unwrap();
        let discovered = genie_ids(&mut scenario, 1000);
        let mut medium = scenario.medium(17).unwrap();
        let mut phase = DataPhase::new(&config, scenario.tags(), &discovered, &medium).unwrap();
        let mut dark_from = vec![None; k];
        for slot in 0..24u64 {
            let faults = phase.begin_slot(&mut medium, slot);
            for (tag, dark) in dark_from.iter_mut().enumerate() {
                if phase.tag_dead[tag] && dark.is_none() {
                    *dark = Some(slot as usize);
                }
            }
            phase.collision_slot(&mut medium, slot, 0, &faults).unwrap();
        }
        let mut rows_while_dark = 0;
        for (tag, dark) in dark_from.iter().enumerate() {
            // No slot is erased, so row `j` is slot `j`.
            let column = phase.decoder.d.col(tag);
            let aired = column
                .iter()
                .filter(|&&row| dark.is_none_or(|d| row < d))
                .count();
            assert_eq!(phase.tag_transmissions[tag], aired, "tag {tag}");
            rows_while_dark += column.len() - aired;
        }
        assert!(
            dark_from.iter().any(Option::is_some),
            "setup: no tag browned out"
        );
        assert!(
            rows_while_dark > 0,
            "setup: no dark tag was predicted to transmit"
        );
    }

    /// Airs `slots` fault-free collision slots at the epoch `epoch_of`
    /// gives each slot, and returns per tag the slots it aired in.
    fn air_slots(
        phase: &mut DataPhase<'_>,
        medium: &mut Medium,
        slots: u64,
        epoch_of: impl Fn(u64) -> u64,
    ) -> Vec<Vec<usize>> {
        let mut aired = vec![Vec::new(); phase.tags.len()];
        for slot in 0..slots {
            let before = phase.tag_transmissions.clone();
            phase
                .collision_slot(medium, slot, epoch_of(slot), &SlotFaults::default())
                .unwrap();
            for (tag, slots) in aired.iter_mut().enumerate() {
                if phase.tag_transmissions[tag] > before[tag] {
                    slots.push(slot as usize);
                }
            }
        }
        aired
    }

    #[test]
    fn tag_and_reader_reconstruct_the_same_participation_matrix() {
        // The reader rebuilds each row of `D` from the temporary ids alone;
        // the tags decide independently.  Slot by slot, the row the decoder
        // appends is exactly the set of tags that aired, at epoch 0 and as
        // the epoch advances mid-phase the way `buzz+r` advances it.  K = 1
        // runs at the probability ceiling, K = 30 at its floor.
        for k in [1, 30] {
            let (scenario, discovered) = genie_setup(k, 7);
            let mut medium = scenario.medium(3).unwrap();
            let config = TransferConfig::default();
            let mut phase = DataPhase::new(&config, scenario.tags(), &discovered, &medium).unwrap();
            let aired = air_slots(&mut phase, &mut medium, 30, |slot| slot / 10);
            for slot in 0..30 {
                let row: Vec<usize> = (0..k).filter(|&tag| aired[tag].contains(&slot)).collect();
                assert_eq!(phase.decoder.d.row(slot), &row[..], "K = {k}, slot {slot}");
            }
            assert!(phase.decoder.d.nnz() > 0, "K = {k}: no tag aired");
        }
    }

    proptest! {
        /// For any population, collision target and epoch, and whatever
        /// order the reader discovered the tags in (one of them possibly
        /// missed), each reader column holds exactly the slots in which the
        /// tag with that column's temporary id aired.
        #[test]
        fn participation_matrix_matches_tag_decisions(
            k in 1usize..10,
            target in 0.5f64..12.0,
            epoch in 0u64..6,
            first_id in 0u64..1 << 40,
            rotate in 0usize..10,
            missed in any::<bool>(),
        ) {
            let mut scenario = ScenarioBuilder::paper_uplink(k, first_id).build().unwrap();
            let mut discovered = genie_ids(&mut scenario, first_id);
            discovered.rotate_left(rotate % k);
            if missed && k > 1 {
                discovered.pop();
            }
            let mut medium = scenario.medium(first_id).unwrap();
            let config = TransferConfig {
                target_collision_size: target,
                ..TransferConfig::default()
            };
            let mut phase = DataPhase::new(&config, scenario.tags(), &discovered, &medium).unwrap();
            let aired = air_slots(&mut phase, &mut medium, 16, |_| epoch);
            for (column, d) in discovered.iter().enumerate() {
                let tag = scenario
                    .tags()
                    .iter()
                    .position(|t| t.node_seed.0 == d.temporary_id)
                    .unwrap();
                prop_assert_eq!(phase.decoder.d.col(column), &aired[tag][..], "column {}", column);
            }
        }
    }

    #[test]
    fn config_validation() {
        assert!(TransferConfig::default().validate().is_ok());
        let bad = TransferConfig {
            target_collision_size: 0.0,
            ..TransferConfig::default()
        };
        assert!(bad.validate().is_err());
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
        let discovered = genie_ids(&mut scenario, 2000);
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
        let decoded: usize = outcome.newly_decoded_per_slot.iter().sum();
        assert_eq!(decoded, outcome.decoded_count());
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
            let discovered = genie_ids(&mut scenario, 1000);
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
        let discovered = genie_ids(&mut scenario, 3000);
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
        let discovered = genie_ids(&mut scenario, 4000);
        let mut medium = scenario.medium(3).unwrap();
        let outcome = DataTransfer::new(TransferConfig::default())
            .unwrap()
            .run(scenario.tags(), &discovered, &mut medium)
            .unwrap();
        assert!(!outcome.complete);
        assert_eq!(outcome.decoded_count(), 0);
        // Every budgeted slot aired and was discarded.
        assert_eq!(outcome.slots_used, BUDGET_FACTOR * 3);
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
