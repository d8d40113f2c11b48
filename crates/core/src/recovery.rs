//! Session recovery: fault-tolerant Buzz with retries, stall backoff,
//! checkpointed restarts, and graceful degradation to TDMA polling.
//!
//! The plain protocol ([`crate::protocol::BuzzProtocol`]) is written for the
//! paper's evaluation conditions: the channel may be noisy or fading, but the
//! control plane is perfect — every downlink command is heard, the reader
//! never loses state, and a tag that starts a transfer finishes it.  Under
//! the fault model of `backscatter_sim::faults` those assumptions break and
//! the plain session fails in characteristic ways: a reader restart wipes the
//! decoder and delivers **zero** messages, and a run of erased slots burns
//! the whole slot budget without a single lock.
//!
//! [`ResilientBuzzProtocol`] (scheme label `"buzz+r"`) wraps the same
//! rateless transfer with a recovery layer:
//!
//! * **Decode-stall detection** — the reader tracks the residual power of its
//!   decoder ([`crate::bp::BitFlippingDecoder::residual_power`]) over a
//!   sliding window; a plateau with no new locks means the incoming slots are
//!   not helping (erased, or a degenerate participation pattern).
//! * **Extra-slot requests with exponential backoff** — on a stall the reader
//!   issues a downlink request that reseeds every tag's participation stream
//!   (a new *epoch*), waits out a backoff that doubles per stall, and
//!   resumes.  Lost feedback consumes a bounded retry budget.
//! * **Checkpointed restart resume** — the decoder is snapshotted every few
//!   slots; a reader restart restores the snapshot and resumes, losing only
//!   the slots observed since the checkpoint instead of the whole session.
//! * **Graceful degradation to TDMA** — when the retry/stall budget is
//!   exhausted (or the slot budget runs out), the reader falls back to
//!   polling **only the unresolved tags** one at a time, Gen-2 style.  A
//!   singleton poll needs no collision frame sync, so it survives the slot
//!   erasures that starve the rateless decoder.
//!
//! The extra work is reported in
//! [`RecoveryDiagnostics`] on the
//! session outcome, so harnesses can separate "delivered" from "delivered
//! cheaply".  With no fault plan attached, `buzz+r` consumes the identical
//! noise-draw stream the plain protocol does: epoch 0 participation is the
//! plain temporary-id stream and no recovery machinery fires.

use backscatter_codes::message::Message;
use backscatter_gen2::commands::ReaderCommand;
use backscatter_phy::complex::Complex;
use backscatter_prng::{NodeSeed, SplitMix64};
use backscatter_sim::energy::{EnergyModel, TransmissionProfile};
use backscatter_sim::medium::Medium;
use backscatter_sim::scenario::Scenario;
use backscatter_sim::tag::SimTag;

use crate::bp::{BitFlippingDecoder, DecodeSchedule, DecodeState};
use crate::identification::{DiscoveredTag, Identifier};
use crate::protocol::{BuzzConfig, BuzzOutcome};
use crate::rateless::ParticipationCode;
use crate::session::{Protocol, RecoveryDiagnostics, SessionError, SessionOutcome, SessionResult};
use crate::transfer::{per_tag_delivery, score_against_truth, TransferOutcome};
use crate::{BuzzError, BuzzResult};

/// Salt for epoch reseeding: epoch `e ≥ 1` participation streams derive from
/// `mix(temporary_id, EPOCH_SALT + e)`; epoch 0 is the plain temporary id, so
/// a fault-free session is draw-identical to the plain protocol.
const EPOCH_SALT: u64 = 0xe90_c001;

/// Configuration of the recovery layer.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Sliding-window length (in air slots) over which residual power must
    /// plateau before the reader declares a decode stall.
    pub stall_window: usize,
    /// Minimum *relative* residual improvement over the window that counts
    /// as progress (e.g. `0.05` = 5 %); anything less, with no new locks, is
    /// a stall.
    pub stall_tolerance: f64,
    /// Total extra-slot request transmissions the reader may spend per
    /// session (lost-feedback retries consume this same budget).
    pub max_request_retries: usize,
    /// Backoff after the first stall, in idle slots; doubles per stall.
    pub backoff_base_slots: usize,
    /// Stalls tolerated before the session degrades to the TDMA fallback.
    pub max_stalls: usize,
    /// Snapshot the decoder every this many data slots (`0` disables
    /// checkpointing, making a reader restart start the decode over from
    /// nothing, as in the plain protocol — though the session still
    /// continues instead of aborting).  A medium without a fault plan
    /// raises no reader restart, so its sessions take no snapshots.
    pub checkpoint_interval: usize,
    /// Session slot budget as a multiple of the population size; covers
    /// data, backoff, and request slots (the fallback polls are bounded
    /// separately by `fallback_poll_attempts`).
    pub slot_budget_factor: usize,
    /// Whether to degrade to TDMA polling for unresolved tags when the
    /// rateless phase gives up.
    pub tdma_fallback: bool,
    /// Polls per unresolved tag in the TDMA fallback.
    pub fallback_poll_attempts: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            stall_window: 8,
            stall_tolerance: 0.05,
            max_request_retries: 4,
            backoff_base_slots: 2,
            max_stalls: 3,
            checkpoint_interval: 4,
            slot_budget_factor: 24,
            tdma_fallback: true,
            fallback_poll_attempts: 2,
        }
    }
}

impl RecoveryConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::InvalidParameter`] for out-of-range fields.
    pub fn validate(&self) -> BuzzResult<()> {
        if self.stall_window < 2 {
            return Err(BuzzError::InvalidParameter(
                "stall window must cover at least two slots",
            ));
        }
        if !(0.0..1.0).contains(&self.stall_tolerance) {
            return Err(BuzzError::InvalidParameter(
                "stall tolerance must be in [0, 1)",
            ));
        }
        if self.max_request_retries == 0 {
            return Err(BuzzError::InvalidParameter(
                "at least one extra-slot request is required",
            ));
        }
        if self.backoff_base_slots == 0 {
            return Err(BuzzError::InvalidParameter("backoff base must be non-zero"));
        }
        if self.slot_budget_factor == 0 {
            return Err(BuzzError::InvalidParameter(
                "slot budget factor must be non-zero",
            ));
        }
        if self.tdma_fallback && self.fallback_poll_attempts == 0 {
            return Err(BuzzError::InvalidParameter(
                "fallback needs at least one poll attempt",
            ));
        }
        Ok(())
    }
}

/// The effective participation seed for a tag in a given epoch.  Epoch 0 is
/// the plain temporary id (draw-identical to [`crate::transfer`]); each
/// delivered extra-slot request advances the epoch and both sides re-derive.
#[must_use]
fn epoch_seed(temporary_id: u64, epoch: u64) -> NodeSeed {
    if epoch == 0 {
        NodeSeed(temporary_id)
    } else {
        NodeSeed(SplitMix64::mix(temporary_id, EPOCH_SALT + epoch))
    }
}

/// Decoder snapshot plus the bookkeeping needed to resume from it.
struct Checkpoint {
    decoder: BitFlippingDecoder,
    data_slots: usize,
    last_residual: f64,
}

/// Buzz with the recovery layer enabled (scheme label `"buzz+r"`).
#[derive(Debug, Clone)]
pub struct ResilientBuzzProtocol {
    config: BuzzConfig,
    recovery: RecoveryConfig,
    energy_model: EnergyModel,
}

impl ResilientBuzzProtocol {
    /// Creates a resilient protocol driver.
    ///
    /// # Errors
    ///
    /// Returns an error if any phase's configuration is invalid.
    pub fn new(config: BuzzConfig, recovery: RecoveryConfig) -> BuzzResult<Self> {
        config.identification.validate()?;
        config.transfer.validate()?;
        recovery.validate()?;
        Ok(Self {
            config,
            recovery,
            energy_model: EnergyModel::moo(),
        })
    }

    /// Overrides the energy model (defaults to the Moo constants).
    #[must_use]
    pub fn with_energy_model(mut self, model: EnergyModel) -> Self {
        self.energy_model = model;
        self
    }

    /// The recovery configuration in use.
    #[must_use]
    pub fn recovery(&self) -> &RecoveryConfig {
        &self.recovery
    }

    /// The protocol configuration in use.
    #[must_use]
    pub fn config(&self) -> &BuzzConfig {
        &self.config
    }

    /// Runs the resilient protocol over a scenario; `noise_seed` selects the
    /// noise, dynamics, and fault realization exactly as for the plain
    /// protocol.  Returns the protocol outcome together with the recovery
    /// diagnostics (the session adapter folds them into
    /// [`SessionOutcome::diagnostics`]).
    ///
    /// # Errors
    ///
    /// Propagates identification, transfer, and medium errors.
    pub fn run(
        &self,
        scenario: &mut Scenario,
        noise_seed: u64,
    ) -> BuzzResult<(BuzzOutcome, RecoveryDiagnostics)> {
        let mut medium = scenario.medium(noise_seed)?;

        let (identification, discovered) = if self.config.periodic_mode {
            // Periodic networks: static schedule, ids and channels known.
            let mut discovered = Vec::with_capacity(scenario.tags().len());
            for (i, tag) in scenario.tags_mut().iter_mut().enumerate() {
                let temp_id = i as u64;
                tag.assign_temporary_id(temp_id);
                discovered.push(DiscoveredTag {
                    temporary_id: temp_id,
                    channel_estimate: tag.channel.coefficient,
                });
            }
            (None, discovered)
        } else {
            // Identification runs fault-free: the fault plan indexes *data*
            // slots, matching the plain protocol's slot numbering.
            let identifier = Identifier::new(self.config.identification)?;
            let outcome = identifier.run(scenario, &mut medium)?;
            let discovered = outcome.discovered.clone();
            (Some(outcome), discovered)
        };

        let (transfer, diagnostics) =
            self.run_transfer(scenario.tags(), &discovered, &mut medium)?;
        let (correct, incorrect) = score_against_truth(&transfer, &discovered, scenario.tags());
        // The fallback's polled deliveries land in `transfer.decoded_payloads`
        // like any decoded column, so per-tag attribution covers them too.
        let per_tag_delivered = per_tag_delivery(&transfer, &discovered, scenario.tags());

        // Energy accounting mirrors the plain protocol: identification slots
        // are single-bit transmissions at ~50 % participation, and each data
        // transmission (rateless slot or fallback poll) replays the framed
        // message once.
        let ident_bits = identification
            .as_ref()
            .map(|i| i.slots.total() / 2)
            .unwrap_or(0);
        let uplink_bps = self.config.transfer.timing.uplink_bps;
        let starting_voltage = scenario.config().starting_voltage_v;
        let per_tag_energy_j: Vec<f64> = scenario
            .tags()
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let ident_profile = TransmissionProfile::for_bits(ident_bits, uplink_bps, 1.0, 1);
                let repeats = transfer.per_tag_transmissions.get(i).copied().unwrap_or(0);
                let data_profile = TransmissionProfile::for_bits(
                    transfer.framed_bits,
                    uplink_bps,
                    1.0,
                    repeats.max(1),
                );
                self.energy_model
                    .reply_energy_j(&ident_profile.combined(&data_profile), starting_voltage)
            })
            .collect();

        Ok((
            BuzzOutcome {
                identification,
                transfer,
                correct_messages: correct,
                incorrect_messages: incorrect,
                per_tag_delivered,
                per_tag_energy_j,
            },
            diagnostics,
        ))
    }

    /// The resilient data phase.  Returns the transfer outcome plus the
    /// recovery diagnostics describing the work spent surviving faults.
    fn run_transfer(
        &self,
        tags: &[SimTag],
        discovered: &[DiscoveredTag],
        medium: &mut Medium,
    ) -> BuzzResult<(TransferOutcome, RecoveryDiagnostics)> {
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

        let cfg = &self.config.transfer;
        let rec = &self.recovery;
        let timing = cfg.timing;
        let k_reader = discovered.len();
        let code = ParticipationCode::for_population(k_reader, cfg.target_collision_size)?;
        let channels: Vec<Complex> = discovered.iter().map(|d| d.channel_estimate).collect();
        let fresh_decoder = |medium: &Medium| -> BuzzResult<BitFlippingDecoder> {
            let mut d =
                BitFlippingDecoder::new(channels.clone(), framed_bits, medium.noise_power())?
                    .with_schedule(cfg.decode_schedule);
            if cfg.decode_schedule == DecodeSchedule::MessagePassing && medium.dynamics().is_empty()
            {
                d.enable_static_handoff(true);
            }
            Ok(d)
        };
        let mut decoder = fresh_decoder(medium)?;

        // Reader column -> physical tag index (fallback polling needs the
        // physical side; a column whose tag was never discovered correctly
        // cannot be polled).
        let col_to_tag: Vec<Option<usize>> = discovered
            .iter()
            .map(|d| {
                tags.iter()
                    .position(|t| t.node_seed == NodeSeed(d.temporary_id))
            })
            .collect();

        let mut diag = RecoveryDiagnostics::default();
        let mut time_s = timing.downlink_s(ReaderCommand::BuzzTrigger.bits()) + timing.t1_s;
        let slot_s = framed_bits as f64 * timing.uplink_symbol_s();
        let budget = rec.slot_budget_factor * tags.len().max(k_reader);

        let mut newly_decoded_per_slot: Vec<usize> = Vec::new();
        let mut tag_transmissions = vec![0usize; tags.len()];
        let mut tag_dead = vec![false; tags.len()];
        let mut final_state: Option<DecodeState> = None;
        let mut epoch: u64 = 0;
        let mut slot: u64 = 0; // global air-slot counter (faults + dynamics)
        let mut data_slots: usize = 0; // rows the decoder currently holds
        let mut requests_spent = 0usize;
        let mut last_residual = f64::INFINITY;
        let mut residual_window: Vec<f64> = Vec::new();
        let mut locks_in_window: Vec<usize> = Vec::new();
        let mut checkpoint: Option<Checkpoint> = None;
        let mut complete = false;

        while newly_decoded_per_slot.len() < budget {
            medium.begin_slot(slot);
            let faults = medium.slot_faults(slot);
            if let Some(f) = &faults {
                for &t in &f.tags_reset {
                    if t < tag_dead.len() {
                        tag_dead[t] = true;
                    }
                }
                if f.reader_restart {
                    // Restore the last checkpoint (or start the decode over
                    // when none was taken): only the slots observed since
                    // are lost, not the session.
                    let since = match checkpoint.take() {
                        Some(cp) => {
                            let since = data_slots - cp.data_slots;
                            decoder = cp.decoder;
                            data_slots = cp.data_slots;
                            last_residual = cp.last_residual;
                            since
                        }
                        None => {
                            let since = data_slots;
                            decoder = fresh_decoder(medium)?;
                            data_slots = 0;
                            last_residual = f64::INFINITY;
                            since
                        }
                    };
                    diag.checkpoint_restores += 1;
                    diag.wasted_slots += since;
                    // Locks recorded in the wasted slots no longer exist on
                    // the restarted reader: zero their progress entries so
                    // the cumulative series reflects its final knowledge.
                    let len = newly_decoded_per_slot.len();
                    for entry in &mut newly_decoded_per_slot[len - since.min(len)..] {
                        *entry = 0;
                    }
                    final_state = None;
                    residual_window.clear();
                    locks_in_window.clear();
                    // Re-acquisition occupies this slot; nothing is on the air.
                    newly_decoded_per_slot.push(0);
                    time_s += slot_s;
                    slot += 1;
                    continue;
                }
            }

            // One rateless collision slot at the current epoch.
            let participation: Vec<bool> = tags
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    !tag_dead[i] && code.participates(epoch_seed(t.node_seed.0, epoch), slot)
                })
                .collect();
            // The reader predicts participation from the temporary ids it
            // assigned; it cannot know a tag browned out, so a dead tag's
            // column keeps its predicted row (the resulting mismatch is part
            // of what the stall detector sees).
            let reader_participation: Vec<bool> = discovered
                .iter()
                .map(|d| code.participates(epoch_seed(d.temporary_id, epoch), slot))
                .collect();
            for (count, &p) in tag_transmissions.iter_mut().zip(&participation) {
                if p {
                    *count += 1;
                }
            }
            let noise_factor = faults.as_ref().map_or(1.0, |f| f.noise_power_factor);
            let mut symbols = Vec::with_capacity(framed_bits);
            for pos in 0..framed_bits {
                let bits: Vec<bool> = (0..tags.len())
                    .map(|i| participation[i] && framed[i][pos])
                    .collect();
                symbols.push(medium.observe_with_noise_factor(&bits, noise_factor)?);
            }
            time_s += slot_s;
            slot += 1;

            let newly = if faults.as_ref().is_some_and(|f| f.collision_erased) {
                // Erased slot: the air time passed but the reader kept
                // nothing.  The residual carries over unchanged, which is
                // exactly the plateau the stall detector looks for.
                0
            } else {
                decoder.add_slot(&reader_participation, symbols)?;
                data_slots += 1;
                let state = decoder.decode()?;
                let newly = state.newly_decoded.len();
                last_residual = decoder.residual_power(&state.candidate_frames);
                let done = state.all_decoded();
                final_state = Some(state);
                if done {
                    newly_decoded_per_slot.push(newly);
                    complete = true;
                    break;
                }
                // Only a reader-restart fault reads the checkpoint, and a
                // medium without a fault plan never raises one.
                if rec.checkpoint_interval > 0
                    && data_slots.is_multiple_of(rec.checkpoint_interval)
                    && medium.has_faults()
                {
                    checkpoint = Some(Checkpoint {
                        decoder: decoder.clone(),
                        data_slots,
                        last_residual,
                    });
                }
                newly
            };
            newly_decoded_per_slot.push(newly);

            // Stall detection: a full window with no locks and no relative
            // residual improvement means the incoming slots are useless.
            residual_window.push(last_residual);
            locks_in_window.push(newly);
            if residual_window.len() > rec.stall_window {
                residual_window.remove(0);
                locks_in_window.remove(0);
            }
            let stalled = residual_window.len() == rec.stall_window
                && locks_in_window.iter().sum::<usize>() == 0
                && {
                    // `>=` (not `!(<)`) — an all-erased stream plateaus at
                    // INF on both ends, which still counts as no progress.
                    let first = residual_window[0];
                    let last = *residual_window.last().unwrap();
                    last >= first * (1.0 - rec.stall_tolerance)
                };
            if !stalled {
                continue;
            }

            diag.stalls_detected += 1;
            if diag.stalls_detected > rec.max_stalls {
                break;
            }

            // Issue an extra-slot request: a downlink command that reseeds
            // every tag's participation stream.  Lost feedback burns a slot
            // and a retry; a delivered request advances the epoch.
            let mut delivered_request = false;
            while requests_spent < rec.max_request_retries {
                requests_spent += 1;
                diag.extra_slot_requests += 1;
                medium.begin_slot(slot);
                let lost = medium.slot_faults(slot).is_some_and(|f| f.feedback_lost);
                time_s +=
                    timing.downlink_s(ReaderCommand::QueryAdjust { q: 0 }.bits()) + timing.t1_s;
                newly_decoded_per_slot.push(0);
                slot += 1;
                if lost {
                    diag.feedback_retries += 1;
                    continue;
                }
                delivered_request = true;
                break;
            }
            if !delivered_request {
                break;
            }
            epoch += 1;

            // Exponential backoff: idle slots while the channel (or the
            // interferer) clears.  Dynamics and faults keep evolving.
            let backoff = rec.backoff_base_slots << (diag.stalls_detected - 1).min(16);
            for _ in 0..backoff {
                if newly_decoded_per_slot.len() >= budget {
                    break;
                }
                medium.begin_slot(slot);
                diag.backoff_slots += 1;
                newly_decoded_per_slot.push(0);
                time_s += slot_s;
                slot += 1;
            }
            residual_window.clear();
            locks_in_window.clear();
        }

        let mut decoded_payloads = final_state
            .map(|s| s.decoded_payloads)
            .unwrap_or_else(|| vec![None; k_reader]);

        // Graceful degradation: TDMA polls for the unresolved columns only.
        let unresolved: Vec<usize> = decoded_payloads
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.is_none().then_some(i))
            .collect();
        if rec.tdma_fallback && !unresolved.is_empty() {
            diag.fallback_events += 1;
            for col in unresolved {
                let Some(tag_idx) = col_to_tag[col] else {
                    continue; // never discovered correctly: nothing to poll
                };
                let h = discovered[col].channel_estimate;
                for _ in 0..rec.fallback_poll_attempts {
                    medium.begin_slot(slot);
                    let faults = medium.slot_faults(slot);
                    if let Some(f) = &faults {
                        for &t in &f.tags_reset {
                            if t < tag_dead.len() {
                                tag_dead[t] = true;
                            }
                        }
                    }
                    diag.fallback_polls += 1;
                    time_s += timing.downlink_s(ReaderCommand::Ack.bits()) + timing.t1_s;
                    slot += 1;
                    // A lost poll command, or a browned-out tag, wastes the
                    // poll.  `collision_erased` does NOT apply: it models
                    // frame-sync loss on the superposed collision waveform,
                    // and a singleton reply uses a conventional preamble.
                    if faults.as_ref().is_some_and(|f| f.feedback_lost) || tag_dead[tag_idx] {
                        time_s += timing.t2_s;
                        continue;
                    }
                    let noise_factor = faults.as_ref().map_or(1.0, |f| f.noise_power_factor);
                    tag_transmissions[tag_idx] += 1;
                    let mut decoded_bits = Vec::with_capacity(framed_bits);
                    for pos in 0..framed_bits {
                        let mut bits = vec![false; tags.len()];
                        bits[tag_idx] = framed[tag_idx][pos];
                        let y = medium.observe_with_noise_factor(&bits, noise_factor)?;
                        // Matched filter against the reader's channel
                        // estimate for this column.
                        decoded_bits.push((y * h.conj()).re > h.norm_sqr() / 2.0);
                    }
                    time_s += framed_bits as f64 / timing.uplink_bps + timing.t2_s;
                    if let Ok(Some(message)) = Message::verify(&decoded_bits) {
                        decoded_payloads[col] = Some(message.payload().to_vec());
                        diag.fallback_delivered += 1;
                        break;
                    }
                }
            }
        }
        complete = complete || decoded_payloads.iter().all(Option::is_some);

        time_s += timing.downlink_s(ReaderCommand::BuzzStop.bits()) + timing.t2_s;
        let outcome = TransferOutcome {
            slots_used: newly_decoded_per_slot.len(),
            decoded_payloads,
            newly_decoded_per_slot,
            per_tag_transmissions: tag_transmissions,
            framed_bits,
            time_ms: time_s * 1e3,
            complete,
        };
        Ok((outcome, diag))
    }
}

impl Protocol for ResilientBuzzProtocol {
    fn name(&self) -> &str {
        "buzz+r"
    }

    fn run(&self, scenario: &mut Scenario, seed: u64) -> SessionResult<SessionOutcome> {
        let (outcome, recovery) =
            ResilientBuzzProtocol::run(self, scenario, seed).map_err(SessionError::from)?;
        let mut session = SessionOutcome::from(outcome);
        session.scheme = self.name().to_string();
        if let Some(diag) = session.diagnostics.as_mut() {
            diag.recovery = Some(recovery);
        }
        Ok(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BuzzProtocol;
    use backscatter_sim::faults::{FeedbackLoss, ReaderRestart, SlotErasure, TagDropout};
    use backscatter_sim::scenario::ScenarioBuilder;

    fn periodic_config() -> BuzzConfig {
        BuzzConfig {
            periodic_mode: true,
            ..BuzzConfig::default()
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_values() {
        assert!(RecoveryConfig::default().validate().is_ok());
        let bad = [
            RecoveryConfig {
                stall_window: 1,
                ..RecoveryConfig::default()
            },
            RecoveryConfig {
                stall_tolerance: 1.0,
                ..RecoveryConfig::default()
            },
            RecoveryConfig {
                max_request_retries: 0,
                ..RecoveryConfig::default()
            },
            RecoveryConfig {
                backoff_base_slots: 0,
                ..RecoveryConfig::default()
            },
            RecoveryConfig {
                slot_budget_factor: 0,
                ..RecoveryConfig::default()
            },
            RecoveryConfig {
                fallback_poll_attempts: 0,
                ..RecoveryConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn epoch_zero_is_the_plain_seed() {
        assert_eq!(epoch_seed(42, 0), NodeSeed(42));
        assert_ne!(epoch_seed(42, 1), NodeSeed(42));
        assert_ne!(epoch_seed(42, 1), epoch_seed(42, 2));
    }

    #[test]
    fn fault_free_session_matches_the_plain_protocol() {
        // With no fault plan, buzz+r must decode the identical slot stream:
        // same deliveries, same slot count, and no recovery machinery fired.
        let mut s1 = ScenarioBuilder::paper_uplink(8, 301).build().unwrap();
        let mut s2 = ScenarioBuilder::paper_uplink(8, 301).build().unwrap();
        let plain = BuzzProtocol::new(periodic_config()).unwrap();
        let resilient =
            ResilientBuzzProtocol::new(periodic_config(), RecoveryConfig::default()).unwrap();
        let a = Protocol::run(&plain, &mut s1, 4).unwrap();
        let b = Protocol::run(&resilient, &mut s2, 4).unwrap();
        assert_eq!(b.scheme, "buzz+r");
        assert_eq!(a.delivered_messages, b.delivered_messages);
        assert_eq!(a.lost_messages, 0);
        assert_eq!(a.slots_used, b.slots_used);
        let diag = b.diagnostics.unwrap().recovery.unwrap();
        assert_eq!(diag, RecoveryDiagnostics::default());
    }

    #[test]
    fn reader_restart_resumes_from_the_checkpoint() {
        // Operating point A: the plain protocol delivers zero after a
        // restart; buzz+r restores its checkpoint and finishes the transfer.
        // The session decodes in 5 slots, so the restart comes at slot 3 and
        // snapshots every 2 data slots: the restore resumes at data slot 2
        // and throws away one slot (starting over would throw away 3).
        let build = || {
            ScenarioBuilder::paper_uplink(8, 310)
                .fault(ReaderRestart::new(3))
                .build()
                .unwrap()
        };
        let plain = BuzzProtocol::new(periodic_config()).unwrap();
        let resilient = ResilientBuzzProtocol::new(
            periodic_config(),
            RecoveryConfig {
                checkpoint_interval: 2,
                ..RecoveryConfig::default()
            },
        )
        .unwrap();
        let dead = Protocol::run(&plain, &mut build(), 6).unwrap();
        assert_eq!(dead.delivered_messages, 0);
        let alive = Protocol::run(&resilient, &mut build(), 6).unwrap();
        assert_eq!(alive.delivered_messages, 8);
        let diag = alive.diagnostics.unwrap().recovery.unwrap();
        assert_eq!(diag.checkpoint_restores, 1);
        assert_eq!(diag.wasted_slots, 1);
    }

    #[test]
    fn total_erasure_degrades_to_tdma_polling() {
        // Operating point B: 100 % slot erasure starves the rateless
        // decoder; the plain protocol burns its budget and delivers zero,
        // buzz+r falls back to singleton polls and delivers everything.
        let build = || {
            ScenarioBuilder::paper_uplink(6, 320)
                .fault(SlotErasure::new(1.0).unwrap())
                .build()
                .unwrap()
        };
        let plain = BuzzProtocol::new(periodic_config()).unwrap();
        let resilient =
            ResilientBuzzProtocol::new(periodic_config(), RecoveryConfig::default()).unwrap();
        let dead = Protocol::run(&plain, &mut build(), 9).unwrap();
        assert_eq!(dead.delivered_messages, 0);
        let alive = Protocol::run(&resilient, &mut build(), 9).unwrap();
        assert_eq!(alive.delivered_messages, 6);
        let diag = alive.diagnostics.unwrap().recovery.unwrap();
        assert!(diag.stalls_detected >= 1);
        assert!(diag.extra_slot_requests >= 1);
        assert!(diag.backoff_slots >= RecoveryConfig::default().backoff_base_slots);
        assert_eq!(diag.fallback_events, 1);
        assert_eq!(diag.fallback_delivered, 6);
    }

    #[test]
    fn lost_feedback_consumes_the_retry_budget() {
        // Erasure starves the decoder AND every request's feedback is lost:
        // the retry budget drains completely.  Fallback polls are
        // reader-initiated downlink commands too, so 100 % feedback loss
        // also starves them — the session ends as a conservation-clean
        // total loss rather than a panic or a hang.
        let mut scenario = ScenarioBuilder::paper_uplink(4, 330)
            .fault(SlotErasure::new(1.0).unwrap())
            .fault(FeedbackLoss::new(1.0).unwrap())
            .build()
            .unwrap();
        let resilient =
            ResilientBuzzProtocol::new(periodic_config(), RecoveryConfig::default()).unwrap();
        let out = Protocol::run(&resilient, &mut scenario, 2).unwrap();
        let diag = out.diagnostics.clone().unwrap().recovery.unwrap();
        assert_eq!(
            diag.extra_slot_requests,
            RecoveryConfig::default().max_request_retries
        );
        assert_eq!(diag.feedback_retries, diag.extra_slot_requests);
        assert_eq!(out.delivered_messages + out.lost_messages, 4);
        assert_eq!(out.delivered_messages, 0);
    }

    #[test]
    fn dead_tags_fail_their_polls_but_the_rest_recover() {
        // A dropout plus total erasure: the survivors arrive via fallback
        // polls, the browned-out tags are clean losses, nothing panics.
        let mut scenario = ScenarioBuilder::paper_uplink(5, 340)
            .fault(SlotErasure::new(1.0).unwrap())
            .fault(TagDropout::new(0.4, 10).unwrap())
            .build()
            .unwrap();
        let resilient =
            ResilientBuzzProtocol::new(periodic_config(), RecoveryConfig::default()).unwrap();
        let out = Protocol::run(&resilient, &mut scenario, 3).unwrap();
        assert_eq!(out.total_messages(), 5);
        assert!(out.delivered_messages >= 1);
        let diag = out.diagnostics.clone().unwrap().recovery.unwrap();
        assert!(diag.fallback_polls >= 1);
    }

    #[test]
    fn fallback_can_be_disabled() {
        let mut scenario = ScenarioBuilder::paper_uplink(4, 350)
            .fault(SlotErasure::new(1.0).unwrap())
            .build()
            .unwrap();
        let recovery = RecoveryConfig {
            tdma_fallback: false,
            ..RecoveryConfig::default()
        };
        let resilient = ResilientBuzzProtocol::new(periodic_config(), recovery).unwrap();
        let out = Protocol::run(&resilient, &mut scenario, 2).unwrap();
        assert_eq!(out.delivered_messages, 0);
        assert_eq!(out.lost_messages, 4);
        let diag = out.diagnostics.clone().unwrap().recovery.unwrap();
        assert_eq!(diag.fallback_events, 0);
        assert_eq!(diag.fallback_polls, 0);
    }

    #[test]
    fn full_protocol_with_identification_survives_faults() {
        // Non-periodic: identification runs fault-free (faults index data
        // slots), then the resilient transfer rides out a restart.
        let mut scenario = ScenarioBuilder::paper_uplink(6, 360)
            .fault(ReaderRestart::new(2))
            .build()
            .unwrap();
        let resilient =
            ResilientBuzzProtocol::new(BuzzConfig::default(), RecoveryConfig::default()).unwrap();
        let out = Protocol::run(&resilient, &mut scenario, 11).unwrap();
        assert_eq!(out.total_messages(), 6);
        assert!(out.delivered_messages >= 5);
        let diag = out.diagnostics.clone().unwrap();
        assert!(diag.identification_time_ms.is_some());
        assert_eq!(diag.recovery.unwrap().checkpoint_restores, 1);
    }
}
