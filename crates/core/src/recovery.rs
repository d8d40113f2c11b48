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
//! [`ResilientBuzzProtocol`] (scheme label `"buzz+r"`) runs the plain
//! protocol's discovery, collision slots and accounting (the transfer
//! module's `DataPhase`) under a recovery loop:
//!
//! * **Decode-stall detection** — the reader tracks the residual power of its
//!   decoder's candidate frames
//!   ([`crate::bp::BitFlippingDecoder::residual_power`], read after each
//!   decode) over a sliding window; a plateau with no new locks means the
//!   incoming slots are not helping (erased, a degenerate participation
//!   pattern, or a column the decoder cannot explain).
//! * **Extra-slot requests with exponential backoff** — on a stall the reader
//!   issues a downlink request that reseeds every tag's participation stream
//!   (a new *epoch*), waits out a backoff that doubles per stall, and
//!   resumes.  Lost feedback consumes a bounded retry budget.
//! * **Checkpointed restart resume** — the decoder is snapshotted every few
//!   slots; a reader restart restores the snapshot and resumes, losing only
//!   the slots observed since the checkpoint instead of the whole session.
//!   The decoder holds the session's decode state (its rows, locks and
//!   candidate frames), so the snapshot is the decoder and the slots of its
//!   locks, and the restored locks are delivered even when no decode
//!   follows the restore.
//! * **Graceful degradation to TDMA** — when the stall budget is exhausted
//!   (or the slot budget runs out), the reader falls back to polling **only
//!   the unresolved tags** one at a time, Gen-2 style.  A singleton poll
//!   needs no collision frame sync, so it survives the slot erasures that
//!   starve the rateless decoder.
//!
//! Only the checkpoint interval is configurable ([`RecoveryConfig`]); the
//! stall, request, budget and fallback policy are the constants below.  The
//! extra work is reported in [`RecoveryDiagnostics`] on the session outcome,
//! so harnesses can separate "delivered" from "delivered cheaply".
//!
//! With no faults attached, `buzz+r` draws the plain protocol's noise
//! stream (epoch 0 participation is the plain temporary-id stream) and
//! matches the plain session until its stall detector fires.  In periodic
//! mode that did not happen in 1,600 fault-free `paper_uplink` sessions
//! (K = 4–16).  Through identification it does: a tag identification
//! missed, or a column it invented, keeps the decode off the noise floor.
//! Of the 400 fault-free sessions of the full-pipeline lock census (a test
//! in `protocol.rs`), 25 of the 395 that identified stalled (34 stalls, 33
//! requests, 94 backoff slots), and in one the TDMA fallback delivered 2
//! messages.

use backscatter_codes::message::Message;
use backscatter_gen2::commands::ReaderCommand;
use backscatter_gen2::timing::PAPER_TIMING;
use backscatter_prng::NodeSeed;
use backscatter_sim::medium::Medium;
use backscatter_sim::scenario::Scenario;
use backscatter_sim::tag::SimTag;

use crate::bp::BitFlippingDecoder;
use crate::identification::DiscoveredTag;
use crate::protocol::{BuzzConfig, BuzzOutcome, BuzzProtocol};
use crate::session::{Protocol, RecoveryDiagnostics, SessionError, SessionOutcome, SessionResult};
use crate::transfer::{DataPhase, TransferOutcome};
use crate::BuzzResult;

/// Length, in collision slots (decoded or erased), of the window over which
/// the residual power must plateau with no new locks before the reader
/// declares a decode stall.
const STALL_WINDOW: usize = 8;

/// Minimum relative residual improvement over the stall window that counts
/// as progress (5 %).
const STALL_TOLERANCE: f64 = 0.05;

/// Extra-slot request transmissions per session; retries after lost
/// feedback draw on the same budget.
const MAX_REQUEST_RETRIES: usize = 4;

/// Backoff after the first stall, in idle slots; it doubles per stall.
const BACKOFF_BASE_SLOTS: usize = 2;

/// Stalls tolerated before the session degrades to the TDMA fallback.
const MAX_STALLS: usize = 3;

/// Session slot budget as a multiple of the population.  It covers data,
/// request and backoff slots; the fallback's polls are bounded by
/// [`FALLBACK_POLL_ATTEMPTS`] instead.
const SLOT_BUDGET_FACTOR: usize = 24;

/// Polls per unresolved tag in the TDMA fallback.
const FALLBACK_POLL_ATTEMPTS: usize = 2;

/// Configuration of the recovery layer: the one setting its callers choose
/// differently (the fleets snapshot every 4 data slots, `fig_resilience`
/// every 2).
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Snapshot the decoder every this many data slots (`0` disables
    /// checkpointing, making a reader restart start the decode over from
    /// nothing, as in the plain protocol — though the session still
    /// continues instead of aborting).  A medium without faults raises
    /// no reader restart, so its sessions take no snapshots.
    pub checkpoint_interval: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            checkpoint_interval: 4,
        }
    }
}

/// Decoder snapshot plus the progress bookkeeping needed to resume from it.
struct Checkpoint {
    decoder: BitFlippingDecoder,
    /// The slot of each lock the snapshot holds, the decoder's part of the
    /// progress series.
    lock_slots: Vec<Option<usize>>,
}

/// Buzz with the recovery layer enabled (scheme label `"buzz+r"`).
#[derive(Debug, Clone)]
pub struct ResilientBuzzProtocol {
    plain: BuzzProtocol,
    recovery: RecoveryConfig,
}

impl ResilientBuzzProtocol {
    /// Creates a resilient protocol driver.
    ///
    /// # Errors
    ///
    /// Returns an error if either phase's configuration is invalid.
    pub fn new(config: BuzzConfig, recovery: RecoveryConfig) -> BuzzResult<Self> {
        Ok(Self {
            plain: BuzzProtocol::new(config)?,
            recovery,
        })
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
        let (identification, discovered) = self.plain.discover(scenario, &mut medium)?;
        let (transfer, diagnostics) =
            self.run_transfer(scenario.tags(), &discovered, &mut medium)?;
        let outcome = self
            .plain
            .finish(scenario, identification, &discovered, transfer);
        Ok((outcome, diagnostics))
    }

    /// The resilient data phase.  Returns the transfer outcome plus the
    /// recovery diagnostics describing the work spent surviving faults.
    fn run_transfer(
        &self,
        tags: &[SimTag],
        discovered: &[DiscoveredTag],
        medium: &mut Medium,
    ) -> BuzzResult<(TransferOutcome, RecoveryDiagnostics)> {
        let mut phase = DataPhase::new(&self.plain.config.transfer, tags, discovered, medium)?;
        let budget = SLOT_BUDGET_FACTOR * phase.population();
        let interval = self.recovery.checkpoint_interval;
        let mut diag = RecoveryDiagnostics::default();
        let mut epoch: u64 = 0;
        let mut slot: u64 = 0; // air-slot counter (faults + dynamics)
        let mut requests_spent = 0usize;
        // The decoder's residual power after its latest decode; an erased
        // slot leaves it as it was.
        let mut residual = f64::INFINITY;
        // (residual, newly decoded) per slot over the stall window.
        let mut window: Vec<(f64, usize)> = Vec::with_capacity(STALL_WINDOW + 1);
        let mut checkpoint: Option<Checkpoint> = None;

        while phase.slots < budget {
            let faults = phase.begin_slot(medium, slot);
            if faults.reader_restart {
                // Restore the last checkpoint (or start the decode over
                // when none was taken): only the slots observed since are
                // lost, not the session.  Locks taken after the snapshot no
                // longer exist on the restarted reader, so their slots leave
                // the progress series with them.
                let rows = phase.decoder.slots();
                match checkpoint.take() {
                    Some(cp) => {
                        phase.decoder = cp.decoder;
                        phase.lock_slots = cp.lock_slots;
                    }
                    None => phase.reset_decoder(medium)?,
                }
                diag.checkpoint_restores += 1;
                diag.wasted_slots += rows - phase.decoder.slots();
                residual = phase.decoder.residual_power();
                window.clear();
                // Re-acquisition occupies this slot; nothing is on the air.
                phase.idle_slot();
                slot += 1;
                continue;
            }

            // One rateless collision slot at the current epoch.  An erased
            // slot leaves the residual unchanged, which is exactly the
            // plateau the stall detector looks for.
            let decoded = phase.collision_slot(medium, slot, epoch, &faults)?;
            slot += 1;
            if decoded.is_some() {
                if phase.decoder.all_decoded() {
                    break;
                }
                residual = phase.decoder.residual_power();
                // Only a reader-restart fault reads the checkpoint, and a
                // medium without faults never raises one.
                if interval > 0
                    && phase.decoder.slots().is_multiple_of(interval)
                    && medium.has_faults()
                {
                    checkpoint = Some(Checkpoint {
                        decoder: phase.decoder.clone(),
                        lock_slots: phase.lock_slots.clone(),
                    });
                }
            }

            // Stall detection: a full window with no locks and no relative
            // residual improvement means the incoming slots are useless.
            window.push((residual, decoded.unwrap_or(0)));
            if window.len() > STALL_WINDOW {
                window.remove(0);
            }
            // `>=` (not `!(<)`): an all-erased stream plateaus at INF on
            // both ends, which still counts as no progress.
            let stalled = window.len() == STALL_WINDOW
                && window.iter().all(|&(_, newly)| newly == 0)
                && window[STALL_WINDOW - 1].0 >= window[0].0 * (1.0 - STALL_TOLERANCE);
            if !stalled {
                continue;
            }

            diag.stalls_detected += 1;
            if diag.stalls_detected > MAX_STALLS {
                break;
            }

            // Issue an extra-slot request: a downlink command that reseeds
            // every tag's participation stream.  Lost feedback burns a slot
            // and a retry; a delivered request advances the epoch.
            let mut delivered = false;
            while !delivered && requests_spent < MAX_REQUEST_RETRIES {
                requests_spent += 1;
                diag.extra_slot_requests += 1;
                delivered = !phase.begin_slot(medium, slot).feedback_lost;
                if !delivered {
                    diag.feedback_retries += 1;
                }
                phase.time_s += PAPER_TIMING.downlink_s(ReaderCommand::QueryAdjust { q: 0 }.bits())
                    + PAPER_TIMING.t1_s;
                phase.slots += 1;
                slot += 1;
            }
            if !delivered {
                break;
            }
            epoch += 1;

            // Exponential backoff: idle slots while the channel (or the
            // interferer) clears.  Dynamics and faults keep evolving.
            let backoff = BACKOFF_BASE_SLOTS << (diag.stalls_detected - 1).min(16);
            for _ in 0..backoff {
                if phase.slots >= budget {
                    break;
                }
                phase.begin_slot(medium, slot);
                diag.backoff_slots += 1;
                phase.idle_slot();
                slot += 1;
            }
            window.clear();
        }

        let mut payloads = phase.decoder.decoded_payloads();
        poll_unresolved(&mut phase, medium, slot, &mut payloads, &mut diag)?;
        Ok((phase.finish(payloads), diag))
    }
}

/// Graceful degradation: TDMA polls, starting at air slot `slot`, for the
/// columns the rateless phase left unresolved.
fn poll_unresolved(
    phase: &mut DataPhase<'_>,
    medium: &mut Medium,
    mut slot: u64,
    payloads: &mut [Option<Vec<bool>>],
    diag: &mut RecoveryDiagnostics,
) -> BuzzResult<()> {
    let unresolved: Vec<usize> = (0..payloads.len())
        .filter(|&col| payloads[col].is_none())
        .collect();
    if unresolved.is_empty() {
        return Ok(());
    }
    diag.fallback_events += 1;
    let timing = PAPER_TIMING;
    for col in unresolved {
        // Polling needs the physical tag behind the column; a column whose
        // tag was never discovered correctly cannot be polled.
        let id = NodeSeed(phase.discovered[col].temporary_id);
        let Some(tag) = phase.tags.iter().position(|t| t.node_seed == id) else {
            continue;
        };
        let h = phase.discovered[col].channel_estimate;
        for _ in 0..FALLBACK_POLL_ATTEMPTS {
            let faults = phase.begin_slot(medium, slot);
            diag.fallback_polls += 1;
            phase.time_s += timing.downlink_s(ReaderCommand::Ack.bits()) + timing.t1_s;
            slot += 1;
            // A lost poll command, or a browned-out tag, wastes the poll.
            // `collision_erased` does NOT apply: it models frame-sync loss
            // on the superposed collision waveform, and a singleton reply
            // uses a conventional preamble.
            if faults.feedback_lost || phase.tag_dead[tag] {
                phase.time_s += timing.t2_s;
                continue;
            }
            // Matched filter against the reader's channel estimate.
            let bits: Vec<bool> = phase
                .singleton_reply(medium, tag)?
                .into_iter()
                .map(|y| (y * h.conj()).re > h.norm_sqr() / 2.0)
                .collect();
            if let Ok(Some(message)) = Message::verify(&bits) {
                payloads[col] = Some(message.payload().to_vec());
                diag.fallback_delivered += 1;
                break;
            }
        }
    }
    Ok(())
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
    use crate::participation::epoch_seed;
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
        // The recovery policy is fixed, so what the driver validates is the
        // protocol configuration it shares with the plain protocol.
        let recovery = RecoveryConfig::default();
        assert!(ResilientBuzzProtocol::new(BuzzConfig::default(), recovery).is_ok());
        let mut bad = BuzzConfig::default();
        bad.transfer.target_collision_size = 0.0;
        assert!(ResilientBuzzProtocol::new(bad, recovery).is_err());
        let mut bad = BuzzConfig::default();
        bad.identification.ids_per_bucket = Some(0);
        assert!(ResilientBuzzProtocol::new(bad, recovery).is_err());
    }

    #[test]
    fn epoch_zero_is_the_plain_seed() {
        assert_eq!(epoch_seed(42, 0), NodeSeed(42));
        assert_ne!(epoch_seed(42, 1), NodeSeed(42));
        assert_ne!(epoch_seed(42, 1), epoch_seed(42, 2));
    }

    #[test]
    fn fault_free_session_matches_the_plain_protocol() {
        // In periodic mode with no faults, buzz+r must decode the
        // identical slot stream: same deliveries, same slot count, and no
        // recovery machinery fired.  (Through identification it may stall;
        // the full-pipeline lock census in `protocol.rs` pins how often.)
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
    fn restart_restore_rolls_the_progress_series_back_to_the_checkpoint() {
        // Erased slots hold entries in the Fig. 9 series but add no decoder
        // rows, so a restore zeroes the series from the checkpoint's
        // length.  In these sessions (K = 16 at `paper_uplink(16, 70_000 +
        // s)`, noise `80_000 + s`) slots are erased between the checkpoint
        // and the restart, so the rows thrown away are fewer than the
        // series entries after the checkpoint.
        let resilient = ResilientBuzzProtocol::new(
            periodic_config(),
            RecoveryConfig {
                checkpoint_interval: 2,
            },
        )
        .unwrap();
        for (s, restart_at) in [(3u64, 3u64), (29, 4), (31, 8), (103, 4)] {
            let mut scenario = ScenarioBuilder::paper_uplink(16, 70_000 + s)
                .fault(SlotErasure::new(0.3).unwrap())
                .fault(ReaderRestart::new(restart_at))
                .build()
                .unwrap();
            let (outcome, diag) = resilient.run(&mut scenario, 80_000 + s).unwrap();
            assert_eq!(diag.checkpoint_restores, 1, "s = {s}");
            let series: usize = outcome.transfer.newly_decoded_per_slot.iter().sum();
            assert_eq!(series, outcome.transfer.decoded_count(), "s = {s}");
            assert_eq!(outcome.transfer.decoded_count(), 16, "s = {s}");
        }
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
        assert!(diag.backoff_slots >= BACKOFF_BASE_SLOTS);
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
        assert_eq!(diag.extra_slot_requests, MAX_REQUEST_RETRIES);
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
    fn full_protocol_with_identification_survives_faults() {
        // Non-periodic: identification ignores the restart drawn at its own
        // slot 2, then the resilient transfer rides out the data phase's.
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
