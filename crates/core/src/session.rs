//! The unified cross-protocol session API.
//!
//! The paper's headline results are *comparisons* — Buzz vs. TDMA, CDMA, and
//! Gen-2 FSA over identical channels — yet each scheme historically exposed a
//! private entry point with its own outcome type.  This module is the one
//! surface they all share:
//!
//! * [`Protocol`] — object-safe trait: a scheme is "something that runs over a
//!   [`Scenario`] with a seed and yields a [`SessionOutcome`]".  Comparison
//!   harnesses hold `&[&dyn Protocol]` and never mention a concrete scheme.
//! * [`SessionOutcome`] — the common result: delivered/lost messages, wall
//!   time, per-tag energy, slots used, plus optional decode diagnostics for
//!   schemes that expose them.  `From` conversions from the per-scheme
//!   outcome types ([`BuzzOutcome`], `backscatter_gen2::fsa::FsaOutcome`, and
//!   — in `backscatter_baselines` — `BaselineTransferOutcome`) keep the old
//!   types usable while everything above them speaks one language.
//!
//! [`BuzzProtocol`] implements [`Protocol`] here; the TDMA/CDMA/FSA adapters
//! live in `backscatter_baselines::session` (the trait is implementable from
//! any crate that can see a scenario).

use backscatter_gen2::fsa::FsaOutcome;
use backscatter_sim::scenario::Scenario;
use backscatter_sim::SimError;

use crate::protocol::{BuzzOutcome, BuzzProtocol};
use crate::BuzzError;

/// Errors produced by a protocol session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The Buzz protocol failed.
    Buzz(BuzzError),
    /// A simulator operation failed.
    Sim(SimError),
    /// Another scheme failed (adapters for non-Buzz schemes wrap their
    /// crate-local errors here).
    Scheme {
        /// The scheme that failed.
        scheme: String,
        /// The underlying error, rendered.
        message: String,
    },
}

impl core::fmt::Display for SessionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SessionError::Buzz(e) => write!(f, "buzz session error: {e}"),
            SessionError::Sim(e) => write!(f, "simulator error: {e}"),
            SessionError::Scheme { scheme, message } => {
                write!(f, "{scheme} session error: {message}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<BuzzError> for SessionError {
    fn from(e: BuzzError) -> Self {
        SessionError::Buzz(e)
    }
}

impl From<SimError> for SessionError {
    fn from(e: SimError) -> Self {
        SessionError::Sim(e)
    }
}

/// Result alias for protocol sessions.
pub type SessionResult<T> = Result<T, SessionError>;

/// Recovery-side diagnostics a fault-tolerant scheme attaches to its
/// [`SessionDiagnostics`] (see `crate::recovery`): how much work the session
/// spent surviving faults rather than moving payload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryDiagnostics {
    /// Decode stalls detected (residual-power plateau over the stall window).
    pub stalls_detected: usize,
    /// Extra-slot requests the reader issued after stalls.
    pub extra_slot_requests: usize,
    /// Requests whose downlink feedback was lost and had to be retried.
    pub feedback_retries: usize,
    /// Idle slots spent in exponential backoff between retries.
    pub backoff_slots: usize,
    /// Decoder-state restores after reader restarts.
    pub checkpoint_restores: usize,
    /// Decoder rows (decoded data slots) that reader restarts threw away:
    /// the rows taken between a checkpoint and the restart that restored
    /// it, or every row when no checkpoint was taken.  Erased slots add no
    /// rows and are not counted.
    pub wasted_slots: usize,
    /// Times the session degraded to TDMA polling for unresolved tags.
    pub fallback_events: usize,
    /// Individual TDMA fallback polls issued.
    pub fallback_polls: usize,
    /// Messages delivered by the TDMA fallback (also counted in the
    /// outcome's `delivered_messages`).
    pub fallback_delivered: usize,
}

/// Decode-side diagnostics a scheme may attach to its [`SessionOutcome`].
///
/// Fixed-rate baselines leave most of this `None`/empty; Buzz fills all of
/// it.  `PartialEq` compares floats exactly, extending the repo's
/// bit-identical determinism contract to the unified outcome type.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionDiagnostics {
    /// Aggregate data rate in bits per symbol (0 when not applicable).
    pub bits_per_symbol: f64,
    /// Air time of the data phase alone, milliseconds.
    pub data_time_ms: f64,
    /// Air time of the identification phase, if the scheme ran one.
    pub identification_time_ms: Option<f64>,
    /// Newly decoded messages per data slot (the Fig. 9 series).
    pub newly_decoded_per_slot: Vec<usize>,
    /// The scheme's estimate of the population size, if it formed one.
    pub k_estimate: Option<f64>,
    /// The integer population estimate handed to downstream stages.
    pub k_estimate_rounded: Option<usize>,
    /// Whether identification recovered exactly the true id set.
    pub identification_exact: Option<bool>,
    /// Fault-recovery accounting, for schemes that run a recovery layer
    /// (`None` for plain sessions).
    pub recovery: Option<RecoveryDiagnostics>,
}

/// The outcome of one protocol session, shaped identically for every scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The scheme that produced this outcome (e.g. `"buzz"`, `"tdma"`).
    pub scheme: String,
    /// Messages delivered correctly (or tags identified, for
    /// identification-only schemes).
    pub delivered_messages: usize,
    /// Messages lost, corrupted, or tags left unidentified.
    pub lost_messages: usize,
    /// Total air time of the session in milliseconds.
    pub wall_time_ms: f64,
    /// Per-tag delivery flags in scenario tag order (`true` iff that tag's
    /// message arrived correctly).  Empty when the scheme cannot attribute
    /// deliveries to individual tags (e.g. the analytic FSA inventory model);
    /// the fleet layer then falls back to a deterministic attribution.
    pub per_tag_delivered: Vec<bool>,
    /// Per-tag energy consumed, joules (empty when the scheme's adapter does
    /// not account energy).
    pub per_tag_energy_j: Vec<f64>,
    /// Slots (or polling rounds) the session used on the air.
    pub slots_used: usize,
    /// Optional decode diagnostics.
    pub diagnostics: Option<SessionDiagnostics>,
}

impl SessionOutcome {
    /// Total messages the session was responsible for.
    #[must_use]
    pub fn total_messages(&self) -> usize {
        self.delivered_messages + self.lost_messages
    }

    /// Message loss rate in `[0, 1]`.
    #[must_use]
    pub fn loss_rate(&self) -> f64 {
        let total = self.total_messages();
        if total == 0 {
            0.0
        } else {
            self.lost_messages as f64 / total as f64
        }
    }

    /// Mean per-tag energy for the session, joules (0 when the adapter did
    /// not account energy).
    #[must_use]
    pub fn mean_energy_j(&self) -> f64 {
        if self.per_tag_energy_j.is_empty() {
            0.0
        } else {
            self.per_tag_energy_j.iter().sum::<f64>() / self.per_tag_energy_j.len() as f64
        }
    }

    /// The combined session metric: messages delivered per second of *total*
    /// session air time — identification and data folded into one number, so
    /// a scheme that identifies fast but transfers slowly (or vice versa) is
    /// comparable to one with the opposite profile.  0 when no air time
    /// elapsed.
    #[must_use]
    pub fn throughput_msgs_per_s(&self) -> f64 {
        if self.wall_time_ms <= 0.0 {
            0.0
        } else {
            self.delivered_messages as f64 / (self.wall_time_ms / 1e3)
        }
    }
}

impl From<BuzzOutcome> for SessionOutcome {
    fn from(outcome: BuzzOutcome) -> Self {
        let wall_time_ms = outcome.total_time_ms();
        let ident = outcome.identification.as_ref();
        let diagnostics = SessionDiagnostics {
            bits_per_symbol: outcome.transfer.bits_per_symbol(),
            data_time_ms: outcome.transfer.time_ms,
            identification_time_ms: ident.map(|i| i.time_ms),
            newly_decoded_per_slot: outcome.transfer.newly_decoded_per_slot.clone(),
            k_estimate: ident.map(|i| i.k_estimate.k_hat),
            k_estimate_rounded: ident.map(|i| i.k_estimate.k_rounded()),
            identification_exact: ident.map(super::identification::IdentificationOutcome::is_exact),
            recovery: None,
        };
        let slots_used = ident.map(|i| i.slots.total()).unwrap_or(0) + outcome.transfer.slots_used;
        Self {
            scheme: "buzz".into(),
            delivered_messages: outcome.correct_messages,
            lost_messages: outcome.incorrect_messages,
            wall_time_ms,
            per_tag_delivered: outcome.per_tag_delivered,
            per_tag_energy_j: outcome.per_tag_energy_j,
            slots_used,
            diagnostics: Some(diagnostics),
        }
    }
}

impl From<FsaOutcome> for SessionOutcome {
    fn from(outcome: FsaOutcome) -> Self {
        Self {
            scheme: "fsa".into(),
            delivered_messages: outcome.identified,
            lost_messages: outcome.unidentified(),
            wall_time_ms: outcome.time_ms(),
            // The analytic inventory model counts identifications without
            // attributing them to specific tags.
            per_tag_delivered: Vec::new(),
            per_tag_energy_j: Vec::new(),
            slots_used: outcome.total_slots(),
            diagnostics: None,
        }
    }
}

/// One scheme runnable over a [`Scenario`].
///
/// `Send + Sync` is a supertrait so `&[&dyn Protocol]` comparison panels can
/// be sharded across the bench harness's worker threads.
pub trait Protocol: Send + Sync {
    /// A short scheme label for tables and reports.
    fn name(&self) -> &str;

    /// Runs one session over `scenario`.  `seed` selects the noise (and
    /// dynamics) realization; the channels stay pinned by the scenario, so
    /// running several protocols with the same seed mirrors the paper's
    /// back-to-back trace collection.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] when the scheme's configuration or the
    /// scenario is unusable.
    fn run(&self, scenario: &mut Scenario, seed: u64) -> SessionResult<SessionOutcome>;

    /// Runs one session *after* other schemes in the same comparison cell,
    /// with access to their outcomes.  The default ignores `prior` and calls
    /// [`Protocol::run`]; schemes that piggyback on another scheme's result
    /// (e.g. FSA seeded with Buzz's K̂ estimate) override this.
    ///
    /// # Errors
    ///
    /// As for [`Protocol::run`].
    fn run_after(
        &self,
        scenario: &mut Scenario,
        seed: u64,
        prior: &[SessionOutcome],
    ) -> SessionResult<SessionOutcome> {
        let _ = prior;
        self.run(scenario, seed)
    }
}

/// Runs a comparison panel over one scenario: the protocols run in panel
/// order, each seeing the outcomes of those before it through
/// [`Protocol::run_after`], with the same `seed`.
///
/// # Errors
///
/// Returns the first failing session's error; the protocols after it do not
/// run.
pub fn run_panel(
    panel: &[&dyn Protocol],
    scenario: &mut Scenario,
    seed: u64,
) -> SessionResult<Vec<SessionOutcome>> {
    let mut outcomes = Vec::with_capacity(panel.len());
    for protocol in panel {
        let outcome = protocol.run_after(scenario, seed, &outcomes)?;
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

impl Protocol for BuzzProtocol {
    fn name(&self) -> &str {
        "buzz"
    }

    fn run(&self, scenario: &mut Scenario, seed: u64) -> SessionResult<SessionOutcome> {
        BuzzProtocol::run(self, scenario, seed)
            .map(SessionOutcome::from)
            .map_err(SessionError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BuzzConfig;
    use backscatter_sim::scenario::ScenarioBuilder;

    #[test]
    fn buzz_runs_through_the_trait_object() {
        let mut scenario = ScenarioBuilder::paper_uplink(4, 61).build().unwrap();
        let buzz = BuzzProtocol::new(BuzzConfig::default()).unwrap();
        let protocol: &dyn Protocol = &buzz;
        assert_eq!(protocol.name(), "buzz");
        let outcome = protocol.run(&mut scenario, 3).unwrap();
        assert_eq!(outcome.scheme, "buzz");
        assert_eq!(outcome.delivered_messages, 4);
        assert_eq!(outcome.lost_messages, 0);
        assert_eq!(outcome.loss_rate(), 0.0);
        assert!(outcome.wall_time_ms > 0.0);
        assert!(outcome.slots_used > 0);
        assert_eq!(outcome.per_tag_energy_j.len(), 4);
        assert_eq!(outcome.per_tag_delivered.len(), 4);
        assert_eq!(
            outcome.per_tag_delivered.iter().filter(|&&d| d).count(),
            outcome.delivered_messages
        );
        let diag = outcome.diagnostics.as_ref().unwrap();
        assert!(diag.identification_time_ms.is_some());
        assert!(diag.k_estimate_rounded.is_some());
        assert!(diag.data_time_ms > 0.0);
        assert!(diag.bits_per_symbol > 0.0);
    }

    #[test]
    fn buzz_conversion_preserves_the_phase_split() {
        // wall time must be ident + data exactly, and the diagnostics carry
        // both addends so harnesses never have to subtract floats.
        let mut scenario = ScenarioBuilder::paper_uplink(4, 62).build().unwrap();
        let buzz = BuzzProtocol::new(BuzzConfig::default()).unwrap();
        let raw = BuzzProtocol::run(&buzz, &mut scenario, 1).unwrap();
        let expected_wall = raw.total_time_ms();
        let session = SessionOutcome::from(raw);
        assert_eq!(session.wall_time_ms, expected_wall);
        let diag = session.diagnostics.unwrap();
        assert_eq!(
            diag.identification_time_ms.unwrap() + diag.data_time_ms,
            expected_wall
        );
    }

    #[test]
    fn combined_throughput_folds_both_phases() {
        let outcome = SessionOutcome {
            scheme: "buzz".into(),
            delivered_messages: 16,
            lost_messages: 0,
            wall_time_ms: 8.0,
            per_tag_delivered: Vec::new(),
            per_tag_energy_j: Vec::new(),
            slots_used: 40,
            diagnostics: None,
        };
        // 16 messages over 8 ms of identification + data = 2000 msgs/s.
        assert!((outcome.throughput_msgs_per_s() - 2000.0).abs() < 1e-9);
        let idle = SessionOutcome {
            wall_time_ms: 0.0,
            ..outcome
        };
        assert_eq!(idle.throughput_msgs_per_s(), 0.0);
    }

    #[test]
    fn fsa_outcome_converts() {
        let fsa = FsaOutcome {
            identified: 6,
            population: 8,
            total_time_s: 0.02,
            slot_counts: (3, 6, 2),
            truncated: false,
        };
        let session = SessionOutcome::from(fsa);
        assert_eq!(session.scheme, "fsa");
        assert_eq!(session.delivered_messages, 6);
        assert_eq!(session.lost_messages, 2);
        assert_eq!(session.slots_used, 11);
        assert!((session.wall_time_ms - 20.0).abs() < 1e-12);
        assert!((session.loss_rate() - 0.25).abs() < 1e-12);
        assert_eq!(session.mean_energy_j(), 0.0);
    }

    #[test]
    fn session_errors_render_their_source() {
        let e: SessionError = BuzzError::IdentificationFailed.into();
        assert!(e.to_string().contains("identification"));
        let e: SessionError = SimError::InvalidParameter("x").into();
        assert!(e.to_string().contains("simulator"));
        let e = SessionError::Scheme {
            scheme: "tdma".into(),
            message: "boom".into(),
        };
        assert!(e.to_string().contains("tdma") && e.to_string().contains("boom"));
    }
}
