//! [`Protocol`] adapters for the baseline schemes.
//!
//! These wrap the crate's TDMA/CDMA drivers and the Gen-2 FSA inventory in
//! the unified session API of [`buzz::session`], so a comparison harness can
//! hold all four schemes behind `&[&dyn Protocol]` and never touch a
//! scheme-specific entry point.  Each adapter:
//!
//! * builds its own [`backscatter_sim::Medium`] from the scenario with the
//!   session seed as the noise realization (identical channels for every
//!   scheme, fresh noise per scheme — the paper's back-to-back methodology),
//! * accounts per-tag energy with the Moo energy model and the scenario's
//!   starting voltage, exactly as the Fig. 13 harness always has,
//! * converts the scheme-local outcome into a [`SessionOutcome`].

use backscatter_sim::energy::TransmissionProfile;
use backscatter_sim::scenario::Scenario;
use buzz::session::{Protocol, SessionError, SessionOutcome, SessionResult};

use crate::cdma::CdmaTransfer;
use crate::identification::{fsa_identification, fsa_with_known_k, IdentificationReport};
use crate::tdma::TdmaTransfer;
use crate::{BaselineError, BaselineResult, BaselineTransferOutcome};

impl From<BaselineTransferOutcome> for SessionOutcome {
    fn from(outcome: BaselineTransferOutcome) -> Self {
        Self {
            scheme: "baseline".into(),
            delivered_messages: outcome.delivered_count(),
            lost_messages: outcome.lost_count(),
            wall_time_ms: outcome.time_ms,
            // The polling drivers report delivery per tag in tag order — the
            // fleet layer's carried-over state rides on exactly this.
            per_tag_delivered: outcome.delivered.clone(),
            per_tag_energy_j: Vec::new(),
            // One polling round per tag; adapters that know better (CDMA's
            // single concurrent frame) overwrite this.
            slots_used: outcome.delivered.len(),
            diagnostics: None,
        }
    }
}

impl From<IdentificationReport> for SessionOutcome {
    fn from(report: IdentificationReport) -> Self {
        Self {
            scheme: report.scheme.into(),
            delivered_messages: report.identified,
            lost_messages: report.population - report.identified,
            wall_time_ms: report.time_ms,
            // Slot-count identification does not attribute to specific tags.
            per_tag_delivered: Vec::new(),
            per_tag_energy_j: Vec::new(),
            slots_used: report.slots,
            diagnostics: None,
        }
    }
}

/// Wraps a [`BaselineError`] for the named scheme.
fn scheme_error(scheme: &str, error: BaselineError) -> SessionError {
    SessionError::Scheme {
        scheme: scheme.into(),
        message: error.to_string(),
    }
}

/// Per-tag energies for a baseline transfer at the scenario's voltage.
fn transfer_energy_j(outcome: &BaselineTransferOutcome, starting_voltage_v: f64) -> Vec<f64> {
    outcome
        .per_tag_transitions
        .iter()
        .zip(&outcome.per_tag_active_s)
        .map(|(&transitions, &active_time_s)| {
            TransmissionProfile {
                active_time_s,
                transitions,
            }
            .reply_energy_j(starting_voltage_v)
        })
        .collect()
}

/// The TDMA baseline as a [`Protocol`].
#[derive(Debug, Clone)]
pub struct TdmaProtocol {
    transfer: TdmaTransfer,
}

impl TdmaProtocol {
    /// The paper's Miller-4 TDMA, as a session protocol.
    ///
    /// # Errors
    ///
    /// As for [`TdmaTransfer::new`].
    pub fn paper_default() -> BaselineResult<Self> {
        Ok(Self {
            transfer: TdmaTransfer::new()?,
        })
    }
}

impl Protocol for TdmaProtocol {
    fn name(&self) -> &str {
        "tdma"
    }

    fn run(&self, scenario: &mut Scenario, seed: u64) -> SessionResult<SessionOutcome> {
        let mut medium = scenario.medium(seed)?;
        let outcome = self
            .transfer
            .run(scenario.tags(), &mut medium)
            .map_err(|e| scheme_error("tdma", e))?;
        let energy = transfer_energy_j(&outcome, scenario.config().starting_voltage_v);
        let mut session = SessionOutcome::from(outcome);
        session.scheme = "tdma".into();
        session.per_tag_energy_j = energy;
        Ok(session)
    }
}

/// The synchronous-CDMA baseline as a [`Protocol`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CdmaProtocol;

impl CdmaProtocol {
    /// The paper's drift-corrected CDMA, as a session protocol.
    ///
    /// # Errors
    ///
    /// Never fails; the signature matches [`TdmaProtocol::paper_default`].
    pub fn paper_default() -> BaselineResult<Self> {
        Ok(Self)
    }
}

impl Protocol for CdmaProtocol {
    fn name(&self) -> &str {
        "cdma"
    }

    fn run(&self, scenario: &mut Scenario, seed: u64) -> SessionResult<SessionOutcome> {
        let mut medium = scenario.medium(seed)?;
        let outcome = CdmaTransfer
            .run(scenario.tags(), &mut medium)
            .map_err(|e| scheme_error("cdma", e))?;
        let energy = transfer_energy_j(&outcome, scenario.config().starting_voltage_v);
        let mut session = SessionOutcome::from(outcome);
        session.scheme = "cdma".into();
        session.per_tag_energy_j = energy;
        // All tags share one concurrent spread frame.
        session.slots_used = 1;
        Ok(session)
    }
}

/// Plain Gen-2 Framed Slotted Aloha identification as a [`Protocol`] — the
/// scenario-driven adapter (tag seeds derive from the scenario's global ids
/// and the session seed) that replaces handing the simulator raw seed lists.
///
/// FSA is a MAC-layer *analytic* model (slot counting, no PHY medium), so
/// scenario dynamics — mobility, interference bursts — do not affect it; in
/// dynamic comparisons its rows act as an unaffected control.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsaIdentification;

impl Protocol for FsaIdentification {
    fn name(&self) -> &str {
        "fsa"
    }

    fn run(&self, scenario: &mut Scenario, seed: u64) -> SessionResult<SessionOutcome> {
        fsa_identification(scenario, seed)
            .map(SessionOutcome::from)
            .map_err(|e| scheme_error("fsa", e))
    }
}

/// FSA seeded with an estimate of `K` as a [`Protocol`].
///
/// When it runs after Buzz in the same comparison cell
/// ([`Protocol::run_after`]) it reads K̂ from Buzz's session diagnostics —
/// the paper's "grant the baseline Buzz's stage-1 estimate" setup.  Run
/// standalone, it falls back to the true population size (a genie estimate).
#[derive(Debug, Clone, Copy, Default)]
pub struct FsaWithEstimatedK;

impl FsaWithEstimatedK {
    fn run_with_k(scenario: &Scenario, k_hat: usize, seed: u64) -> SessionResult<SessionOutcome> {
        fsa_with_known_k(scenario, k_hat, seed)
            .map(SessionOutcome::from)
            .map_err(|e| scheme_error("fsa+k", e))
    }
}

impl Protocol for FsaWithEstimatedK {
    fn name(&self) -> &str {
        "fsa+k"
    }

    fn run(&self, scenario: &mut Scenario, seed: u64) -> SessionResult<SessionOutcome> {
        Self::run_with_k(scenario, scenario.tags().len(), seed)
    }

    fn run_after(
        &self,
        scenario: &mut Scenario,
        seed: u64,
        prior: &[SessionOutcome],
    ) -> SessionResult<SessionOutcome> {
        let k_hat = prior
            .iter()
            .rev()
            .find_map(|outcome| {
                outcome
                    .diagnostics
                    .as_ref()
                    .and_then(|d| d.k_estimate_rounded)
            })
            .unwrap_or(scenario.tags().len());
        Self::run_with_k(scenario, k_hat, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_sim::scenario::ScenarioBuilder;
    use buzz::protocol::{BuzzConfig, BuzzProtocol};
    use buzz::session::SessionDiagnostics;

    fn panel() -> (
        TdmaProtocol,
        CdmaProtocol,
        FsaIdentification,
        FsaWithEstimatedK,
    ) {
        (
            TdmaProtocol::paper_default().unwrap(),
            CdmaProtocol::paper_default().unwrap(),
            FsaIdentification,
            FsaWithEstimatedK,
        )
    }

    #[test]
    fn all_four_schemes_run_behind_trait_objects() {
        let buzz = BuzzProtocol::new(BuzzConfig::default()).unwrap();
        let (tdma, cdma, fsa, fsa_k) = panel();
        let protocols: [&dyn Protocol; 5] = [&buzz, &tdma, &cdma, &fsa, &fsa_k];
        let mut scenario = ScenarioBuilder::paper_uplink(6, 91).build().unwrap();
        let mut outcomes = Vec::new();
        for protocol in protocols {
            let outcome = protocol.run_after(&mut scenario, 2, &outcomes).unwrap();
            assert_eq!(outcome.scheme, protocol.name());
            assert_eq!(outcome.total_messages(), 6, "{}", protocol.name());
            assert!(outcome.wall_time_ms > 0.0);
            outcomes.push(outcome);
        }
        // The transfer schemes account energy; the identification-only FSA
        // adapters do not.
        assert_eq!(outcomes[1].per_tag_energy_j.len(), 6);
        assert_eq!(outcomes[2].per_tag_energy_j.len(), 6);
        assert!(outcomes[3].per_tag_energy_j.is_empty());
        // CDMA spreads everyone into one concurrent frame.
        assert_eq!(outcomes[2].slots_used, 1);
        assert_eq!(outcomes[1].slots_used, 6);
    }

    #[test]
    fn adapters_match_the_legacy_entry_points() {
        // The unified API must report exactly the numbers the old private
        // APIs did — it is a veneer, not a re-simulation.
        let scenario = ScenarioBuilder::paper_uplink(5, 17).build().unwrap();

        let tdma = TdmaTransfer::new().unwrap();
        let mut medium = scenario.medium(4).unwrap();
        let legacy = tdma.run(scenario.tags(), &mut medium).unwrap();

        let mut via_session = scenario.clone();
        let session = TdmaProtocol::paper_default()
            .unwrap()
            .run(&mut via_session, 4)
            .unwrap();
        assert_eq!(session.delivered_messages, legacy.delivered_count());
        assert_eq!(session.wall_time_ms, legacy.time_ms);

        let legacy_fsa = fsa_identification(&scenario, 4).unwrap();
        let mut via_session = scenario.clone();
        let session_fsa = FsaIdentification.run(&mut via_session, 4).unwrap();
        assert_eq!(session_fsa.wall_time_ms, legacy_fsa.time_ms);
        assert_eq!(session_fsa.slots_used, legacy_fsa.slots);
    }

    #[test]
    fn fsa_with_estimate_reads_prior_diagnostics() {
        let mut scenario = ScenarioBuilder::paper_uplink(8, 33).build().unwrap();
        // A fabricated prior outcome carrying K̂ = 8.
        let prior = SessionOutcome {
            scheme: "buzz".into(),
            delivered_messages: 8,
            lost_messages: 0,
            wall_time_ms: 1.0,
            per_tag_delivered: Vec::new(),
            per_tag_energy_j: Vec::new(),
            slots_used: 10,
            diagnostics: Some(SessionDiagnostics {
                k_estimate_rounded: Some(8),
                ..SessionDiagnostics::default()
            }),
        };
        let seeded = FsaWithEstimatedK
            .run_after(&mut scenario, 1, std::slice::from_ref(&prior))
            .unwrap();
        // Must equal the legacy call with the same K̂.
        let legacy = fsa_with_known_k(&scenario, 8, 1).unwrap();
        assert_eq!(seeded.wall_time_ms, legacy.time_ms);
        assert_eq!(seeded.slots_used, legacy.slots);
        // Without a prior, the genie fallback uses the population size.
        let standalone = FsaWithEstimatedK.run(&mut scenario, 1).unwrap();
        assert_eq!(standalone.wall_time_ms, legacy.time_ms);
    }

    #[test]
    fn conversion_from_baseline_outcome() {
        let outcome = BaselineTransferOutcome {
            delivered: vec![true, false, true],
            time_ms: 3.5,
            per_tag_transitions: vec![10, 10, 10],
            per_tag_active_s: vec![1e-3; 3],
        };
        let session = SessionOutcome::from(outcome);
        assert_eq!(session.delivered_messages, 2);
        assert_eq!(session.lost_messages, 1);
        assert_eq!(session.wall_time_ms, 3.5);
        assert_eq!(session.slots_used, 3);
        assert_eq!(session.per_tag_delivered, vec![true, false, true]);
    }
}
