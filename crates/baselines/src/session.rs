//! The Gen-2 FSA identification baselines as [`Protocol`]s, and what every
//! baseline adapter shares.
//!
//! Each baseline is a [`Protocol`], so a comparison harness holds all four
//! schemes behind `&[&dyn Protocol]` and never touches a scheme-specific
//! entry point.  Every adapter:
//!
//! * builds its own [`backscatter_sim::Medium`] from the scenario with the
//!   session seed as the noise realization (identical channels for every
//!   scheme, fresh noise per scheme — the paper's back-to-back methodology),
//! * accounts per-tag energy with the Moo energy model and the scenario's
//!   starting voltage, exactly as the Fig. 13 harness always has (the
//!   transfer schemes; FSA accounts none),
//! * reports a [`SessionOutcome`] directly.

use backscatter_gen2::fsa::{FsaConfig, FsaSimulator};
use backscatter_sim::energy::TransmissionProfile;
use backscatter_sim::scenario::Scenario;
use buzz::session::{Protocol, SessionError, SessionOutcome, SessionResult};

use crate::BaselineError;

/// Wraps a [`BaselineError`] for the named scheme.
pub(crate) fn scheme_error(scheme: &str, error: BaselineError) -> SessionError {
    SessionError::Scheme {
        scheme: scheme.into(),
        message: error.to_string(),
    }
}

/// A transfer scheme's outcome: per-tag delivery flags in tag order (the
/// fleet layer's carried-over state rides on exactly these) and per-tag
/// energy from what each tag transmitted, at the scenario's voltage.
pub(crate) fn transfer_outcome(
    scheme: &str,
    delivered: Vec<bool>,
    wall_time_ms: f64,
    slots_used: usize,
    profiles: &[TransmissionProfile],
    starting_voltage_v: f64,
) -> SessionOutcome {
    let delivered_messages = delivered.iter().filter(|&&d| d).count();
    SessionOutcome {
        scheme: scheme.into(),
        delivered_messages,
        lost_messages: delivered.len() - delivered_messages,
        wall_time_ms,
        per_tag_delivered: delivered,
        per_tag_energy_j: profiles
            .iter()
            .map(|profile| profile.reply_energy_j(starting_voltage_v))
            .collect(),
        slots_used,
        diagnostics: None,
    }
}

/// Runs the Gen-2 FSA inventory over the scenario's tags, each seeded with
/// its global id XOR `seed_mix`.
fn run_fsa(
    scheme: &str,
    config: FsaConfig,
    scenario: &Scenario,
    seed_mix: u64,
) -> SessionResult<SessionOutcome> {
    let sim = FsaSimulator::new(config).map_err(|e| scheme_error(scheme, e.into()))?;
    let seeds: Vec<u64> = scenario
        .tags()
        .iter()
        .map(|t| t.global_id ^ seed_mix)
        .collect();
    let outcome = sim.run(&seeds);
    Ok(SessionOutcome {
        scheme: scheme.into(),
        delivered_messages: outcome.identified,
        lost_messages: outcome.unidentified(),
        wall_time_ms: outcome.time_ms(),
        // The analytic inventory model counts identifications without
        // attributing them to specific tags.
        per_tag_delivered: Vec::new(),
        per_tag_energy_j: Vec::new(),
        slots_used: outcome.total_slots(),
        diagnostics: None,
    })
}

/// Plain Gen-2 Framed Slotted Aloha identification as a [`Protocol`]: EPC
/// Gen-2 defaults (initial `Q = 4`, `C = 0.3`, 16-bit RN16 replies), with
/// tag seeds derived from the scenario's global ids and the session seed.
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
        run_fsa("fsa", FsaConfig::standard(), scenario, seed.rotate_left(17))
    }
}

/// FSA seeded with an estimate of `K` as a [`Protocol`]: the initial frame
/// size matches the estimate and tags reply with shorter temporary ids.
///
/// When it runs after Buzz in the same comparison cell
/// ([`Protocol::run_after`]) it reads K̂ from Buzz's session diagnostics —
/// the paper's "grant the baseline Buzz's stage-1 estimate" setup.  Run
/// standalone, it falls back to the true population size (a genie estimate).
#[derive(Debug, Clone, Copy, Default)]
pub struct FsaWithEstimatedK;

impl FsaWithEstimatedK {
    fn run_with_k(scenario: &Scenario, k_hat: usize, seed: u64) -> SessionResult<SessionOutcome> {
        run_fsa(
            "fsa+k",
            FsaConfig::with_known_k(k_hat),
            scenario,
            seed.rotate_left(29),
        )
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
    use crate::{CdmaProtocol, TdmaProtocol};
    use backscatter_sim::scenario::ScenarioBuilder;
    use buzz::protocol::{BuzzConfig, BuzzProtocol};
    use buzz::session::SessionDiagnostics;

    fn fsa(scenario: &Scenario, seed: u64) -> SessionOutcome {
        FsaIdentification.run(&mut scenario.clone(), seed).unwrap()
    }

    #[test]
    fn all_four_schemes_run_behind_trait_objects() {
        let buzz = BuzzProtocol::new(BuzzConfig::default()).unwrap();
        let tdma = TdmaProtocol::paper_default().unwrap();
        let protocols: [&dyn Protocol; 5] = [
            &buzz,
            &tdma,
            &CdmaProtocol,
            &FsaIdentification,
            &FsaWithEstimatedK,
        ];
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
        // FSA with K̂ = 8 on this scenario and seed, as the Gen-2 inventory
        // model counts it: 14 slots.
        assert_eq!(seeded.wall_time_ms, 14.119_444_444_444_445);
        assert_eq!(seeded.slots_used, 14);
        // Without a prior, the genie fallback uses the population size.
        let standalone = FsaWithEstimatedK.run(&mut scenario, 1).unwrap();
        assert_eq!(standalone, seeded);
    }

    #[test]
    fn fsa_identifies_everyone() {
        let scenario = ScenarioBuilder::paper_uplink(8, 3).build().unwrap();
        let outcome = fsa(&scenario, 1);
        assert_eq!(outcome.delivered_messages, 8);
        assert_eq!(outcome.lost_messages, 0);
        assert!(outcome.wall_time_ms > 0.0);
        assert!(outcome.slots_used >= 8);
    }

    #[test]
    fn known_k_is_faster_on_average() {
        let mut plain = 0.0;
        let mut with_k = 0.0;
        for seed in 0..15 {
            let mut scenario = ScenarioBuilder::paper_uplink(16, seed).build().unwrap();
            plain += fsa(&scenario, seed).wall_time_ms;
            with_k += FsaWithEstimatedK
                .run(&mut scenario, seed)
                .unwrap()
                .wall_time_ms;
        }
        assert!(
            with_k < plain,
            "FSA with known K ({with_k:.2} ms total) not faster than plain FSA ({plain:.2} ms)"
        );
    }

    #[test]
    fn different_run_seeds_give_different_realizations() {
        let scenario = ScenarioBuilder::paper_uplink(8, 5).build().unwrap();
        let a = fsa(&scenario, 1);
        let b = fsa(&scenario, 2);
        // Both complete, but slot counts generally differ across realizations.
        assert_eq!(a.lost_messages, 0);
        assert_eq!(b.lost_messages, 0);
    }
}
