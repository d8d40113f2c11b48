//! Identification baselines: Framed Slotted Aloha, with and without Buzz's
//! estimate of K.
//!
//! These are thin wrappers around [`backscatter_gen2::fsa`] that run the
//! inventory over a scenario's tag population and report identification time
//! in the same shape the Buzz identification phase does, so the Fig. 14
//! harness can tabulate the three schemes side by side.

use backscatter_gen2::fsa::{FsaConfig, FsaSimulator};
use backscatter_sim::scenario::Scenario;

use crate::BaselineResult;

/// Identification-time report for one scheme over one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentificationReport {
    /// Scheme label (e.g. "fsa", "fsa+k").
    pub scheme: &'static str,
    /// Number of tags that were identified.
    pub identified: usize,
    /// Number of tags present.
    pub population: usize,
    /// Identification time in milliseconds.
    pub time_ms: f64,
    /// Total slots used.
    pub slots: usize,
}

/// Runs plain Framed Slotted Aloha (EPC Gen-2 defaults: initial `Q = 4`,
/// `C = 0.3`, 16-bit RN16 replies) over the scenario's tags.
///
/// # Errors
///
/// Propagates Gen-2 configuration errors.
pub fn fsa_identification(
    scenario: &Scenario,
    run_seed: u64,
) -> BaselineResult<IdentificationReport> {
    let sim = FsaSimulator::new(FsaConfig::standard())?;
    let seeds: Vec<u64> = scenario
        .tags()
        .iter()
        .map(|t| t.global_id ^ run_seed.rotate_left(17))
        .collect();
    let outcome = sim.run(&seeds);
    Ok(IdentificationReport {
        scheme: "fsa",
        identified: outcome.identified,
        population: outcome.population,
        time_ms: outcome.time_ms(),
        slots: outcome.total_slots(),
    })
}

/// Runs FSA seeded with an estimate of K (from Buzz's stage 1): the initial
/// frame size matches `k_hat` and tags reply with shorter temporary ids.
///
/// # Errors
///
/// Propagates Gen-2 configuration errors.
pub fn fsa_with_known_k(
    scenario: &Scenario,
    k_hat: usize,
    run_seed: u64,
) -> BaselineResult<IdentificationReport> {
    let sim = FsaSimulator::new(FsaConfig::with_known_k(k_hat))?;
    let seeds: Vec<u64> = scenario
        .tags()
        .iter()
        .map(|t| t.global_id ^ run_seed.rotate_left(29))
        .collect();
    let outcome = sim.run(&seeds);
    Ok(IdentificationReport {
        scheme: "fsa+k",
        identified: outcome.identified,
        population: outcome.population,
        time_ms: outcome.time_ms(),
        slots: outcome.total_slots(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_sim::scenario::ScenarioBuilder;

    #[test]
    fn fsa_identifies_everyone() {
        let scenario = ScenarioBuilder::paper_uplink(8, 3).build().unwrap();
        let report = fsa_identification(&scenario, 1).unwrap();
        assert_eq!(report.identified, report.population);
        assert_eq!(report.population, 8);
        assert!(report.time_ms > 0.0);
        assert!(report.slots >= 8);
    }

    #[test]
    fn known_k_is_faster_on_average() {
        let mut plain = 0.0;
        let mut with_k = 0.0;
        for seed in 0..15 {
            let scenario = ScenarioBuilder::paper_uplink(16, seed).build().unwrap();
            plain += fsa_identification(&scenario, seed).unwrap().time_ms;
            with_k += fsa_with_known_k(&scenario, 16, seed).unwrap().time_ms;
        }
        assert!(
            with_k < plain,
            "FSA with known K ({with_k:.2} ms total) not faster than plain FSA ({plain:.2} ms)"
        );
    }

    #[test]
    fn different_run_seeds_give_different_realizations() {
        let scenario = ScenarioBuilder::paper_uplink(8, 5).build().unwrap();
        let a = fsa_identification(&scenario, 1).unwrap();
        let b = fsa_identification(&scenario, 2).unwrap();
        // Both complete, but slot counts generally differ across realizations.
        assert_eq!(a.identified, a.population);
        assert_eq!(b.identified, b.population);
    }
}
