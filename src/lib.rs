//! `buzz-suite`: the workspace-level umbrella crate.
//!
//! This crate exists to host the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`) of the Buzz reproduction; the
//! actual functionality lives in the member crates, re-exported here for
//! convenience so examples and downstream experiments can use a single
//! dependency:
//!
//! * [`phy`] — physical layer ([`backscatter_phy`])
//! * [`prng`] — shared deterministic randomness ([`backscatter_prng`])
//! * [`codes`] — CRC / Walsh / sparse-matrix substrates ([`backscatter_codes`])
//! * [`gen2`] — EPC Gen-2 MAC substrate ([`backscatter_gen2`])
//! * [`sim`] — network & energy simulator ([`backscatter_sim`])
//! * [`recovery`] — compressive-sensing substrate ([`sparse_recovery`])
//! * [`protocol`] — the Buzz protocol itself ([`buzz`])
//! * [`baselines`] — TDMA / CDMA / FSA baselines ([`backscatter_baselines`])
//! * [`fleet`] — warehouse-scale fleets of readers over a shared persistent
//!   tag population ([`backscatter_fleet`])

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use backscatter_baselines as baselines;
pub use backscatter_codes as codes;
pub use backscatter_fleet as fleet;
pub use backscatter_gen2 as gen2;
pub use backscatter_phy as phy;
pub use backscatter_prng as prng;
pub use backscatter_sim as sim;
pub use buzz as protocol;
pub use sparse_recovery as recovery;

// The unified cross-protocol session API, re-exported flat so downstream
// comparisons can `use buzz_suite::{Protocol, SessionOutcome}` and hold every
// scheme — Buzz and the baselines alike — behind `&[&dyn Protocol]`.
pub use backscatter_baselines::{CdmaProtocol, FsaIdentification, FsaWithEstimatedK, TdmaProtocol};
pub use backscatter_fleet::{run_fleet, FleetConfig, FleetOutcome};
pub use backscatter_sim::dynamics::{
    BurstyInterference, HeterogeneousTagPower, Mobility, ScenarioDynamics,
};
pub use backscatter_sim::scenario::ScenarioBuilder;
pub use buzz::session::{
    Protocol, SessionDiagnostics, SessionError, SessionOutcome, SessionResult,
};

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired() {
        // Touch one item from each re-exported crate so a broken re-export is
        // caught at compile time.
        let _ = crate::phy::Complex::ONE;
        let _ = crate::prng::NodeSeed(1);
        let _ = crate::codes::Crc5::new();
        let _ = crate::gen2::PAPER_TIMING;
        let _ = crate::sim::MediumConfig::default();
        let _ = crate::recovery::KEstimator::new(4);
        let _ = crate::protocol::BuzzConfig::default();
        let _ = crate::baselines::CdmaProtocol;
        // The flat session-API re-exports.
        fn _panel(_: &[&dyn crate::Protocol]) {}
        let _ = crate::ScenarioBuilder::new(1);
        let _ = crate::FsaIdentification;
        let _ = crate::Mobility::walking_pace();
        let _ = crate::fleet::FleetConfig::default();
        let _ = crate::FleetConfig::default();
    }
}
