//! Discrete-event backscatter network simulator.
//!
//! This crate stands in for the paper's physical testbed: a USRP reader and a
//! movable cart of UMass Moo computational RFIDs on a 1.5 m × 3 m table.  It
//! glues the physical-layer models of [`backscatter_phy`] into a network-level
//! scenario that the Buzz protocol and the TDMA/CDMA/FSA baselines can run
//! against:
//!
//! * [`geometry`] — reader/tag placement, the cart layout used in the paper's
//!   experiments, and the "move the cart away" sweep of Fig. 12,
//! * [`energy`] — the tag energy model (wake-up, active-radio power and
//!   impedance-switching cost per reply) behind Fig. 13,
//! * [`medium`] — the shared air interface: superposition of the reflections
//!   of whichever tags transmit in a slot, plus carrier leakage and AWGN,
//! * [`dynamics`] — composable per-slot effects (mobility drift, bursty
//!   interference, heterogeneous tag power, churn, correlated fading)
//!   attached through the scenario builder, and the one
//!   [`ScenarioDynamics`] trait every per-slot effect implements,
//! * [`faults`] — seeded control-plane faults (slot erasures, feedback loss,
//!   frame noise, tag resets, reader restarts) for robustness experiments:
//!   per-slot effects the medium applies after the dynamics, whose
//!   [`SlotFaults`] [`Medium::begin_slot`] returns,
//! * [`tag`] — the per-tag state bundle (seed, message, channel, clock),
//! * [`scenario`] — reproducible experiment construction: "K tags at this
//!   location with this SNR", matching how the paper parameterizes its runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamics;
pub mod energy;
pub mod faults;
pub mod geometry;
pub mod medium;
pub mod scenario;
pub mod tag;

pub use dynamics::{BurstyInterference, HeterogeneousTagPower, Mobility, ScenarioDynamics};
pub use energy::TransmissionProfile;
pub use faults::{
    BurstSlotLoss, FeedbackLoss, FrameNoise, ReaderRestart, SlotErasure, SlotFaults, TagDropout,
};
pub use geometry::{cart_layout, Position, TablePlacement};
pub use medium::{Medium, MediumConfig};
pub use scenario::{PersistentTag, Scenario, ScenarioBuilder, ScenarioConfig};
pub use tag::SimTag;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A configuration value was outside its valid domain.
    InvalidParameter(&'static str),
    /// A physical-layer operation failed.
    Phy(backscatter_phy::PhyError),
    /// A coding operation failed.
    Code(backscatter_codes::CodeError),
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            SimError::Phy(e) => write!(f, "physical layer error: {e}"),
            SimError::Code(e) => write!(f, "coding error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<backscatter_phy::PhyError> for SimError {
    fn from(e: backscatter_phy::PhyError) -> Self {
        SimError::Phy(e)
    }
}

impl From<backscatter_codes::CodeError> for SimError {
    fn from(e: backscatter_codes::CodeError) -> Self {
        SimError::Code(e)
    }
}

/// Result alias for simulator operations.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        let phy: SimError = backscatter_phy::PhyError::Empty.into();
        assert!(phy.to_string().contains("physical layer"));
        let code: SimError = backscatter_codes::CodeError::InvalidParameter("x").into();
        assert!(code.to_string().contains("coding"));
        assert!(SimError::InvalidParameter("y").to_string().contains("y"));
    }
}
