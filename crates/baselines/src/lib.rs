//! Baseline backscatter schemes the paper compares Buzz against, each a
//! [`buzz::session::Protocol`]:
//!
//! * [`TdmaProtocol`] ([`tdma`]) — tags transmit sequentially, one at a
//!   time, with Miller-4 encoding for robustness (the EPC Gen-2 way; §9's
//!   "TDMA" baseline),
//! * [`CdmaProtocol`] ([`cdma`]) — synchronous CDMA with Walsh spreading
//!   codes at the same 80 k chips/s symbol rate as Buzz (§9's "CDMA"
//!   baseline), including the chip-misalignment leakage that gives CDMA its
//!   near-far problem,
//! * [`FsaIdentification`] and [`FsaWithEstimatedK`] ([`session`]) — the
//!   Framed Slotted Aloha identification baselines of Fig. 14 (plain FSA and
//!   FSA seeded with Buzz's estimate of K) over [`backscatter_gen2`]'s
//!   inventory model.
//!
//! Comparison harnesses drive them and Buzz through one `&[&dyn Protocol]`
//! panel.  The transfer schemes run against the exact same
//! [`backscatter_sim::Medium`] as Buzz, so comparisons see identical
//! channels and noise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdma;
pub mod session;
pub mod tdma;

pub use cdma::CdmaProtocol;
pub use session::{FsaIdentification, FsaWithEstimatedK};
pub use tdma::TdmaProtocol;

use backscatter_sim::SimError;

/// Errors produced by the baseline schemes.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// A configuration value was outside its valid domain.
    InvalidParameter(&'static str),
    /// A simulator operation failed.
    Sim(SimError),
    /// A coding operation failed.
    Code(backscatter_codes::CodeError),
    /// A physical-layer operation failed.
    Phy(backscatter_phy::PhyError),
    /// A Gen-2 operation failed.
    Gen2(backscatter_gen2::Gen2Error),
}

impl core::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BaselineError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            BaselineError::Sim(e) => write!(f, "simulator error: {e}"),
            BaselineError::Code(e) => write!(f, "coding error: {e}"),
            BaselineError::Phy(e) => write!(f, "physical layer error: {e}"),
            BaselineError::Gen2(e) => write!(f, "Gen-2 error: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<SimError> for BaselineError {
    fn from(e: SimError) -> Self {
        BaselineError::Sim(e)
    }
}

impl From<backscatter_codes::CodeError> for BaselineError {
    fn from(e: backscatter_codes::CodeError) -> Self {
        BaselineError::Code(e)
    }
}

impl From<backscatter_phy::PhyError> for BaselineError {
    fn from(e: backscatter_phy::PhyError) -> Self {
        BaselineError::Phy(e)
    }
}

impl From<backscatter_gen2::Gen2Error> for BaselineError {
    fn from(e: backscatter_gen2::Gen2Error) -> Self {
        BaselineError::Gen2(e)
    }
}

/// Result alias for baseline operations.
pub type BaselineResult<T> = Result<T, BaselineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions() {
        let e: BaselineError = SimError::InvalidParameter("x").into();
        assert!(e.to_string().contains("simulator"));
        let e: BaselineError = backscatter_codes::CodeError::InvalidParameter("y").into();
        assert!(e.to_string().contains("coding"));
        let e: BaselineError = backscatter_phy::PhyError::Empty.into();
        assert!(e.to_string().contains("physical"));
        let e: BaselineError = backscatter_gen2::Gen2Error::InvalidParameter("z").into();
        assert!(e.to_string().contains("Gen-2"));
    }
}
