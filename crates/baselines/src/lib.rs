//! Baseline backscatter schemes the paper compares Buzz against.
//!
//! * [`tdma`] — tags transmit sequentially, one at a time, with Miller-4
//!   encoding for robustness (the EPC Gen-2 way; §9's "TDMA" baseline),
//! * [`cdma`] — synchronous CDMA with Walsh spreading codes at the same
//!   80 k chips/s symbol rate as Buzz (§9's "CDMA" baseline), including the
//!   chip-misalignment leakage that gives CDMA its near-far problem,
//! * [`identification`] — the Framed Slotted Aloha identification baselines
//!   of Fig. 14 (plain FSA and FSA seeded with Buzz's estimate of K), thin
//!   wrappers over [`backscatter_gen2`] that return the same report type as
//!   Buzz's identification phase.
//! * [`session`] — [`buzz::session::Protocol`] adapters for every baseline,
//!   so comparison harnesses drive TDMA/CDMA/FSA and Buzz through one
//!   `&[&dyn Protocol]` panel.
//!
//! All three run against the exact same [`backscatter_sim::Medium`] as Buzz,
//! so comparisons see identical channels and noise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdma;
pub mod identification;
pub mod session;
pub mod tdma;

pub use cdma::CdmaTransfer;
pub use identification::{fsa_identification, fsa_with_known_k, IdentificationReport};
pub use session::{CdmaProtocol, FsaIdentification, FsaWithEstimatedK, TdmaProtocol};
pub use tdma::TdmaTransfer;

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

/// Outcome of a baseline data-transfer run, shaped so the harness can compare
/// it directly against Buzz's transfer outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineTransferOutcome {
    /// Which tags' messages decoded correctly (index-aligned with the tags).
    pub delivered: Vec<bool>,
    /// Total air time of the data phase in milliseconds.
    pub time_ms: f64,
    /// Number of antenna impedance transitions each tag performed (for the
    /// Fig. 13 energy accounting).
    pub per_tag_transitions: Vec<u64>,
    /// Seconds each tag spent actively transmitting.
    pub per_tag_active_s: Vec<f64>,
}

impl BaselineTransferOutcome {
    /// Number of correctly delivered messages.
    #[must_use]
    pub fn delivered_count(&self) -> usize {
        self.delivered.iter().filter(|&&d| d).count()
    }

    /// Number of lost (undelivered) messages.
    #[must_use]
    pub fn lost_count(&self) -> usize {
        self.delivered.len() - self.delivered_count()
    }

    /// Message loss rate in `[0, 1]`.
    #[must_use]
    pub fn loss_rate(&self) -> f64 {
        if self.delivered.is_empty() {
            0.0
        } else {
            self.lost_count() as f64 / self.delivered.len() as f64
        }
    }

    /// Aggregate bit rate in bits/symbol given the symbol (chip) rate used:
    /// delivered payload symbols per transmitted symbol.  For the fixed-rate
    /// baselines this is at most 1 bit/symbol.
    #[must_use]
    pub fn bits_per_symbol(&self, framed_bits: usize, symbol_rate: f64) -> f64 {
        if self.time_ms <= 0.0 || symbol_rate <= 0.0 {
            return 0.0;
        }
        let symbols = self.time_ms * 1e-3 * symbol_rate;
        (self.delivered_count() * framed_bits) as f64 / symbols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let o = BaselineTransferOutcome {
            delivered: vec![true, false, true, true],
            time_ms: 2.0,
            per_tag_transitions: vec![10; 4],
            per_tag_active_s: vec![1e-3; 4],
        };
        assert_eq!(o.delivered_count(), 3);
        assert_eq!(o.lost_count(), 1);
        assert!((o.loss_rate() - 0.25).abs() < 1e-12);
        // 3 delivered * 37 bits over 2 ms at 80 k symbols/s = 111 / 160.
        assert!((o.bits_per_symbol(37, 80_000.0) - 111.0 / 160.0).abs() < 1e-9);
        assert_eq!(o.bits_per_symbol(37, 0.0), 0.0);
    }

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
