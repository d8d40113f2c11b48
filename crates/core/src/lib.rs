//! Buzz: rateless collision coding and compressive-sensing identification for
//! low-power backscatter networks.
//!
//! This crate is the reproduction of the primary contribution of *Efficient
//! and Reliable Low-Power Backscatter Networks* (Wang, Hassanieh, Katabi,
//! Indyk — SIGCOMM 2012).  Buzz treats all backscatter nodes that want to
//! transmit as a **single virtual sender** and turns their collisions into a
//! code:
//!
//! * **Identification** (§5, [`identification`]): a three-stage customized
//!   compressive-sensing protocol — estimate `K` from empty-slot statistics,
//!   prune the temporary-id space by bucket hashing, then recover the active
//!   ids *and their channel coefficients* with a small sparse decode.
//! * **Distributed rate adaptation** (§6, [`rateless`], [`bp`], [`transfer`]):
//!   each node retransmits its message in a random sparse subset of time slots
//!   until the reader — running an incremental belief-propagation
//!   (bit-flipping) decoder over the collision graph — has decoded every
//!   message.  The aggregate rate `K/L` bits/symbol adapts automatically to
//!   channel quality, above 1 bit/symbol in good channels and below it in bad
//!   ones.
//! * **End-to-end protocol** ([`protocol`]): identification followed by data
//!   transfer, with the timing, throughput, reliability, and energy metrics
//!   ([`metrics`]) that the paper's evaluation reports.
//! * **Unified session API** ([`session`]): the [`session::Protocol`] trait
//!   and [`session::SessionOutcome`] type every compared scheme (Buzz and
//!   the TDMA/CDMA/FSA baselines) speaks, so comparison harnesses are
//!   written once against `&[&dyn session::Protocol]`.
//! * **Executor** ([`executor`]): the deterministic work-stealing thread
//!   pool every parallel loop in the repository runs on — figure grids,
//!   fleets, and the decoder's position-parallel sweep.
//! * **Toy example** ([`toy`]): the §3.2 illustration (Tables 1 and 2) of why
//!   designing for collisions improves id distinguishability.
//!
//! # Quick start
//!
//! ```
//! use backscatter_sim::scenario::ScenarioBuilder;
//! use buzz::protocol::{BuzzConfig, BuzzProtocol};
//!
//! // Eight tags on a cart near the reader, 32-bit messages.
//! let mut scenario = ScenarioBuilder::paper_uplink(8, 42).build().unwrap();
//! let outcome = BuzzProtocol::new(BuzzConfig::default())
//!     .unwrap()
//!     .run(&mut scenario, 7)
//!     .unwrap();
//! assert_eq!(outcome.transfer.decoded_count(), 8);
//! assert!(outcome.transfer.bits_per_symbol() >= 1.0);
//! ```
//!
//! The decoder defaults to the worklist schedule
//! ([`bp::DecodeSchedule::Worklist`]); pin
//! [`bp::DecodeSchedule::FullPass`] through
//! [`transfer::TransferConfig::decode_schedule`] to reproduce historical
//! (pre-worklist) runs bit for bit, or select
//! [`bp::DecodeSchedule::MessagePassing`] ([`mp`]) for the soft-decision
//! decoder with channel tracking that survives time-varying (fading)
//! channels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bp;
pub mod executor;
pub mod identification;
pub mod max_tracker;
pub mod metrics;
pub mod mp;
pub mod protocol;
pub mod rateless;
pub mod recovery;
pub mod session;
pub mod toy;
pub mod transfer;

pub use bp::{BitFlippingDecoder, DecodeState};
pub use identification::{IdentificationConfig, IdentificationOutcome, Identifier};
pub use metrics::{EfficiencyReport, ReliabilityReport};
pub use protocol::{BuzzConfig, BuzzOutcome, BuzzProtocol};
pub use rateless::{ParticipationCode, RatelessEncoder};
pub use recovery::{RecoveryConfig, ResilientBuzzProtocol};
pub use session::{
    Protocol, RecoveryDiagnostics, SessionDiagnostics, SessionError, SessionOutcome, SessionResult,
};
pub use transfer::{DataTransfer, TransferConfig, TransferOutcome};

/// Errors produced by the Buzz protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum BuzzError {
    /// A configuration value was outside its valid domain.
    InvalidParameter(&'static str),
    /// A simulator operation failed.
    Sim(backscatter_sim::SimError),
    /// A sparse-recovery operation failed.
    Recovery(sparse_recovery::RecoveryError),
    /// A coding operation failed.
    Code(backscatter_codes::CodeError),
    /// The identification phase could not assign distinct temporary ids within
    /// its retry budget.
    IdentificationFailed,
    /// The data phase hit its slot budget before decoding every message.
    TransferStalled {
        /// Number of messages decoded before stalling.
        decoded: usize,
        /// Number of messages expected.
        expected: usize,
    },
}

impl core::fmt::Display for BuzzError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BuzzError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            BuzzError::Sim(e) => write!(f, "simulator error: {e}"),
            BuzzError::Recovery(e) => write!(f, "sparse recovery error: {e}"),
            BuzzError::Code(e) => write!(f, "coding error: {e}"),
            BuzzError::IdentificationFailed => {
                write!(f, "identification failed to assign distinct temporary ids")
            }
            BuzzError::TransferStalled { decoded, expected } => write!(
                f,
                "data transfer stalled after decoding {decoded} of {expected} messages"
            ),
        }
    }
}

impl std::error::Error for BuzzError {}

impl From<backscatter_sim::SimError> for BuzzError {
    fn from(e: backscatter_sim::SimError) -> Self {
        BuzzError::Sim(e)
    }
}

impl From<sparse_recovery::RecoveryError> for BuzzError {
    fn from(e: sparse_recovery::RecoveryError) -> Self {
        BuzzError::Recovery(e)
    }
}

impl From<backscatter_codes::CodeError> for BuzzError {
    fn from(e: backscatter_codes::CodeError) -> Self {
        BuzzError::Code(e)
    }
}

/// Result alias for Buzz operations.
pub type BuzzResult<T> = Result<T, BuzzError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        let e: BuzzError = backscatter_sim::SimError::InvalidParameter("x").into();
        assert!(e.to_string().contains("simulator"));
        let e: BuzzError = sparse_recovery::RecoveryError::SingularSystem.into();
        assert!(e.to_string().contains("sparse recovery"));
        let e: BuzzError = backscatter_codes::CodeError::InvalidParameter("y").into();
        assert!(e.to_string().contains("coding"));
        assert!(BuzzError::IdentificationFailed
            .to_string()
            .contains("identification"));
        assert!(BuzzError::TransferStalled {
            decoded: 1,
            expected: 4
        }
        .to_string()
        .contains("1 of 4"));
    }
}
