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
//! * **Distributed rate adaptation** (§6, [`transfer`], [`bp`]): each node
//!   retransmits its message in a random sparse subset of time slots until
//!   the reader — running an incremental belief-propagation (bit-flipping)
//!   decoder over the collision graph — has decoded every message.  The
//!   aggregate rate `K/L` bits/symbol adapts automatically to channel
//!   quality, above 1 bit/symbol in good channels and below it in bad ones.
//!   Who transmits in which slot follows one rule, stated once in the
//!   crate-private `participation` module beside the reader's append-only
//!   participation matrix `D` that the decoders walk.
//! * **End-to-end protocol** ([`protocol`]): identification followed by data
//!   transfer, with the timing, throughput, reliability, and energy metrics
//!   that the paper's evaluation reports; [`recovery`] runs the same session
//!   under a fault-recovery loop.
//! * **Unified session API** ([`session`]): the [`session::Protocol`] trait
//!   and [`session::SessionOutcome`] type every compared scheme (Buzz and
//!   the TDMA/CDMA/FSA baselines) speaks, so comparison harnesses are
//!   written once against `&[&dyn session::Protocol]`.
//! * **Executor** ([`executor`]): the deterministic self-scheduling thread
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
//! The decoder has two schedules, chosen through
//! [`transfer::TransferConfig::decode_schedule`]: the hard-decision
//! bit-flipping worklist ([`bp::DecodeSchedule::Worklist`], the default and
//! the one the paper figures run), and
//! [`bp::DecodeSchedule::MessagePassing`] ([`mp`]), the soft-decision
//! decoder with channel tracking that survives time-varying (fading)
//! channels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bp;
pub mod executor;
pub mod identification;
pub mod mp;
mod participation;
pub mod protocol;
pub mod recovery;
pub mod session;
pub mod toy;
pub mod transfer;

pub use bp::{BitFlippingDecoder, DecodeState};
pub use identification::{IdentificationConfig, IdentificationOutcome, Identifier};
pub use protocol::{BuzzConfig, BuzzOutcome, BuzzProtocol};
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
    /// The identification phase could not estimate the population (stage
    /// 1's steps ran out with every slot still busy) or assign distinct
    /// temporary ids within its retry budget.
    IdentificationFailed,
}

impl core::fmt::Display for BuzzError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BuzzError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            BuzzError::Sim(e) => write!(f, "simulator error: {e}"),
            BuzzError::Recovery(e) => write!(f, "sparse recovery error: {e}"),
            BuzzError::Code(e) => write!(f, "coding error: {e}"),
            BuzzError::IdentificationFailed => {
                write!(
                    f,
                    "identification failed to estimate the population or assign distinct temporary ids"
                )
            }
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
    }
}
