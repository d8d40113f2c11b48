//! EPC Class-1 Generation-2 MAC substrate.
//!
//! Buzz is evaluated against the identification procedure of the EPC Gen-2
//! standard — Framed Slotted Aloha (FSA) with the reader's Q-adjustment
//! algorithm — and borrows its link-timing structure (reader commands,
//! inter-frame gaps, RN16 temporary ids).  This crate implements that
//! substrate:
//!
//! * [`timing`] — bit rates and command/turnaround durations used to convert
//!   slot counts into milliseconds (the unit of Fig. 14),
//! * [`commands`] — the reader command set and each command's air length,
//! * [`state`] — the tag-side inventory state machine,
//! * [`fsa`] — the Framed Slotted Aloha inventory rounds with the standard's
//!   Q-adjustment rule (`C = 0.3`), plus the "FSA with known K̂" variant the
//!   paper uses as a stronger baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod fsa;
pub mod state;
pub mod timing;

pub use commands::ReaderCommand;
pub use fsa::{FsaConfig, FsaOutcome, FsaSimulator, SlotKind};
pub use state::{InventoryState, TagStateMachine};
pub use timing::{LinkTiming, PAPER_TIMING};

/// Errors produced by the Gen-2 substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum Gen2Error {
    /// A configuration value was outside its valid domain.
    InvalidParameter(&'static str),
}

impl core::fmt::Display for Gen2Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Gen2Error::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for Gen2Error {}

/// Result alias for Gen-2 operations.
pub type Gen2Result<T> = Result<T, Gen2Error>;
