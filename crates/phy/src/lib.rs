//! Backscatter physical-layer simulation.
//!
//! This crate is the "USRP + wireless channel" substitute for the Buzz paper's
//! hardware testbed.  It models the physical layer at the level the paper's
//! decoders operate on: complex baseband samples received by the reader while
//! one or more tags reflect the reader's continuous waveform.
//!
//! The model follows §2 of the paper:
//!
//! * tags use ON-OFF keying — a "1" bit reflects the carrier, a "0" bit leaves
//!   the antenna unmatched (silent),
//! * the channel of each tag is a **single complex tap** `h_i` (narrowband
//!   ≤ 640 kHz, negligible multipath),
//! * there is no carrier-frequency offset between tags because none of them
//!   generates its own carrier,
//! * tags are slot-synchronized by the reader's query, with a small initial
//!   offset jitter and a per-tag clock drift that can optionally be corrected.
//!
//! Module map:
//!
//! * [`complex`] — minimal `Complex` arithmetic (no external linear-algebra
//!   dependency),
//! * [`noise`] — additive white Gaussian noise via the Box–Muller transform,
//! * [`channel`] — single-tap channels, path loss and fading,
//! * [`modulation`] — the carrier-leakage baseline that ON-OFF keyed
//!   reflections ride on,
//! * [`linecode`] — the Miller-M baseband line code of EPC Gen-2,
//! * [`signal`] — IQ traces, constellations, power detection (occupied/empty
//!   slot decisions),
//! * [`sync`] — initial-offset jitter and clock-drift models plus drift
//!   correction (reproduces the §8.1 microbenchmarks),
//! * [`snr`] — dB-to-linear SNR conversion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod complex;
pub mod linecode;
pub mod modulation;
pub mod noise;
pub mod signal;
pub mod snr;
pub mod sync;

pub use channel::{Channel, ChannelModel};
pub use complex::Complex;
pub use linecode::Miller;
pub use noise::AwgnSource;
pub use signal::{Constellation, IqTrace, PowerDetector, SlotObservation};
pub use snr::snr_db_to_linear;
pub use sync::{ClockModel, DriftCorrection, SyncJitter};

/// Errors produced by physical-layer operations.
#[derive(Debug, Clone, PartialEq)]
pub enum PhyError {
    /// A signal-processing routine was handed vectors of mismatched length.
    LengthMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A parameter was outside its valid domain (e.g. a negative noise power).
    InvalidParameter(&'static str),
    /// An operation needed at least one sample/element but received none.
    Empty,
}

impl core::fmt::Display for PhyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PhyError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            PhyError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            PhyError::Empty => write!(f, "operation requires at least one element"),
        }
    }
}

impl std::error::Error for PhyError {}

/// Result alias for physical-layer operations.
pub type PhyResult<T> = Result<T, PhyError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = PhyError::LengthMismatch {
            expected: 4,
            actual: 2,
        };
        assert!(e.to_string().contains("expected 4"));
        assert!(PhyError::Empty.to_string().contains("at least one"));
        assert!(PhyError::InvalidParameter("snr")
            .to_string()
            .contains("snr"));
    }
}
