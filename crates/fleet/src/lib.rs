//! Fleet layer: many readers, one shared persistent tag population.
//!
//! The paper evaluates one reader running one session.  A production
//! deployment is a *fleet*: hundreds of readers covering a warehouse, each
//! running staggered, overlapping sessions against the same population of
//! tags — and a tag that misses one session carries its undelivered message
//! to the next reader that inventories it.  This crate builds that model on
//! top of the unified [`buzz::session::Protocol`] trait, so any scheme (Buzz,
//! `buzz+r`, TDMA, …) can be evaluated at fleet scale without changes:
//!
//! * [`population`] — the shared persistent population: tags keep their
//!   global identity and undelivered message state across sessions, arrive
//!   and depart between epochs (`TagChurn`-style presence), and expire
//!   messages that have been carried too long,
//! * [`warehouse`] — the epoch loop: deterministic tag→reader assignment,
//!   parallel session execution on the repository's work-stealing executor
//!   ([`buzz::executor::work_steal_map`]: a stalled decode must not idle the
//!   other workers), an event-ordered merge of the completions,
//!   and the aggregate [`FleetOutcome`] headline — total msgs/s, p50/p99
//!   session latency, energy per delivered message, per-reader utilization.
//!
//! Everything is seeded: a fleet run with `threads = N` is byte-identical to
//! the serial run, extending the repo's determinism contract to the new
//! subsystem.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod population;
pub mod warehouse;

pub use population::{FleetTagState, PendingMessage, Population};
pub use warehouse::{run_fleet, FleetConfig, FleetOutcome, SessionRecord};

/// Errors produced by the fleet layer.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// A configuration value was outside its valid domain.
    InvalidParameter(&'static str),
    /// A session run by the fleet failed.
    Session(buzz::session::SessionError),
    /// A simulator operation failed while building a session scenario.
    Sim(backscatter_sim::SimError),
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            FleetError::Session(e) => write!(f, "fleet session error: {e}"),
            FleetError::Sim(e) => write!(f, "fleet scenario error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<buzz::session::SessionError> for FleetError {
    fn from(e: buzz::session::SessionError) -> Self {
        FleetError::Session(e)
    }
}

impl From<backscatter_sim::SimError> for FleetError {
    fn from(e: backscatter_sim::SimError) -> Self {
        FleetError::Sim(e)
    }
}

/// Result alias for fleet operations.
pub type FleetResult<T> = Result<T, FleetError>;
