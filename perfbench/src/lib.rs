//! End-to-end and per-layer benchmark of the buzz-suite simulator.
//!
//! See `README.md` beside this crate for the workloads, the metrics and how
//! to read the traced table.

#![forbid(unsafe_code)]

pub mod catalogue;
pub mod reference;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
