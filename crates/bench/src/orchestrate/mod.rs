//! The experiment service: plan → shard → merge → diff.
//!
//! This module turns the repo's figure set into a *plan-driven* service.
//! A [`plan::SweepPlan`] deterministically expands a figure set into
//! addressable [`plan::Job`]s, one per figure, each content-hashed over its
//! canonical sorted-key spec.  [`runner::run_shard`] executes any
//! contiguous `--shard i/n` slice and emits one canonical JSON
//! [`runner::JobArtifact`] per job.  [`runbook::Runbook::assemble`] merges
//! pooled shard artifacts into a manifest whose bytes are independent of how
//! the work was sharded, and [`runbook::diff`] compares two manifests
//! job-by-job, naming the first divergent job.
//!
//! Everything rests on [`canonical`]: a serde-free canonical JSON value
//! (sorted keys, stable float text, byte-stable parse/serialize round-trip)
//! and the FNV-1a/SplitMix64 [`canonical::content_hash`] used for job specs,
//! artifacts, plans, and runbooks alike.

pub mod canonical;
pub mod cli;
pub mod plan;
pub mod runbook;
pub mod runner;

pub use canonical::{content_hash, CanonicalJson};
pub use cli::CliFlags;
pub use plan::{Job, Shard, SweepPlan};
pub use runbook::{diff, figures_json, DiffOutcome, Runbook, RunbookJob};
pub use runner::{run_job, run_shard, JobArtifact};
