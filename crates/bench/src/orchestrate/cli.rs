//! The `reproduce` command line: its flags and the plan they name.
//!
//! The binary only dispatches subcommands and does file I/O; the flag
//! parser lives here, beside the other inputs the experiment service reads
//! ([`super::plan::SweepPlan`], [`super::plan::Shard`]), so it is held to
//! the same rule: hostile input returns an error, never a panic or an abort.

use buzz::executor::available_threads;

use super::plan::{Shard, SweepPlan};
use crate::experiments;

/// The base seed every plan uses unless `--seed` names another.
const BASE_SEED: u64 = 2012;

/// Flags shared by every subcommand (and the figure form).
#[derive(Debug)]
pub struct CliFlags {
    /// `--plan`: `all` or a comma-separated figure list.
    pub plan: String,
    /// `--locations`: locations every figure averages over.
    pub locations: u64,
    /// `--seed`: the plan's base seed.
    pub seed: u64,
    /// `--threads`: worker threads (at least one).
    pub threads: usize,
    /// `--shard i/n`: the slice of the plan `run` executes.
    pub shard: Shard,
    /// `--out`: the plan, artifact directory or runbook to write.
    pub out: Option<String>,
    /// `--figures`: where `merge` writes the figure array.
    pub figures: Option<String>,
    /// `--artifacts`: the artifact directories `merge` reads.
    pub artifacts: Vec<String>,
    /// `--json`: where the figure form writes the figure array.
    pub json_path: Option<String>,
    /// Arguments that are not flags, in order.
    pub positional: Vec<String>,
}

impl CliFlags {
    /// Parses the arguments after the subcommand.
    ///
    /// # Errors
    ///
    /// An unknown flag, a flag without its value, and a value its parser
    /// rejects.  Location bounds are the plan's to check
    /// ([`Self::build_plan`]).
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = CliFlags {
            plan: "all".to_string(),
            locations: experiments::DEFAULT_LOCATIONS,
            seed: BASE_SEED,
            threads: available_threads(),
            shard: Shard::full(),
            out: None,
            figures: None,
            artifacts: Vec::new(),
            json_path: None,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--plan" => flags.plan = value("--plan")?,
                "--locations" => {
                    flags.locations = value("--locations")?
                        .parse()
                        .map_err(|_| "bad --locations".to_string())?;
                }
                "--seed" => {
                    flags.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "bad --seed".to_string())?;
                }
                "--threads" => {
                    let n: usize = value("--threads")?
                        .parse()
                        .map_err(|_| "bad --threads".to_string())?;
                    flags.threads = n.max(1);
                }
                "--shard" => flags.shard = Shard::parse(&value("--shard")?)?,
                "--out" => flags.out = Some(value("--out")?),
                "--figures" => flags.figures = Some(value("--figures")?),
                "--artifacts" => flags
                    .artifacts
                    .extend(value("--artifacts")?.split(',').map(str::to_string)),
                "--json" => flags.json_path = Some(value("--json")?),
                other if !other.starts_with("--") => flags.positional.push(other.to_string()),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(flags)
    }

    /// The plan the flags name.
    ///
    /// # Errors
    ///
    /// The errors of [`SweepPlan::from_name`].
    pub fn build_plan(&self) -> Result<SweepPlan, String> {
        SweepPlan::from_name(&self.plan, self.locations, self.seed)
    }
}
