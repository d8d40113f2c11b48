//! `reproduce` — regenerates every table and figure of the Buzz paper,
//! directly or through the plan-driven experiment service.
//!
//! Direct (legacy) usage, byte-for-byte unchanged:
//!
//! ```text
//! cargo run --release -p buzz-bench --bin reproduce            # everything
//! cargo run --release -p buzz-bench --bin reproduce fig10      # one artefact
//! cargo run --release -p buzz-bench --bin reproduce fig14 --locations 10
//! cargo run --release -p buzz-bench --bin reproduce all --json results.json
//! cargo run --release -p buzz-bench --bin reproduce all --threads 8
//! ```
//!
//! Experiment-service usage (plan → shard → merge → diff):
//!
//! ```text
//! reproduce plan --plan all --locations 2                  # print the job list
//! reproduce run  --plan all --shard 2/3 --out shard2/      # run one shard
//! reproduce merge --plan all --artifacts shard1,shard2,shard3 \
//!     --out runbook.json --figures figures.json            # assemble manifest
//! reproduce diff runbook.json other-runbook.json           # first divergent job
//! ```
//!
//! `--plan` takes `all`, `grid`, or a comma-separated figure list; `grid`
//! plans also honour `--ks 4,8,16`, `--traces N`, and
//! `--dynamics static,fading:<doppler>:<los>`.  All subcommands accept
//! `--locations`, `--seed`, and `--threads`.  Output is byte-identical for
//! every `--threads` value and every `--shard` split.
//!
//! Valid experiment ids for the direct form are the registry ids
//! ([`experiments::FIGURES`]): run with an unknown id to have them listed.

use std::io::Write as _;
use std::path::Path;

use buzz::executor::available_threads;
use buzz_bench::experiments;
use buzz_bench::orchestrate::{
    diff as runbook_diff, figures_json, GridDynamics, GridOptions, JobArtifact, Runbook, Shard,
    SweepPlan,
};
use buzz_bench::report::reports_to_json;
use buzz_bench::ExperimentReport;

const BASE_SEED: u64 = 2012;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("plan") => cmd_plan(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        _ => cmd_direct(&args),
    };
    std::process::exit(code);
}

/// Flags shared by every subcommand (and the direct form).
struct CommonFlags {
    plan: String,
    locations: u64,
    seed: u64,
    threads: usize,
    grid: GridOptions,
    shard: Shard,
    out: Option<String>,
    figures: Option<String>,
    artifacts: Vec<String>,
    json_path: Option<String>,
    positional: Vec<String>,
}

impl CommonFlags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = CommonFlags {
            plan: "all".to_string(),
            locations: experiments::DEFAULT_LOCATIONS,
            seed: BASE_SEED,
            threads: available_threads(),
            grid: GridOptions::default(),
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
                "--ks" => {
                    flags.grid.ks = value("--ks")?
                        .split(',')
                        .map(|v| v.trim().parse().map_err(|_| format!("bad K `{v}`")))
                        .collect::<Result<_, _>>()?;
                }
                "--traces" => {
                    flags.grid.traces = value("--traces")?
                        .parse()
                        .map_err(|_| "bad --traces".to_string())?;
                }
                "--dynamics" => {
                    flags.grid.dynamics = value("--dynamics")?
                        .split(',')
                        .map(GridDynamics::parse)
                        .collect::<Result<_, _>>()?;
                }
                other if !other.starts_with("--") => flags.positional.push(other.to_string()),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(flags)
    }

    fn build_plan(&self) -> Result<SweepPlan, String> {
        SweepPlan::from_name(&self.plan, self.locations, self.seed, &self.grid)
    }
}

/// The commit a runbook records: `RUNBOOK_COMMIT`, else CI's `GITHUB_SHA`,
/// else `unknown`.  Never read from `.git` so runs are hermetic.
fn commit_id() -> String {
    std::env::var("RUNBOOK_COMMIT")
        .or_else(|_| std::env::var("GITHUB_SHA"))
        .unwrap_or_else(|_| "unknown".to_string())
}

fn fail(message: &str) -> i32 {
    eprintln!("{message}");
    2
}

fn write_file(path: &str, bytes: &str) -> Result<(), String> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("creating {parent:?}: {e}"))?;
        }
    }
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(bytes.as_bytes()))
        .map_err(|e| format!("failed to write {path}: {e}"))
}

/// `reproduce plan`: expand and print the canonical job list.
fn cmd_plan(args: &[String]) -> i32 {
    let flags = match CommonFlags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let plan = match flags.build_plan() {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let body = plan.to_canonical().serialize();
    match &flags.out {
        Some(path) => {
            if let Err(e) = write_file(path, &body) {
                return fail(&e);
            }
            println!(
                "plan `{}`: {} jobs, hash {} -> {path}",
                plan.name,
                plan.jobs.len(),
                plan.plan_hash()
            );
        }
        None => println!("{body}"),
    }
    0
}

/// `reproduce run`: execute one contiguous shard, one artifact file per job.
fn cmd_run(args: &[String]) -> i32 {
    let flags = match CommonFlags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let Some(out) = flags.out.clone() else {
        return fail("run needs --out <dir> for its artifacts");
    };
    let plan = match flags.build_plan() {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    if let Err(e) = std::fs::create_dir_all(&out) {
        return fail(&format!("creating {out}: {e}"));
    }
    let range = flags.shard.range(plan.jobs.len());
    eprintln!(
        "plan `{}` hash {}: shard {}/{} owns jobs {}..{} of {}",
        plan.name,
        plan.plan_hash(),
        flags.shard.index,
        flags.shard.count,
        range.start,
        range.end,
        plan.jobs.len()
    );
    for job in &plan.jobs[range] {
        let artifact = buzz_bench::orchestrate::run_job(job, flags.threads);
        let path = format!("{out}/{}", artifact.filename());
        if let Err(e) = write_file(&path, &artifact.serialize()) {
            return fail(&e);
        }
        eprintln!("  {} -> {path}", job.id);
    }
    0
}

/// `reproduce merge`: pool shard artifacts into a runbook manifest (and,
/// optionally, the legacy figures JSON).
fn cmd_merge(args: &[String]) -> i32 {
    let flags = match CommonFlags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if flags.artifacts.is_empty() {
        return fail("merge needs --artifacts <dir>[,<dir>...]");
    }
    let Some(out) = flags.out.clone() else {
        return fail("merge needs --out <runbook.json>");
    };
    let plan = match flags.build_plan() {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let mut artifacts = Vec::new();
    for dir in &flags.artifacts {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) => return fail(&format!("reading {dir}: {e}")),
        };
        let mut names: Vec<String> = entries
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("job-") && name.ends_with(".json"))
            .collect();
        names.sort_unstable();
        for name in names {
            let path = format!("{dir}/{name}");
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => return fail(&format!("reading {path}: {e}")),
            };
            match JobArtifact::parse(&text) {
                Ok(artifact) => artifacts.push(artifact),
                Err(e) => return fail(&format!("{path}: {e}")),
            }
        }
    }
    let runbook = match Runbook::assemble(&plan, &artifacts, &commit_id()) {
        Ok(runbook) => runbook,
        Err(e) => return fail(&e),
    };
    if let Err(e) = write_file(&out, &runbook.serialize()) {
        return fail(&e);
    }
    println!(
        "runbook `{}`: {} jobs, plan {}, manifest {} -> {out}",
        runbook.plan_name,
        runbook.jobs.len(),
        runbook.plan_hash,
        runbook.hash()
    );
    if let Some(figures) = &flags.figures {
        match figures_json(&plan, &artifacts) {
            Ok(json) => {
                if let Err(e) = write_file(figures, &json) {
                    return fail(&e);
                }
                println!("wrote {figures}");
            }
            Err(e) => return fail(&e),
        }
    }
    0
}

/// `reproduce diff`: compare two runbook manifests job-by-job.
fn cmd_diff(args: &[String]) -> i32 {
    let flags = match CommonFlags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let [left_path, right_path] = flags.positional.as_slice() else {
        return fail("diff needs exactly two runbook files");
    };
    let read = |path: &str| -> Result<Runbook, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Runbook::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (left, right) = match (read(left_path), read(right_path)) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    if left.commit != right.commit {
        eprintln!(
            "note: commits differ ({} vs {}) — not treated as divergence",
            left.commit, right.commit
        );
    }
    let outcome = runbook_diff(&left, &right);
    println!("{}", outcome.describe());
    i32::from(!outcome.is_identical())
}

/// The original figure-printing form: `reproduce [<figure>|all] [flags]`.
fn cmd_direct(args: &[String]) -> i32 {
    let flags = match CommonFlags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let which = flags
        .positional
        .first()
        .map_or("all", String::as_str)
        .to_string();
    let reports: Vec<ExperimentReport> = if which == "all" {
        experiments::run_all(flags.locations, flags.seed, flags.threads)
    } else if let Some(figure) = experiments::find_figure(&which) {
        vec![(figure.run)(flags.locations, flags.seed, flags.threads)]
    } else {
        eprintln!(
            "unknown experiment `{which}`; known experiments: all, {}",
            experiments::known_figure_ids().join(", ")
        );
        return 2;
    };

    for report in &reports {
        println!("{}", report.render());
    }

    if let Some(path) = flags.json_path {
        let json = reports_to_json(&reports);
        if let Err(e) = write_file(&path, &json) {
            eprintln!("{e}");
            return 1;
        }
        println!("wrote {path}");
    }
    0
}
