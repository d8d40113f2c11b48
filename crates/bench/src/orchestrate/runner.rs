//! Executes plan jobs and emits canonical per-job artifacts.
//!
//! A [`JobArtifact`] is one job's complete output: its id, its job hash
//! (binding the artifact to the spec that produced it), and a canonical
//! JSON payload.  Figure jobs embed their [`ExperimentReport`] losslessly,
//! so the merge step can rebuild the figure tables without re-running
//! anything; grid-cell jobs embed the per-scheme session outcomes.
//!
//! [`run_shard`] executes any contiguous [`Shard`] of a plan's job list.
//! Jobs run sequentially within the shard; each job shards its own scenario
//! matrix across `threads` workers through the experiment machinery it
//! already uses (the one work-stealing executor,
//! [`buzz::executor::work_steal_map`], behind the figure grids and
//! `fig_fleet` alike), so output is byte-identical for every `threads` value
//! *and* every shard split.

use backscatter_baselines::session::TdmaProtocol;
use backscatter_sim::scenario::ScenarioBuilder;
use buzz::protocol::{BuzzConfig, BuzzProtocol};
use buzz::session::run_panel;

use crate::experiments::find_figure;
use crate::report::ExperimentReport;

use super::canonical::{content_hash, CanonicalJson};
use super::plan::{GridDynamics, Job, JobKind, Shard, SweepPlan};

/// One executed job's canonical output.
#[derive(Debug, Clone, PartialEq)]
pub struct JobArtifact {
    /// The job id (unique within its plan).
    pub id: String,
    /// The hash of the job spec that produced this artifact.
    pub job_hash: String,
    /// The job's output as canonical JSON.
    pub payload: CanonicalJson,
}

impl JobArtifact {
    /// The artifact as one canonical JSON document.
    #[must_use]
    pub fn to_canonical(&self) -> CanonicalJson {
        CanonicalJson::object(vec![
            ("id", CanonicalJson::str(&self.id)),
            ("job_hash", CanonicalJson::str(&self.job_hash)),
            ("payload", self.payload.clone()),
        ])
    }

    /// Canonical bytes (what the artifact file contains).
    #[must_use]
    pub fn serialize(&self) -> String {
        self.to_canonical().serialize()
    }

    /// The artifact's content hash — what the runbook records per job, and
    /// what `runbook diff` compares to localize a divergence.
    #[must_use]
    pub fn artifact_hash(&self) -> String {
        content_hash(self.serialize().as_bytes())
    }

    /// The canonical artifact filename within a shard output directory.
    /// Named by job hash, so any set of shard directories can be pooled
    /// without collisions or ordering assumptions.
    #[must_use]
    pub fn filename(&self) -> String {
        format!("job-{}.json", self.job_hash)
    }

    /// Parses an artifact file's bytes.
    pub fn parse(text: &str) -> Result<Self, String> {
        let value = CanonicalJson::parse(text)?;
        let field = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(CanonicalJson::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("artifact is missing string `{key}`"))
        };
        Ok(Self {
            id: field("id")?,
            job_hash: field("job_hash")?,
            payload: value
                .get("payload")
                .cloned()
                .ok_or("artifact is missing `payload`")?,
        })
    }

    /// The embedded figure report, when this is a figure job's artifact.
    pub fn report(&self) -> Result<ExperimentReport, String> {
        let report = self
            .payload
            .get("report")
            .ok_or_else(|| format!("artifact `{}` has no figure report", self.id))?;
        ExperimentReport::from_canonical(report)
    }
}

/// Executes one job.
#[must_use]
pub fn run_job(job: &Job, threads: usize) -> JobArtifact {
    let payload = match &job.kind {
        JobKind::Figure {
            figure,
            locations,
            seed,
        } => {
            let entry = find_figure(figure).expect("plan construction validated the figure id");
            let report = (entry.run)(*locations, *seed, threads);
            CanonicalJson::object(vec![("report", report.to_canonical())])
        }
        JobKind::GridCell {
            k,
            location,
            trace,
            dynamics,
            seed,
        } => run_grid_cell(*k, *location, *trace, *dynamics, *seed),
    };
    JobArtifact {
        id: job.id.clone(),
        job_hash: job.hash.clone(),
        payload,
    }
}

/// Executes the jobs of one contiguous shard, in plan order.
#[must_use]
pub fn run_shard(plan: &SweepPlan, shard: Shard, threads: usize) -> Vec<JobArtifact> {
    plan.jobs[shard.range(plan.jobs.len())]
        .iter()
        .map(|job| run_job(job, threads))
        .collect()
}

/// One generic uplink cell: `[buzz, tdma]` back-to-back over the same
/// scenario, mirroring the comparison figures' per-cell structure.
fn run_grid_cell(
    k: usize,
    location: u64,
    trace: u64,
    dynamics: GridDynamics,
    seed: u64,
) -> CanonicalJson {
    // The same location-seed derivation style the figures use: distinct
    // locations draw distinct scenarios, deterministically from the spec.
    let scenario_seed = seed + location * 97 + k as u64;
    let mut builder = ScenarioBuilder::paper_uplink(k, scenario_seed);
    if let Some(fading) = dynamics
        .fading()
        .expect("the plan validated the fading parameters")
    {
        builder = builder.dynamics(fading);
    }
    let mut scenario = builder.build().expect("the plan validated K");
    let buzz = BuzzProtocol::new(BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    })
    .expect("protocol");
    let tdma = TdmaProtocol::paper_default().expect("tdma");
    let outcomes = run_panel(&[&buzz, &tdma], &mut scenario, trace)
        .unwrap_or_else(|e| panic!("grid cell failed: {e}"));
    CanonicalJson::object(vec![(
        "outcomes",
        CanonicalJson::Array(
            outcomes
                .iter()
                .map(|o| {
                    CanonicalJson::object(vec![
                        ("delivered", CanonicalJson::Int(o.delivered_messages as i64)),
                        ("lost", CanonicalJson::Int(o.lost_messages as i64)),
                        ("scheme", CanonicalJson::str(&o.scheme)),
                        ("slots", CanonicalJson::Int(o.slots_used as i64)),
                        ("wall_ms", CanonicalJson::Float(o.wall_time_ms)),
                    ])
                })
                .collect(),
        ),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrate::plan::GridOptions;

    #[test]
    fn artifact_roundtrips_through_its_file_bytes() {
        let artifact = JobArtifact {
            id: "fig8".into(),
            job_hash: "0123456789abcdef".into(),
            payload: CanonicalJson::object(vec![("report", CanonicalJson::Int(1))]),
        };
        let parsed = JobArtifact::parse(&artifact.serialize()).unwrap();
        assert_eq!(parsed, artifact);
        assert_eq!(parsed.artifact_hash(), artifact.artifact_hash());
        assert_eq!(artifact.filename(), "job-0123456789abcdef.json");
        assert!(JobArtifact::parse("{}").is_err());
        assert!(JobArtifact::parse("not json").is_err());
    }

    #[test]
    fn figure_job_artifact_embeds_the_exact_report() {
        // fig8 is deterministic and cheap: the artifact's embedded report
        // must equal a direct call's.
        let plan = SweepPlan::figure_list("fig8", 1, 2012).unwrap();
        let artifact = run_job(&plan.jobs[0], 1);
        assert_eq!(artifact.id, "fig8");
        assert_eq!(artifact.job_hash, plan.jobs[0].hash);
        let report = artifact.report().unwrap();
        assert_eq!(report, crate::experiments::fig8());
    }

    #[test]
    fn grid_cell_runs_the_panel_and_is_deterministic() {
        let options = GridOptions {
            ks: vec![2],
            traces: 1,
            dynamics: vec![GridDynamics::Static],
        };
        let plan = SweepPlan::uplink_grid(&options, 1, 31).unwrap();
        let a = run_job(&plan.jobs[0], 1);
        let b = run_job(&plan.jobs[0], 1);
        assert_eq!(a.serialize(), b.serialize());
        let outcomes = a.payload.get("outcomes").unwrap().as_array().unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].get("scheme").unwrap().as_str(), Some("buzz"));
        assert_eq!(outcomes[1].get("scheme").unwrap().as_str(), Some("tdma"));
        // K = 2 over a clean paper uplink delivers everything.
        assert_eq!(outcomes[0].get("delivered").unwrap().as_int(), Some(2));
        assert!(a.report().is_err(), "grid artifacts embed no figure report");
    }
}
