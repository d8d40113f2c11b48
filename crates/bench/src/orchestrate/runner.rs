//! Executes plan jobs and emits canonical per-job artifacts.
//!
//! A [`JobArtifact`] is one job's complete output: its id, its job hash
//! (binding the artifact to the spec that produced it), and a canonical
//! JSON payload.  Every job runs a figure and embeds its
//! [`ExperimentReport`] losslessly, so the merge step can rebuild the figure
//! tables without re-running anything.
//!
//! [`run_shard`] executes any contiguous [`Shard`] of a plan's job list.
//! Jobs run sequentially within the shard; each job shards its own scenario
//! matrix across `threads` workers through the experiment machinery it
//! already uses (the one executor,
//! [`buzz::executor::work_steal_map`], behind the figure grids and
//! `fig_fleet` alike), so output is byte-identical for every `threads` value
//! *and* every shard split.

use crate::experiments::find_figure;
use crate::report::ExperimentReport;

use super::canonical::{content_hash, CanonicalJson};
use super::plan::{Job, Shard, SweepPlan};

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

    /// The embedded figure report.
    pub fn report(&self) -> Result<ExperimentReport, String> {
        let report = self
            .payload
            .get("report")
            .ok_or_else(|| format!("artifact `{}` has no figure report", self.id))?;
        ExperimentReport::from_canonical(report)
    }
}

/// Executes one job: runs its figure and embeds the report.
#[must_use]
pub fn run_job(job: &Job, threads: usize) -> JobArtifact {
    let entry = find_figure(&job.id).expect("plan construction validated the figure id");
    let report = (entry.run)(job.locations, job.seed, threads);
    JobArtifact {
        id: job.id.clone(),
        job_hash: job.hash.clone(),
        payload: CanonicalJson::object(vec![("report", report.to_canonical())]),
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
