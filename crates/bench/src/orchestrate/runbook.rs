//! Runbook manifests: the merge and diff half of the experiment service.
//!
//! A [`Runbook`] is the canonical record of one complete plan execution:
//! the plan hash, the commit it ran at, the seed/location knobs, and one
//! `(id, job_hash, artifact_hash)` triple per job in plan order.  Shards
//! produce artifacts; [`Runbook::assemble`] checks that the pooled artifacts
//! cover the plan exactly once each and freezes their hashes.  Two runbooks
//! from different shardings (or machines) must serialize to identical bytes
//! — [`diff`] localizes the first job where they do not.

use std::collections::HashMap;

use super::canonical::{content_hash, CanonicalJson};
use super::plan::SweepPlan;
use super::runner::JobArtifact;

/// One job's entry in a runbook manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunbookJob {
    /// The job id, unique within the plan.
    pub id: String,
    /// Hash of the job spec (what was asked for).
    pub job_hash: String,
    /// Content hash of the job's artifact (what was produced).
    pub artifact_hash: String,
}

/// The manifest of one complete plan execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Runbook {
    /// The plan's content hash.
    pub plan_hash: String,
    /// The plan's name (`all` or a figure list).
    pub plan_name: String,
    /// The commit the run executed at (`unknown` outside CI).
    pub commit: String,
    /// Scenario locations per comparison figure.
    pub locations: u64,
    /// The base seed the plan expanded from.
    pub base_seed: u64,
    /// Per-job entries, in plan order.
    pub jobs: Vec<RunbookJob>,
}

impl Runbook {
    /// Assembles a runbook from a plan and the pooled shard artifacts.
    ///
    /// # Errors
    ///
    /// Fails when an artifact is missing, duplicated with conflicting
    /// contents, or does not belong to the plan.
    pub fn assemble(
        plan: &SweepPlan,
        artifacts: &[JobArtifact],
        commit: &str,
    ) -> Result<Self, String> {
        let mut by_hash: HashMap<&str, &JobArtifact> = HashMap::new();
        for artifact in artifacts {
            if let Some(previous) = by_hash.insert(artifact.job_hash.as_str(), artifact) {
                if previous.serialize() != artifact.serialize() {
                    return Err(format!(
                        "job `{}` ({}) has two conflicting artifacts",
                        artifact.id, artifact.job_hash
                    ));
                }
            }
        }
        let known: Vec<&str> = plan.jobs.iter().map(|j| j.hash.as_str()).collect();
        for artifact in artifacts {
            if !known.contains(&artifact.job_hash.as_str()) {
                return Err(format!(
                    "artifact `{}` ({}) does not belong to plan `{}`",
                    artifact.id, artifact.job_hash, plan.name
                ));
            }
        }
        let jobs = plan
            .jobs
            .iter()
            .map(|job| {
                let artifact = by_hash.get(job.hash.as_str()).ok_or_else(|| {
                    format!("plan job `{}` ({}) has no artifact", job.id, job.hash)
                })?;
                Ok(RunbookJob {
                    id: job.id.clone(),
                    job_hash: job.hash.clone(),
                    artifact_hash: artifact.artifact_hash(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            plan_hash: plan.plan_hash(),
            plan_name: plan.name.clone(),
            commit: commit.to_string(),
            locations: plan.locations,
            base_seed: plan.base_seed,
            jobs,
        })
    }

    /// The manifest as one canonical JSON document.
    #[must_use]
    pub fn to_canonical(&self) -> CanonicalJson {
        CanonicalJson::object(vec![
            ("base_seed", CanonicalJson::Int(self.base_seed as i64)),
            ("commit", CanonicalJson::str(&self.commit)),
            (
                "jobs",
                CanonicalJson::Array(
                    self.jobs
                        .iter()
                        .map(|job| {
                            CanonicalJson::object(vec![
                                ("artifact_hash", CanonicalJson::str(&job.artifact_hash)),
                                ("id", CanonicalJson::str(&job.id)),
                                ("job_hash", CanonicalJson::str(&job.job_hash)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("locations", CanonicalJson::Int(self.locations as i64)),
            ("plan_hash", CanonicalJson::str(&self.plan_hash)),
            ("plan_name", CanonicalJson::str(&self.plan_name)),
        ])
    }

    /// Canonical manifest bytes (what `runbook.json` contains).
    #[must_use]
    pub fn serialize(&self) -> String {
        self.to_canonical().serialize()
    }

    /// The manifest's own content hash.
    #[must_use]
    pub fn hash(&self) -> String {
        content_hash(self.serialize().as_bytes())
    }

    /// Parses a manifest file's bytes.
    pub fn parse(text: &str) -> Result<Self, String> {
        let value = CanonicalJson::parse(text)?;
        let string = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(CanonicalJson::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("runbook is missing string `{key}`"))
        };
        let int = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(CanonicalJson::as_int)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| format!("runbook is missing integer `{key}`"))
        };
        let jobs = value
            .get("jobs")
            .and_then(CanonicalJson::as_array)
            .ok_or("runbook is missing array `jobs`")?
            .iter()
            .map(|entry| {
                let field = |key: &str| -> Result<String, String> {
                    entry
                        .get(key)
                        .and_then(CanonicalJson::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("runbook job is missing string `{key}`"))
                };
                Ok(RunbookJob {
                    id: field("id")?,
                    job_hash: field("job_hash")?,
                    artifact_hash: field("artifact_hash")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            plan_hash: string("plan_hash")?,
            plan_name: string("plan_name")?,
            commit: string("commit")?,
            locations: int("locations")?,
            base_seed: int("base_seed")?,
            jobs,
        })
    }
}

/// The outcome of comparing two runbooks job-by-job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffOutcome {
    /// Same plan, same per-job artifact hashes.
    Identical,
    /// The runbooks executed different plans — jobs are not comparable.
    PlanMismatch {
        /// Left plan hash.
        left: String,
        /// Right plan hash.
        right: String,
    },
    /// The first job (in plan order) whose artifact hashes differ.
    Divergence {
        /// Zero-based position in the job list.
        index: usize,
        /// The divergent job's id.
        id: String,
        /// The divergent job's spec hash.
        job_hash: String,
        /// Left artifact hash.
        left: String,
        /// Right artifact hash.
        right: String,
    },
}

impl DiffOutcome {
    /// True when the runbooks agree.
    #[must_use]
    pub fn is_identical(&self) -> bool {
        matches!(self, Self::Identical)
    }

    /// A one-paragraph human rendering for CLI/CI logs.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Self::Identical => "runbooks are identical".to_string(),
            Self::PlanMismatch { left, right } => {
                format!(
                    "plan hash mismatch: {left} vs {right} — different plans, jobs not comparable"
                )
            }
            Self::Divergence {
                index,
                id,
                job_hash,
                left,
                right,
            } => format!(
                "first divergent job: #{index} `{id}` (job {job_hash}): artifact {left} vs {right}"
            ),
        }
    }
}

/// Compares two runbooks job-by-job, reporting the first divergent job.
///
/// Commit fields are intentionally *not* compared: re-running the same plan
/// at a different commit should diff clean when the science is unchanged.
#[must_use]
pub fn diff(left: &Runbook, right: &Runbook) -> DiffOutcome {
    if left.plan_hash != right.plan_hash || left.jobs.len() != right.jobs.len() {
        return DiffOutcome::PlanMismatch {
            left: left.plan_hash.clone(),
            right: right.plan_hash.clone(),
        };
    }
    for (index, (a, b)) in left.jobs.iter().zip(&right.jobs).enumerate() {
        if a.artifact_hash != b.artifact_hash {
            return DiffOutcome::Divergence {
                index,
                id: a.id.clone(),
                job_hash: a.job_hash.clone(),
                left: a.artifact_hash.clone(),
                right: b.artifact_hash.clone(),
            };
        }
    }
    DiffOutcome::Identical
}

/// The figure array `reproduce --json` and `merge --figures` write: each
/// job's embedded report, in plan order, as one canonical array.
///
/// # Errors
///
/// Fails when a job's artifact is missing or embeds no report.
pub fn figures_json(plan: &SweepPlan, artifacts: &[JobArtifact]) -> Result<String, String> {
    let by_hash: HashMap<&str, &JobArtifact> =
        artifacts.iter().map(|a| (a.job_hash.as_str(), a)).collect();
    let reports = plan
        .jobs
        .iter()
        .map(|job| {
            let report = by_hash
                .get(job.hash.as_str())
                .ok_or_else(|| format!("plan job `{}` ({}) has no artifact", job.id, job.hash))?
                .report()?;
            Ok(report.to_canonical())
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(CanonicalJson::Array(reports).serialize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrate::plan::Shard;
    use crate::orchestrate::runner::run_shard;

    fn tiny_plan() -> SweepPlan {
        SweepPlan::figure_list("fig8,lemma51", 1, 2012).unwrap()
    }

    #[test]
    fn assemble_serialize_parse_roundtrip() {
        let plan = tiny_plan();
        let artifacts = run_shard(&plan, Shard::full(), 1);
        let runbook = Runbook::assemble(&plan, &artifacts, "abc123").unwrap();
        assert_eq!(runbook.jobs.len(), 2);
        let parsed = Runbook::parse(&runbook.serialize()).unwrap();
        assert_eq!(parsed, runbook);
        assert_eq!(parsed.hash(), runbook.hash());
    }

    #[test]
    fn assemble_rejects_missing_and_foreign_artifacts() {
        let plan = tiny_plan();
        let artifacts = run_shard(&plan, Shard::parse("1/2").unwrap(), 1);
        let err = Runbook::assemble(&plan, &artifacts, "c").unwrap_err();
        assert!(err.contains("has no artifact"), "{err}");

        let other = SweepPlan::figure_list("fig9", 1, 2012).unwrap();
        let foreign = run_shard(&other, Shard::full(), 1);
        let err = Runbook::assemble(&plan, &foreign, "c").unwrap_err();
        assert!(err.contains("does not belong"), "{err}");
    }

    #[test]
    fn diff_reports_first_divergent_job() {
        let plan = tiny_plan();
        let artifacts = run_shard(&plan, Shard::full(), 1);
        let left = Runbook::assemble(&plan, &artifacts, "a").unwrap();
        let mut right = left.clone();
        right.commit = "b".to_string();
        assert!(diff(&left, &right).is_identical(), "commit is not compared");

        right.jobs[1].artifact_hash = "0000000000000000".to_string();
        match diff(&left, &right) {
            DiffOutcome::Divergence { index, id, .. } => {
                assert_eq!(index, 1);
                assert_eq!(id, "lemma51");
            }
            other => panic!("expected divergence, got {other:?}"),
        }

        let other_plan = SweepPlan::figure_list("fig9", 1, 2012).unwrap();
        let other_artifacts = run_shard(&other_plan, Shard::full(), 1);
        let other = Runbook::assemble(&other_plan, &other_artifacts, "a").unwrap();
        assert!(matches!(
            diff(&left, &other),
            DiffOutcome::PlanMismatch { .. }
        ));
        assert!(diff(&left, &left).describe().contains("identical"));
    }

    #[test]
    fn sharded_merge_matches_serial_figures_json() {
        let plan = tiny_plan();
        let serial = run_shard(&plan, Shard::full(), 1);
        let mut pooled = run_shard(&plan, Shard::parse("1/2").unwrap(), 1);
        pooled.extend(run_shard(&plan, Shard::parse("2/2").unwrap(), 2));
        let from_serial = figures_json(&plan, &serial).unwrap();
        let from_shards = figures_json(&plan, &pooled).unwrap();
        assert_eq!(from_serial, from_shards);
        let direct = CanonicalJson::Array(vec![
            crate::experiments::fig8().to_canonical(),
            crate::experiments::lemma51(2012, 1).to_canonical(),
        ]);
        assert_eq!(from_serial, direct.serialize());
    }
}
