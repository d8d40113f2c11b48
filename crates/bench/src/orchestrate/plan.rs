//! Sweep plans: deterministic expansion of figure sets into addressable
//! jobs.
//!
//! A [`SweepPlan`] is the unit of orchestration: a named, seeded list of
//! [`Job`]s, each carrying a canonical sorted-key spec and a content hash
//! over those spec bytes ([`Job::hash`]).  Two processes that build the same
//! plan from the same arguments get the same jobs in the same order with the
//! same hashes — which is what makes jobs addressable across CI shards: a
//! shard claims a contiguous [`Shard::range`] of the job list, and the merge
//! step re-assembles artifacts by job hash without trusting filesystem
//! order, clocks, or hostnames.
//!
//! A plan names every registered figure ([`crate::experiments::FIGURES`])
//! or any comma-separated subset; this is the only way a figure runs,
//! `reproduce all` included.

use std::ops::Range;

use crate::experiments::{find_figure, known_figure_ids, FIGURES};

use super::canonical::{content_hash, CanonicalJson};

/// One addressable unit of work: one registered figure at
/// `(locations, seed)`.  The report it emits is byte-identical to the
/// figure's slice of `reproduce all`.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// The figure's registry id, unique within its plan.
    pub id: String,
    /// Locations the figure averages over.
    pub locations: u64,
    /// The figure's base seed.
    pub seed: u64,
    /// The canonical sorted-key spec the hash covers.
    pub spec: CanonicalJson,
    /// Content hash of the canonical spec bytes (16 hex digits).
    pub hash: String,
}

impl Job {
    fn figure(figure: &'static str, locations: u64, seed: u64) -> Self {
        let spec = CanonicalJson::object(vec![
            ("figure", CanonicalJson::str(figure)),
            ("kind", CanonicalJson::str("figure")),
            ("locations", CanonicalJson::Int(locations as i64)),
            ("seed", CanonicalJson::Int(seed as i64)),
        ]);
        let hash = content_hash(spec.serialize().as_bytes());
        Job {
            id: figure.to_string(),
            locations,
            seed,
            spec,
            hash,
        }
    }
}

/// A deterministic, hashed list of jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// Plan name (`all` or a figure list).
    pub name: String,
    /// Locations parameter handed to every figure job.
    pub locations: u64,
    /// Base seed handed to every job.
    pub base_seed: u64,
    /// The expanded jobs, in execution (and merge) order.
    pub jobs: Vec<Job>,
}

/// The most locations a plan may name.  A figure runs its sessions at
/// every location and keeps their results, so the count sizes what a plan
/// allocates: past this bound a plan would run for days before its first
/// report, and near `2³²` it aborts on allocation.  The paper's figures use
/// 5; the largest census in the test suite uses 400.
pub const MAX_LOCATIONS: u64 = 10_000;

/// Every figure averages over its locations, so a plan needs at least one
/// (zero would fill the tables with NaN), and at most [`MAX_LOCATIONS`].
fn check_locations(locations: u64) -> Result<(), String> {
    if locations == 0 {
        return Err("a plan needs at least one location".into());
    }
    if locations > MAX_LOCATIONS {
        return Err(format!(
            "{locations} locations: a plan names at most {MAX_LOCATIONS}"
        ));
    }
    Ok(())
}

impl SweepPlan {
    /// The `all` plan: every registered figure, in registry order.
    ///
    /// # Errors
    ///
    /// Zero locations, or more than [`MAX_LOCATIONS`].
    pub fn all(locations: u64, base_seed: u64) -> Result<Self, String> {
        check_locations(locations)?;
        Ok(Self {
            name: "all".into(),
            locations,
            base_seed,
            jobs: FIGURES
                .iter()
                .map(|f| Job::figure(f.id, locations, base_seed))
                .collect(),
        })
    }

    /// A plan over an explicit figure subset (ids or aliases).
    ///
    /// # Errors
    ///
    /// Unknown or repeated figures, an empty list, and zero locations or
    /// more than [`MAX_LOCATIONS`].
    pub fn figure_list(list: &str, locations: u64, base_seed: u64) -> Result<Self, String> {
        check_locations(locations)?;
        let mut jobs = Vec::new();
        let mut ids = Vec::new();
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let figure = find_figure(name).ok_or_else(|| {
                format!(
                    "unknown figure `{name}`; known figures: {}",
                    known_figure_ids().join(", ")
                )
            })?;
            if ids.contains(&figure.id) {
                return Err(format!("figure `{}` listed twice", figure.id));
            }
            ids.push(figure.id);
            jobs.push(Job::figure(figure.id, locations, base_seed));
        }
        if jobs.is_empty() {
            return Err("empty figure list".into());
        }
        Ok(Self {
            name: ids.join(","),
            locations,
            base_seed,
            jobs,
        })
    }

    /// Builds a plan from a CLI `--plan` value: `all` or a comma-separated
    /// figure list.
    ///
    /// # Errors
    ///
    /// The errors of [`SweepPlan::all`] and [`SweepPlan::figure_list`].
    pub fn from_name(name: &str, locations: u64, base_seed: u64) -> Result<Self, String> {
        match name {
            "all" => Self::all(locations, base_seed),
            list => Self::figure_list(list, locations, base_seed),
        }
    }

    /// The plan hash: a content hash over the plan's identity — name, seed,
    /// locations, and the ordered job hashes.  Any spec drift in any job
    /// changes it.
    #[must_use]
    pub fn plan_hash(&self) -> String {
        let identity = CanonicalJson::object(vec![
            ("base_seed", CanonicalJson::Int(self.base_seed as i64)),
            (
                "job_hashes",
                CanonicalJson::Array(
                    self.jobs
                        .iter()
                        .map(|j| CanonicalJson::str(&j.hash))
                        .collect(),
                ),
            ),
            ("locations", CanonicalJson::Int(self.locations as i64)),
            ("name", CanonicalJson::str(&self.name)),
        ]);
        content_hash(identity.serialize().as_bytes())
    }

    /// The plan as a canonical JSON document (what `reproduce plan` prints).
    #[must_use]
    pub fn to_canonical(&self) -> CanonicalJson {
        CanonicalJson::object(vec![
            ("base_seed", CanonicalJson::Int(self.base_seed as i64)),
            (
                "jobs",
                CanonicalJson::Array(
                    self.jobs
                        .iter()
                        .map(|job| {
                            CanonicalJson::object(vec![
                                ("hash", CanonicalJson::str(&job.hash)),
                                ("id", CanonicalJson::str(&job.id)),
                                ("spec", job.spec.clone()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("locations", CanonicalJson::Int(self.locations as i64)),
            ("name", CanonicalJson::str(&self.name)),
            ("plan_hash", CanonicalJson::str(&self.plan_hash())),
        ])
    }
}

/// A `1`-based contiguous shard assignment, parsed from `--shard i/n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Shard index, `1 ..= count`.
    pub index: usize,
    /// Total shard count.
    pub count: usize,
}

impl Shard {
    /// The whole job list as one shard.
    #[must_use]
    pub fn full() -> Self {
        Shard { index: 1, count: 1 }
    }

    /// Parses `i/n` with `1 <= i <= n`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (i, n) = text
            .split_once('/')
            .ok_or_else(|| format!("bad shard `{text}` (expected i/n)"))?;
        let index: usize = i.parse().map_err(|_| format!("bad shard index `{i}`"))?;
        let count: usize = n.parse().map_err(|_| format!("bad shard count `{n}`"))?;
        if count == 0 || index == 0 || index > count {
            return Err(format!("shard `{text}` out of range (need 1 <= i <= n)"));
        }
        Ok(Shard { index, count })
    }

    /// The contiguous job-index range this shard owns out of `len` jobs.
    /// The ranges of shards `1/n ..= n/n` partition `0..len` exactly.
    #[must_use]
    pub fn range(self, len: usize) -> Range<usize> {
        ((self.index - 1) * len / self.count)..(self.index * len / self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_plan_covers_the_registry_in_order() {
        let plan = SweepPlan::all(2, 2012).unwrap();
        assert_eq!(plan.jobs.len(), FIGURES.len());
        let ids: Vec<&str> = plan.jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids, known_figure_ids());
        // Hashes are 16-hex and pairwise distinct.
        let mut hashes: Vec<&str> = plan.jobs.iter().map(|j| j.hash.as_str()).collect();
        assert!(hashes.iter().all(|h| h.len() == 16));
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), FIGURES.len());
    }

    #[test]
    fn plan_and_job_hashes_depend_on_every_spec_field() {
        let base = SweepPlan::all(2, 2012).unwrap();
        for (other, what) in [
            (SweepPlan::all(3, 2012).unwrap(), "locations"),
            (SweepPlan::all(2, 2013).unwrap(), "seed"),
        ] {
            assert_ne!(base.plan_hash(), other.plan_hash(), "{what}");
            for (a, b) in base.jobs.iter().zip(&other.jobs) {
                assert_ne!(a.hash, b.hash, "{what} ignored by job {}", a.id);
            }
        }
    }

    #[test]
    fn figure_list_accepts_aliases_and_rejects_unknowns() {
        let plan = SweepPlan::figure_list("table1-2, fig7,fading", 1, 7).unwrap();
        let ids: Vec<&str> = plan.jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids, vec!["table12", "fig7", "fig_fading"]);
        let err = SweepPlan::figure_list("fig7,fig99", 1, 7).unwrap_err();
        assert!(err.contains("unknown figure `fig99`"));
        assert!(err.contains("fig11_large"), "error lists known figures");
        assert!(SweepPlan::figure_list("fig7,fig7", 1, 7).is_err());
        assert!(SweepPlan::figure_list(" ,", 1, 7).is_err());
    }

    #[test]
    fn shard_ranges_partition_the_job_list_for_any_count() {
        for len in 0..40usize {
            for count in 1..9usize {
                let mut covered = Vec::new();
                for index in 1..=count {
                    let range = Shard { index, count }.range(len);
                    covered.extend(range);
                }
                let expected: Vec<usize> = (0..len).collect();
                assert_eq!(covered, expected, "len {len} count {count}");
            }
        }
    }

    #[test]
    fn shard_parse_validates() {
        assert_eq!(Shard::parse("2/3").unwrap(), Shard { index: 2, count: 3 });
        assert_eq!(Shard::parse("1/1").unwrap(), Shard::full());
        for bad in ["0/3", "4/3", "3", "a/b", "1/0", ""] {
            assert!(Shard::parse(bad).is_err(), "`{bad}` parsed");
        }
    }
}
