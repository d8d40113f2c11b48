//! Sweep plans: deterministic expansion of experiment grids into
//! addressable jobs.
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
//! Two plan families exist today:
//!
//! * **figure plans** — every registered figure
//!   ([`crate::experiments::FIGURES`]) or any comma-separated subset; this
//!   is the only way a figure runs, `reproduce all` included.
//! * **uplink grids** — generic `K × location × trace-seed × dynamics`
//!   sweeps over the paper-uplink scenario, one job per cell, for sweeps no
//!   hand-written figure covers.

use std::ops::Range;

use backscatter_sim::dynamics::CorrelatedFading;
use backscatter_sim::scenario::ScenarioBuilder;

use crate::experiments::{find_figure, known_figure_ids, FIGURES};

use super::canonical::{content_hash, CanonicalJson};

/// The per-slot dynamics a grid cell applies to its scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GridDynamics {
    /// Frozen environment (the paper's setting).
    Static,
    /// Temporally correlated multipath fading
    /// ([`backscatter_sim::dynamics::CorrelatedFading`]).
    Fading {
        /// Doppler in radians per slot.
        doppler: f64,
        /// Line-of-sight fraction in `[0, 1]`.
        los: f64,
    },
}

impl GridDynamics {
    /// Parses a CLI dynamics spec: `static` or `fading:<doppler>:<los>`.
    ///
    /// # Errors
    ///
    /// Malformed text, and fading parameters [`CorrelatedFading::new`]
    /// rejects.
    pub fn parse(text: &str) -> Result<Self, String> {
        if text == "static" || text == "none" {
            return Ok(GridDynamics::Static);
        }
        if let Some(rest) = text.strip_prefix("fading:") {
            let mut parts = rest.split(':');
            let doppler = parts
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("bad doppler in dynamics `{text}`"))?;
            let los = parts
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("bad line-of-sight in dynamics `{text}`"))?;
            if parts.next().is_some() {
                return Err(format!("trailing fields in dynamics `{text}`"));
            }
            let dynamics = GridDynamics::Fading { doppler, los };
            dynamics.fading()?;
            return Ok(dynamics);
        }
        Err(format!(
            "unknown dynamics `{text}` (expected `static` or `fading:<doppler>:<los>`)"
        ))
    }

    /// The fading a grid cell attaches (`None` for a static cell), built
    /// through [`CorrelatedFading::new`], which owns the parameter rule.
    ///
    /// # Errors
    ///
    /// A negative or non-finite doppler, or a line-of-sight fraction outside
    /// `[0, 1]`.
    pub(crate) fn fading(self) -> Result<Option<CorrelatedFading>, String> {
        match self {
            GridDynamics::Static => Ok(None),
            GridDynamics::Fading { doppler, los } => CorrelatedFading::new(doppler, 8, los)
                .map(Some)
                .map_err(|e| format!("bad dynamics `fading:{doppler}:{los}`: {e}")),
        }
    }

    /// A short label for job ids.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            GridDynamics::Static => "static".into(),
            GridDynamics::Fading { doppler, los } => format!("fading-{doppler}-{los}"),
        }
    }

    fn to_canonical(self) -> CanonicalJson {
        match self {
            GridDynamics::Static => {
                CanonicalJson::object(vec![("kind", CanonicalJson::str("static"))])
            }
            GridDynamics::Fading { doppler, los } => CanonicalJson::object(vec![
                ("doppler", CanonicalJson::Float(doppler)),
                ("kind", CanonicalJson::str("fading")),
                ("los", CanonicalJson::Float(los)),
            ]),
        }
    }
}

/// What a job executes.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// One registered figure at `(locations, seed)`; the report it emits is
    /// byte-identical to the figure's slice of `reproduce all`.
    Figure {
        /// Canonical figure id from the registry.
        figure: &'static str,
        /// Locations the figure averages over.
        locations: u64,
        /// The figure's base seed.
        seed: u64,
    },
    /// One generic uplink-comparison cell: a `[buzz, tdma]` panel over a
    /// paper-uplink scenario at one `(k, location, trace, dynamics)` point.
    GridCell {
        /// Population size.
        k: usize,
        /// Location index (distinct scenario draw).
        location: u64,
        /// Noise-trace seed within the location.
        trace: u64,
        /// Per-slot dynamics applied to the cell's scenario.
        dynamics: GridDynamics,
        /// The plan's base seed (scenario seeds derive from it).
        seed: u64,
    },
}

/// One addressable unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Unique id within the plan (a figure id, or a `grid/...` path).
    pub id: String,
    /// What to execute.
    pub kind: JobKind,
    /// The canonical sorted-key spec the hash covers.
    pub spec: CanonicalJson,
    /// Content hash of the canonical spec bytes (16 hex digits).
    pub hash: String,
}

impl Job {
    /// True when this job runs a registered figure (vs a generic grid cell).
    #[must_use]
    pub fn is_figure(&self) -> bool {
        matches!(self.kind, JobKind::Figure { .. })
    }

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
            kind: JobKind::Figure {
                figure,
                locations,
                seed,
            },
            spec,
            hash,
        }
    }

    fn grid_cell(k: usize, location: u64, trace: u64, dynamics: GridDynamics, seed: u64) -> Self {
        let spec = CanonicalJson::object(vec![
            ("dynamics", dynamics.to_canonical()),
            ("k", CanonicalJson::Int(k as i64)),
            ("kind", CanonicalJson::str("grid_cell")),
            ("location", CanonicalJson::Int(location as i64)),
            ("seed", CanonicalJson::Int(seed as i64)),
            ("trace", CanonicalJson::Int(trace as i64)),
        ]);
        let hash = content_hash(spec.serialize().as_bytes());
        Job {
            id: format!("grid/k{k}/loc{location}/trace{trace}/{}", dynamics.label()),
            kind: JobKind::GridCell {
                k,
                location,
                trace,
                dynamics,
                seed,
            },
            spec,
            hash,
        }
    }
}

/// Options for the generic `grid` plan, normally parsed from CLI flags.
#[derive(Debug, Clone)]
pub struct GridOptions {
    /// Population sizes to sweep.
    pub ks: Vec<usize>,
    /// Noise traces per location.
    pub traces: u64,
    /// Dynamics variants; every `(k, location, trace)` point runs each.
    pub dynamics: Vec<GridDynamics>,
}

impl Default for GridOptions {
    fn default() -> Self {
        Self {
            ks: vec![4, 8, 16],
            traces: 1,
            dynamics: vec![GridDynamics::Static],
        }
    }
}

/// A deterministic, hashed list of jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// Plan name (`all`, a figure list, or `grid`).
    pub name: String,
    /// Locations parameter handed to every figure job.
    pub locations: u64,
    /// Base seed handed to every job.
    pub base_seed: u64,
    /// The expanded jobs, in execution (and merge) order.
    pub jobs: Vec<Job>,
}

/// The most locations a plan may name.  A figure runs its sessions at
/// every location and keeps their results, and a grid plan expands one job
/// per location, so the count sizes what a plan allocates: past this bound
/// a plan would run for days before its first report, and near `2³²` it
/// aborts on allocation.  The paper's figures use 5; the largest census in
/// the test suite uses 400.
pub const MAX_LOCATIONS: u64 = 10_000;

/// The most jobs a grid plan may expand to (`K × location × trace ×
/// dynamics`): each job is a spec and a hash in memory before any runs.
pub const MAX_GRID_JOBS: u64 = 100_000;

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

    /// A generic `K × location × trace × dynamics` uplink grid.
    ///
    /// # Errors
    ///
    /// An empty K or dynamics list, zero locations or traces, more than
    /// [`MAX_LOCATIONS`] locations or [`MAX_GRID_JOBS`] jobs, a K the
    /// paper-uplink scenario rejects, and fading parameters
    /// [`CorrelatedFading::new`] rejects.
    pub fn uplink_grid(
        options: &GridOptions,
        locations: u64,
        base_seed: u64,
    ) -> Result<Self, String> {
        if options.ks.is_empty() || options.dynamics.is_empty() {
            return Err("grid plan needs at least one K and one dynamics".into());
        }
        check_locations(locations)?;
        if options.traces == 0 {
            return Err("grid plan needs at least one trace".into());
        }
        let jobs = [
            options.ks.len() as u64,
            options.traces,
            options.dynamics.len() as u64,
        ]
        .into_iter()
        .try_fold(locations, u64::checked_mul);
        if jobs.is_none_or(|jobs| jobs > MAX_GRID_JOBS) {
            return Err(format!(
                "grid plan expands to more than {MAX_GRID_JOBS} jobs"
            ));
        }
        for &k in &options.ks {
            ScenarioBuilder::paper_uplink(k, base_seed)
                .config()
                .validate()
                .map_err(|e| format!("bad grid K = {k}: {e}"))?;
        }
        for &dynamics in &options.dynamics {
            dynamics.fading()?;
        }
        let mut jobs = Vec::new();
        for &k in &options.ks {
            for location in 0..locations {
                for trace in 0..options.traces {
                    for &dynamics in &options.dynamics {
                        jobs.push(Job::grid_cell(k, location, trace, dynamics, base_seed));
                    }
                }
            }
        }
        Ok(Self {
            name: "grid".into(),
            locations,
            base_seed,
            jobs,
        })
    }

    /// Builds a plan from a CLI `--plan` value: `all`, `grid`, or a
    /// comma-separated figure list.
    ///
    /// # Errors
    ///
    /// The errors of [`SweepPlan::all`], [`SweepPlan::uplink_grid`] and
    /// [`SweepPlan::figure_list`].
    pub fn from_name(
        name: &str,
        locations: u64,
        base_seed: u64,
        grid: &GridOptions,
    ) -> Result<Self, String> {
        match name {
            "all" => Self::all(locations, base_seed),
            "grid" => Self::uplink_grid(grid, locations, base_seed),
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
    fn grid_expands_the_full_cross_product_deterministically() {
        let options = GridOptions {
            ks: vec![4, 8],
            traces: 2,
            dynamics: vec![
                GridDynamics::Static,
                GridDynamics::Fading {
                    doppler: 0.05,
                    los: 0.5,
                },
            ],
        };
        let plan = SweepPlan::uplink_grid(&options, 3, 99).unwrap();
        assert_eq!(plan.jobs.len(), 2 * 3 * 2 * 2);
        let again = SweepPlan::uplink_grid(&options, 3, 99).unwrap();
        assert_eq!(plan, again);
        assert_eq!(plan.plan_hash(), again.plan_hash());
        // Every job id is unique and addressable.
        let mut ids: Vec<&str> = plan.jobs.iter().map(|j| j.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), plan.jobs.len());
    }

    #[test]
    fn dynamics_parse_roundtrips() {
        assert_eq!(GridDynamics::parse("static").unwrap(), GridDynamics::Static);
        assert_eq!(
            GridDynamics::parse("fading:0.08:0.35").unwrap(),
            GridDynamics::Fading {
                doppler: 0.08,
                los: 0.35
            }
        );
        assert!(GridDynamics::parse("fading:x:1").is_err());
        assert!(GridDynamics::parse("fading:0.1").is_err());
        assert!(GridDynamics::parse("mobility").is_err());
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
