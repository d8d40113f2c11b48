//! The three workloads: what they run, how they are timed, traced and
//! checked.
//!
//! The benchmark reaches the program only through its session-level public
//! surface: scenario presets, `BuzzConfig::default()` (with `periodic_mode`
//! and the transfer's target collision size as the only overrides), the two
//! phase drivers and the scorer, the `Protocol` schemes, and `run_fleet`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use buzz_suite::fleet::{run_fleet, FleetConfig, FleetOutcome};
use buzz_suite::protocol::identification::{DiscoveredTag, IdentificationOutcome};
use buzz_suite::protocol::transfer::{score_against_truth, TransferOutcome};
use buzz_suite::protocol::{
    BuzzConfig, BuzzOutcome, BuzzProtocol, DataTransfer, Identifier, RecoveryConfig,
    ResilientBuzzProtocol,
};
use buzz_suite::sim::scenario::Scenario;
use buzz_suite::{
    FsaIdentification, Protocol, ScenarioBuilder, SessionOutcome, SessionResult, TdmaProtocol,
};

use crate::catalogue;
use crate::reference::{HostTime, Stopwatch, NOMINAL_MS};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::{Span, Trace};

/// How many times the set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 7;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full Buzz pipeline at small K, against Gen-2 (FSA + TDMA).
    PaperMix,
    /// Periodic-mode Buzz at K = 100, 150 and 200, against TDMA.
    LargeK,
    /// A 200-reader fleet of K = 16 sessions: Buzz, `buzz+r` and TDMA.
    FleetK16,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::PaperMix, Workload::LargeK, Workload::FleetK16];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::LargeK => "large_k",
            Workload::FleetK16 => "fleet_k16",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes.  [`Scale::full`] is what the command runs; the smaller
/// scales exist for the benchmark's own tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Tag count of each session of one pass (single-reader workloads), or
    /// the fleet's cell size.
    pub ks: Vec<usize>,
    /// Fleet readers.
    pub readers: usize,
    /// Fleet tag population.
    pub population: usize,
    /// Fleet epochs.
    pub epochs: usize,
}

impl Scale {
    /// The sizes the benchmark measures.
    #[must_use]
    pub fn full(workload: Workload) -> Self {
        match workload {
            Workload::PaperMix => Self::single(&[
                (4, catalogue::PER_K),
                (8, catalogue::PER_K),
                (16, catalogue::PER_K),
            ]),
            Workload::LargeK => Self::single(&[(100, 1), (150, 1), (200, 1)]),
            Workload::FleetK16 => Self::fleet(200, 10_000, 2),
        }
    }

    /// Sizes small enough for a test build.
    #[must_use]
    pub fn small(workload: Workload) -> Self {
        match workload {
            Workload::PaperMix => Self::single(&[(4, 2), (8, 1)]),
            Workload::LargeK => Self::single(&[(24, 1), (32, 1)]),
            Workload::FleetK16 => Self::fleet(4, 96, 2),
        }
    }

    /// `(k, sessions)` pairs, interleaved by K.
    fn single(counts: &[(usize, usize)]) -> Self {
        let most = counts.iter().map(|c| c.1).max().unwrap_or(0);
        let ks = (0..most)
            .flat_map(|j| counts.iter().filter(move |c| j < c.1).map(|c| c.0))
            .collect();
        Self {
            ks,
            readers: 0,
            population: 0,
            epochs: 0,
        }
    }

    fn fleet(readers: usize, population: usize, epochs: usize) -> Self {
        Self {
            ks: vec![16],
            readers,
            population,
            epochs,
        }
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// The workload seed; every input is derived from it.
    pub seed: u64,
    /// Measurement time: passes repeat until it is spent (at least one).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Worker threads for the fleet's timed runs.
    pub threads: usize,
}

/// The outcome of one run: the report and, for a traced run, the spans.
#[derive(Debug)]
pub struct RunOutput {
    /// Metrics, checks and notes.
    pub report: Report,
    /// The spans of a traced run.
    pub trace: Option<Trace>,
}

/// SplitMix64 finalizer over `a` and `b`: independent streams from one seed.
#[must_use]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A session's typical host time: the nearest-rank lower quartile of its
/// times across passes.  On a shared host, other tenants slow single
/// sessions by up to 1.8× in bursts of a few seconds and never speed one
/// up; the lower quartile drops the repeats they slowed without resting on
/// the single luckiest one.
fn typical_ms(samples: &[f64]) -> f64 {
    percentile(samples, 25.0).map_or(0.0, |p| p.value)
}

/// [`typical_ms`] of every session, from `host[pass][session]`.
fn typical_per_session(host: &[Vec<f64>]) -> Vec<f64> {
    let sessions = host.first().map_or(0, Vec::len);
    (0..sessions)
        .map(|i| typical_ms(&host.iter().map(|pass| pass[i]).collect::<Vec<_>>()))
        .collect()
}

/// The measurement time: passes repeat while one more, as long as the
/// longest so far, still ends within it.  The first pass always runs.
struct Budget {
    start: Instant,
    seconds: f64,
    longest: f64,
}

impl Budget {
    fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            longest: 0.0,
        }
    }

    /// Runs one pass.
    fn pass<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.longest = self.longest.max(start.elapsed().as_secs_f64());
        result
    }

    /// Whether another pass fits.
    fn another(&self) -> bool {
        self.elapsed_s() + self.longest <= self.seconds
    }

    fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs one workload: set-up, then timed or traced passes until
/// `options.seconds` are spent, then the checks.
///
/// `process_start` is when the process began, so that the first set-up
/// includes everything before the first timed session.
#[must_use]
pub fn run(options: &RunOptions, process_start: Instant) -> RunOutput {
    let mut report = Report::default();
    let trace = match options.workload {
        Workload::PaperMix | Workload::LargeK => {
            match measure_setup(process_start, || Single::new(options)) {
                Ok((bench, setup_s)) => {
                    report.set("setup_s", setup_s);
                    if options.trace {
                        Some(bench.traced(options, &mut report))
                    } else {
                        bench.timed(options, &mut report);
                        None
                    }
                }
                Err(e) => {
                    report.fail("setup", e);
                    None
                }
            }
        }
        Workload::FleetK16 => match measure_setup(process_start, || Fleet::new(options)) {
            Ok((bench, setup_s)) => {
                report.set("setup_s", setup_s);
                if options.trace {
                    Some(bench.traced(options, &mut report))
                } else {
                    bench.timed(options, &mut report);
                    None
                }
            }
            Err(e) => {
                report.fail("setup", e);
                None
            }
        },
    };
    if !options.trace {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    RunOutput { report, trace }
}

/// Repeats the set-up and returns the last one with the median duration in
/// seconds, scaled by the host-speed reference.  The first repetition is
/// timed from process start.
fn measure_setup<T>(
    process_start: Instant,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut watch = Stopwatch::new();
    let mut durations = Vec::with_capacity(SETUP_REPEATS);
    let mut start = process_start;
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (bench, t) = watch.time_from(start, &mut setup);
        last = Some(bench?);
        durations.push(t.ms() / 1e3);
        start = Instant::now();
    }
    let bench = last.ok_or("set-up never ran")?;
    Ok((bench, median(&durations)))
}

/// Peak resident set of this process, MB (`VmHWM`); 0 where unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Simulated totals pooled over sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Air {
    offered: usize,
    delivered: usize,
    air_ms: f64,
    decoded: usize,
    data_slots: usize,
    energy_j: f64,
    exact: usize,
    sessions: usize,
}

impl Air {
    fn msgs_per_s(&self) -> f64 {
        self.delivered as f64 / (self.air_ms / 1e3)
    }

    /// Records the simulated end-to-end metrics, with `baseline_msgs_per_s`
    /// as the reference of `gain_vs_baseline`.
    fn report(&self, baseline_msgs_per_s: f64, report: &mut Report) {
        report.set("sim_msgs_per_s", self.msgs_per_s());
        report.set("gain_vs_baseline", self.msgs_per_s() / baseline_msgs_per_s);
        report.set(
            "delivered_ratio",
            self.delivered as f64 / self.offered as f64,
        );
        report.set(
            "bits_per_symbol",
            self.decoded as f64 / self.data_slots as f64,
        );
        report.set(
            "energy_uj_per_msg",
            self.energy_j * 1e6 / self.delivered as f64,
        );
        report.set(
            "ident_exact_ratio",
            self.exact as f64 / self.sessions as f64,
        );
    }
}

/// Records `session_ms_p50` and `session_ms_p95` over `samples` of session
/// host time (described as `what`), noting the sample count behind each.
fn report_percentiles(samples: &[f64], what: &str, report: &mut Report) {
    for (name, p) in [("session_ms_p50", 50.0), ("session_ms_p95", 95.0)] {
        if let Some(pct) = percentile(samples, p) {
            report.set(name, pct.value);
            report.notes.push(format!(
                "{name}: nearest rank over {} {what}, {} beyond{}",
                pct.samples,
                pct.beyond,
                if pct.supported() {
                    ""
                } else {
                    " (fewer than 10 beyond: the slowest sessions, not a tail)"
                }
            ));
        }
    }
}

/// Notes the reference factors of a timed run and the rate before scaling.
fn note_reference(factors: &[f64], unscaled_per_s: f64, report: &mut Report) {
    let factor = median(factors);
    report.notes.push(format!(
        "host times scaled by a median factor of {factor:.3} (reference slice {:.3} ms, nominal {} ms); unscaled {unscaled_per_s:.4} sessions/s",
        NOMINAL_MS / factor,
        NOMINAL_MS
    ));
}

fn check_trace(trace: &Trace, report: &mut Report) {
    let overfull = trace.overfull_spans();
    if overfull > 0 {
        report.fail(
            "trace",
            format!("{overfull} spans are shorter than their children"),
        );
    }
}

// ---------------------------------------------------------------------------
// Single-reader workloads: paper_mix and large_k.

/// One single-reader session's inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spec {
    k: usize,
    scenario_seed: u64,
    noise_seed: u64,
}

impl Spec {
    fn build(&self) -> Result<Scenario, String> {
        ScenarioBuilder::paper_uplink(self.k, self.scenario_seed)
            .build()
            .map_err(text)
    }
}

/// One untraced session: its outcome (if it ran) and host time.
type Timed = (Option<BuzzOutcome>, HostTime);

/// What the traced decomposition of one session returns.
type Layers = (
    Option<IdentificationOutcome>,
    TransferOutcome,
    (usize, usize),
);

struct Single {
    specs: Vec<Spec>,
    config: BuzzConfig,
    buzz: BuzzProtocol,
    /// Run back to back on each scenario; the last one delivers the data.
    baseline: Vec<Box<dyn Protocol>>,
}

impl Single {
    fn new(options: &RunOptions) -> Result<Self, String> {
        let ks = &options.scale.ks;
        let specs = if options.workload == Workload::PaperMix {
            // The j-th session at K takes the j-th location the seed drew
            // from the screened catalogue.
            let mut draws = Vec::new();
            for &k in &catalogue::KS {
                let count = ks.iter().filter(|&&x| x == k).count();
                draws.push((k, catalogue::draw(k, count, options.seed)?.into_iter()));
            }
            ks.iter()
                .map(|&k| {
                    let (_, drawn) = draws
                        .iter_mut()
                        .find(|d| d.0 == k)
                        .ok_or_else(|| format!("K = {k} is not in the catalogue"))?;
                    let (scenario_seed, noise_seed) =
                        drawn.next().ok_or("catalogue draw ran short")?;
                    Ok(Spec {
                        k,
                        scenario_seed,
                        noise_seed,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?
        } else {
            // The j-th session at K is candidate j at K: fixed locations,
            // in an order the seed shuffles.
            let mut specs: Vec<Spec> = ks
                .iter()
                .enumerate()
                .map(|(i, &k)| {
                    let j = ks[..i].iter().filter(|&&x| x == k).count();
                    let (scenario_seed, noise_seed) = catalogue::candidate(k, j as u64);
                    Spec {
                        k,
                        scenario_seed,
                        noise_seed,
                    }
                })
                .collect();
            catalogue::shuffle(&mut specs, options.seed, catalogue::LARGE_K_STREAM);
            specs
        };
        let mut config = BuzzConfig::default();
        let tdma = TdmaProtocol::paper_default().map_err(text)?;
        let baseline: Vec<Box<dyn Protocol>> = match options.workload {
            Workload::PaperMix => vec![Box::new(FsaIdentification), Box::new(tdma)],
            _ => {
                config.periodic_mode = true;
                config.transfer.target_collision_size = 4.0;
                vec![Box::new(tdma)]
            }
        };
        let buzz = BuzzProtocol::new(config).map_err(text)?;
        // Every input must build.
        for spec in &specs {
            spec.build()?;
        }
        let bench = Self {
            specs,
            config,
            buzz,
            baseline,
        };
        // Warm-up: on `paper_mix` the catalogue's first location at each K,
        // the same for every seed; on `large_k` the smallest (K = 100)
        // session only, since warming up all three would add a second to
        // every set-up.
        let warm_up: Vec<Spec> = if options.workload == Workload::PaperMix {
            catalogue::KS
                .iter()
                .filter(|k| bench.specs.iter().any(|s| s.k == **k))
                .map(|&k| {
                    let (scenario_seed, noise_seed) = catalogue::candidate(k, 0);
                    Spec {
                        k,
                        scenario_seed,
                        noise_seed,
                    }
                })
                .collect()
        } else {
            bench
                .specs
                .iter()
                .min_by_key(|s| s.k)
                .copied()
                .into_iter()
                .collect()
        };
        for spec in &warm_up {
            bench.session(spec)?;
        }
        Ok(bench)
    }

    /// One Buzz session: scenario build plus protocol run.
    fn session(&self, spec: &Spec) -> Result<BuzzOutcome, String> {
        let mut scenario = spec.build()?;
        self.buzz.run(&mut scenario, spec.noise_seed).map_err(text)
    }

    /// One untraced pass over every session.
    fn pass(&self, pass: usize, watch: &mut Stopwatch, report: &mut Report) -> Vec<Timed> {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                report.attempted += 1;
                let (outcome, host) = watch.time(|| self.session(spec));
                match outcome {
                    Ok(o) => (Some(o), host),
                    Err(e) => {
                        report.fail(format!("pass{pass}/buzz/{i}"), e);
                        (None, host)
                    }
                }
            })
            .collect()
    }

    /// The baseline on every scenario; returns its pooled msgs/s.
    fn baseline_pass(&self, mut trace: Option<&mut Trace>, report: &mut Report) -> f64 {
        let (mut delivered, mut air_ms) = (0usize, 0.0f64);
        for (i, spec) in self.specs.iter().enumerate() {
            let mut prior: Vec<SessionOutcome> = Vec::new();
            for protocol in &self.baseline {
                report.attempted += 1;
                let span = trace
                    .as_deref_mut()
                    .map(|t| t.open("baseline", None, i as u64));
                let outcome = spec.build().and_then(|mut scenario| {
                    protocol
                        .run_after(&mut scenario, spec.noise_seed, &prior)
                        .map_err(text)
                });
                if let (Some(t), Some(id)) = (trace.as_deref_mut(), span) {
                    t.close(id);
                }
                match outcome {
                    Ok(o) => prior.push(o),
                    Err(e) => report.fail(format!("baseline/{}/{i}", protocol.name()), e),
                }
            }
            if prior.len() == self.baseline.len() {
                delivered += prior.last().map_or(0, |o| o.delivered_messages);
                air_ms += prior.iter().map(|o| o.wall_time_ms).sum::<f64>();
            }
        }
        delivered as f64 / (air_ms / 1e3)
    }

    fn air(&self, outcomes: &[Timed]) -> Air {
        let mut air = Air::default();
        for (spec, (outcome, _)) in self.specs.iter().zip(outcomes) {
            let Some(o) = outcome else { continue };
            air.sessions += 1;
            air.offered += spec.k;
            air.delivered += o.correct_messages;
            air.air_ms += o.total_time_ms();
            air.decoded += o.transfer.decoded_count();
            air.data_slots += o.transfer.slots_used;
            air.energy_j += o.per_tag_energy_j.iter().sum::<f64>();
            // Periodic sessions know their ids: exact by construction.
            air.exact += usize::from(o.identification.as_ref().is_none_or(|i| i.is_exact()));
        }
        air
    }

    fn timed(&self, options: &RunOptions, report: &mut Report) {
        let mut budget = Budget::new(options.seconds);
        let mut watch = Stopwatch::new();
        // Outcomes of the first pass; later passes must repeat them.
        let first = budget.pass(|| self.pass(0, &mut watch, report));
        // Host times, `host[pass][session]`.
        let mut host: Vec<Vec<HostTime>> = vec![first.iter().map(|s| s.1).collect()];
        while budget.another() {
            let pass = budget.pass(|| self.pass(host.len(), &mut watch, report));
            for (i, (a, b)) in first.iter().zip(&pass).enumerate() {
                if a.0.is_some() && b.0.is_some() && a.0 != b.0 {
                    report.fail(
                        format!("pass{}/buzz/{i}", host.len()),
                        "outcome differs from the first pass of the same seed",
                    );
                }
            }
            host.push(pass.iter().map(|s| s.1).collect());
        }
        report.notes.push(format!(
            "{} passes of {} Buzz sessions in {:.1} s",
            host.len(),
            self.specs.len(),
            budget.elapsed_s()
        ));
        // The rate is over the sum of the sessions' typical times.
        let rate = |ms: fn(&HostTime) -> f64| {
            let times: Vec<Vec<f64>> = host.iter().map(|p| p.iter().map(ms).collect()).collect();
            let typical = typical_per_session(&times);
            let rate = typical.len() as f64 / (typical.iter().sum::<f64>() / 1e3);
            (rate, typical)
        };
        let (sessions_per_s, typical) = rate(HostTime::ms);
        report.set("sessions_per_s", sessions_per_s);
        let factors: Vec<f64> = host.iter().flatten().map(|t| t.factor).collect();
        note_reference(&factors, rate(|t| t.raw_ms).0, report);
        let what = format!(
            "sessions (each the lower quartile of its {} passes)",
            host.len()
        );
        report_percentiles(&typical, &what, report);
        let baseline = self.baseline_pass(None, report);
        self.air(&first).report(baseline, report);
    }

    /// The session decomposed into its layers, each call in its own span
    /// under the session's root span — the steps `BuzzProtocol::run` takes.
    fn decompose(
        &self,
        trace: &mut Trace,
        root: usize,
        session: u64,
        spec: &Spec,
    ) -> Result<Layers, String> {
        let mut scenario = trace.record("scenario.build", Some(root), session, || spec.build())?;
        let mut medium = scenario.medium(spec.noise_seed).map_err(text)?;
        let (identification, discovered) = if self.config.periodic_mode {
            // Periodic networks: ids and channels are known to the reader.
            let discovered = scenario
                .tags_mut()
                .iter_mut()
                .enumerate()
                .map(|(i, tag)| {
                    tag.assign_temporary_id(i as u64);
                    DiscoveredTag {
                        temporary_id: i as u64,
                        channel_estimate: tag.channel.coefficient,
                    }
                })
                .collect();
            (None, discovered)
        } else {
            let identifier = Identifier::new(self.config.identification).map_err(text)?;
            let outcome = trace
                .record("identification", Some(root), session, || {
                    identifier.run(&mut scenario, &mut medium)
                })
                .map_err(text)?;
            let discovered = outcome.discovered.clone();
            (Some(outcome), discovered)
        };
        let driver = DataTransfer::new(self.config.transfer).map_err(text)?;
        let transfer = trace
            .record("transfer", Some(root), session, || {
                driver.run(scenario.tags(), &discovered, &mut medium)
            })
            .map_err(text)?;
        let score = trace.record("score", Some(root), session, || {
            score_against_truth(&transfer, &discovered, scenario.tags())
        });
        Ok((identification, transfer, score))
    }

    /// One traced pass; each session's layers must equal what
    /// `BuzzProtocol::run` returned for it in the `reference` pass.
    fn traced_pass(
        &self,
        trace: &mut Trace,
        pass: usize,
        reference: &[Timed],
        report: &mut Report,
    ) {
        for (i, spec) in self.specs.iter().enumerate() {
            report.attempted += 1;
            let key = format!("traced{pass}/buzz/{i}");
            let session = (pass * self.specs.len() + i) as u64;
            let root = trace.open("session", None, session);
            let result = self.decompose(trace, root, session, spec);
            trace.close(root);
            match (result, &reference[i].0) {
                (Err(e), _) => report.fail(key, e),
                (Ok(_), None) => report.fail(key, "reference session failed"),
                (Ok((identification, transfer, score)), Some(expected)) => {
                    if identification != expected.identification
                        || transfer != expected.transfer
                        || score != (expected.correct_messages, expected.incorrect_messages)
                    {
                        report.fail(key, "traced layers differ from BuzzProtocol::run");
                    }
                }
            }
        }
    }

    fn traced(&self, options: &RunOptions, report: &mut Report) -> Trace {
        let mut budget = Budget::new(options.seconds);
        // The untraced reference: what `BuzzProtocol::run` returns, and how
        // long the sessions take without spans (unscaled, like the spans).
        let reference = budget.pass(|| self.pass(0, &mut Stopwatch::new(), report));
        let untraced_ms: f64 = reference.iter().map(|s| s.1.raw_ms).sum();
        let mut trace = Trace::new();
        let mut passes = 0usize;
        loop {
            passes += 1;
            budget.pass(|| self.traced_pass(&mut trace, passes, &reference, report));
            if !budget.another() {
                break;
            }
        }
        let baseline_from = trace.spans().len();
        self.baseline_pass(Some(&mut trace), report);
        let baseline_ms: f64 = trace.spans()[baseline_from..].iter().map(Span::ms).sum();

        let layers = trace.layers();
        let per_pass = |name: &str| {
            layers
                .iter()
                .find(|l| l.name == name)
                .map_or((0.0, 0.0, 0.0), |l| {
                    let n = passes as f64;
                    (l.calls as f64 / n, l.busy_ms / n, l.self_ms / n)
                })
        };
        let (builds, build_ms, _) = per_pass("scenario.build");
        let (ident_calls, ident_ms, _) = per_pass("identification");
        let (transfer_calls, transfer_ms, _) = per_pass("transfer");
        let (_, session_ms, session_self_ms) = per_pass("session");
        let ident_samples: Vec<f64> = trace
            .spans()
            .iter()
            .filter(|s| s.name == "identification")
            .map(Span::ms)
            .collect();
        let outcomes: Vec<&BuzzOutcome> = reference.iter().filter_map(|s| s.0.as_ref()).collect();
        let idents: Vec<&IdentificationOutcome> = outcomes
            .iter()
            .filter_map(|o| o.identification.as_ref())
            .collect();
        let transfer_slots: usize = outcomes.iter().map(|o| o.transfer.slots_used).sum();

        report.set("scenario.builds", builds);
        report.set("scenario.build_ms", build_ms);
        report.set("identification.calls", ident_calls);
        report.set("identification.busy_ms", ident_ms);
        report.set(
            "identification.call_ms_p50",
            percentile(&ident_samples, 50.0).map_or(0.0, |p| p.value),
        );
        report.set(
            "identification.bit_slots",
            idents.iter().map(|i| i.slots.total()).sum::<usize>() as f64,
        );
        report.set(
            "identification.air_ms",
            idents.iter().map(|i| i.time_ms).sum(),
        );
        report.set(
            "identification.restarts",
            idents
                .iter()
                .map(|i| i.rounds.saturating_sub(1))
                .sum::<usize>() as f64,
        );
        report.set("transfer.calls", transfer_calls);
        report.set("transfer.busy_ms", transfer_ms);
        report.set(
            "transfer.ms_per_slot",
            transfer_ms / transfer_slots.max(1) as f64,
        );
        report.set("transfer.slots", transfer_slots as f64);
        report.set(
            "transfer.tag_transmissions",
            outcomes
                .iter()
                .map(|o| o.transfer.per_tag_transmissions.iter().sum::<usize>())
                .sum::<usize>() as f64,
        );
        report.set(
            "transfer.air_ms",
            outcomes.iter().map(|o| o.transfer.time_ms).sum(),
        );
        report.set(
            "transfer.incomplete",
            outcomes.iter().filter(|o| !o.transfer.complete).count() as f64,
        );
        report.set("session.self_ms", session_self_ms);
        report.set("baseline.busy_ms", baseline_ms);
        // No recovery layer and no fleet run in this workload.
        for name in [
            "recovery.busy_ms",
            "recovery.overhead_ratio",
            "recovery.extra_slots",
            "recovery.delivery_mismatches",
            "fleet.wall_ms",
            "fleet.session_busy_ms",
            "fleet.build_ms",
            "fleet.serial_ms",
            "fleet.executor_idle_ms",
            "fleet.executor_efficiency",
            "fleet.carried_over",
            "fleet.lost",
        ] {
            report.set(name, 0.0);
        }
        report.set("trace.overhead_ratio", session_ms / untraced_ms);
        report.notes.push(format!(
            "{passes} traced passes of {} sessions; {untraced_ms:.1} ms per pass untraced, {session_ms:.1} ms traced",
            self.specs.len()
        ));
        check_trace(&trace, report);
        trace
    }
}

// ---------------------------------------------------------------------------
// The fleet workload.

/// A `Protocol` that forwards to `inner` and records one `protocol.run` span
/// per session under the fleet run's span.
struct Traced<'a> {
    inner: &'a dyn Protocol,
    trace: &'a Mutex<Trace>,
    parent: usize,
    next_session: AtomicU64,
}

impl Traced<'_> {
    fn span<R>(&self, f: impl FnOnce() -> R) -> R {
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        let id = self
            .trace
            .lock()
            .expect("trace lock poisoned by a panicking session")
            .open("protocol.run", Some(self.parent), session);
        let result = f();
        self.trace
            .lock()
            .expect("trace lock poisoned by a panicking session")
            .close(id);
        result
    }
}

impl Protocol for Traced<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, scenario: &mut Scenario, seed: u64) -> SessionResult<SessionOutcome> {
        self.span(|| self.inner.run(scenario, seed))
    }

    fn run_after(
        &self,
        scenario: &mut Scenario,
        seed: u64,
        prior: &[SessionOutcome],
    ) -> SessionResult<SessionOutcome> {
        self.span(|| self.inner.run_after(scenario, seed, prior))
    }
}

/// One fleet run: its outcome and wall time.
type FleetRun = (FleetOutcome, HostTime);

struct Fleet {
    config: FleetConfig,
    buzz: BuzzProtocol,
    resilient: ResilientBuzzProtocol,
    tdma: TdmaProtocol,
}

impl Fleet {
    fn new(options: &RunOptions) -> Result<Self, String> {
        let scale = &options.scale;
        let config = FleetConfig {
            readers: scale.readers,
            population: scale.population,
            epochs: scale.epochs,
            cell_k: scale.ks[0],
            seed: mix(options.seed, 0xf1ee_7000),
            ..FleetConfig::default()
        };
        config.validate().map_err(text)?;
        let periodic = BuzzConfig {
            periodic_mode: true,
            ..BuzzConfig::default()
        };
        let bench = Self {
            buzz: BuzzProtocol::new(periodic).map_err(text)?,
            resilient: ResilientBuzzProtocol::new(periodic, RecoveryConfig::default())
                .map_err(text)?,
            tdma: TdmaProtocol::paper_default().map_err(text)?,
            config,
        };
        // Warm-up: a small fleet per Buzz-family scheme, on the executor.
        let small = FleetConfig {
            readers: 8,
            population: 8 * bench.config.cell_k * 2,
            epochs: 1,
            ..bench.config.clone()
        };
        for protocol in bench.family() {
            run_fleet(protocol, &small, options.threads).map_err(text)?;
        }
        Ok(bench)
    }

    /// The Buzz-family schemes, whose sessions the host metrics count.
    fn family(&self) -> [&dyn Protocol; 2] {
        [&self.buzz, &self.resilient]
    }

    /// Buzz, `buzz+r` and the TDMA baseline, in that order.
    fn schemes(&self) -> [&dyn Protocol; 3] {
        [&self.buzz, &self.resilient, &self.tdma]
    }

    fn run_one(
        &self,
        protocol: &dyn Protocol,
        threads: usize,
        label: &str,
        report: &mut Report,
    ) -> Option<FleetRun> {
        let (result, wall) = Stopwatch::new().time(|| run_fleet(protocol, &self.config, threads));
        match result {
            Ok(outcome) => {
                report.attempted += outcome.sessions;
                if !outcome.conservation_holds() {
                    report.fail(
                        format!("{label}/{}", outcome.scheme),
                        format!(
                            "conservation broken: offered {} != delivered {} + lost {} + carried {}",
                            outcome.offered, outcome.delivered, outcome.lost, outcome.carried_over
                        ),
                    );
                }
                Some((outcome, wall))
            }
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("{label}/{}", protocol.name()), text(e));
                None
            }
        }
    }

    /// Sessions in which fault-free `buzz+r` delivered other tags than Buzz
    /// on the same plan.  The program does not hold this exactly: in rare
    /// sessions (one in the 8,000 of seeds 1–20) `buzz+r`'s extra slots end
    /// in a wrong payload where Buzz decoded the right one.  So a mismatch
    /// is counted and noted rather than failed.
    fn recovery_mismatches(
        buzz: &FleetOutcome,
        resilient: &FleetOutcome,
        report: &mut Report,
    ) -> usize {
        let mut mismatches = buzz.records.len().abs_diff(resilient.records.len());
        for (a, b) in buzz.records.iter().zip(&resilient.records) {
            if a.tag_ids != b.tag_ids || a.delivered_flags != b.delivered_flags {
                mismatches += 1;
                report.notes.push(format!(
                    "buzz+r delivered other tags than buzz: reader {} epoch {} ({} vs {} delivered)",
                    b.reader,
                    b.epoch,
                    b.outcome.delivered_messages,
                    a.outcome.delivered_messages
                ));
            }
        }
        mismatches
    }

    /// Two runs of one scheme must agree exactly, session by session.
    fn check_equal(expected: &FleetOutcome, got: &FleetOutcome, label: &str, report: &mut Report) {
        if expected == got {
            return;
        }
        let key = format!("{label}/{}", got.scheme);
        let mut differing = 0;
        for (i, (a, b)) in expected.records.iter().zip(&got.records).enumerate() {
            if a != b {
                differing += 1;
                report.fail(
                    format!("{key}/{i}"),
                    "session differs from the reference run",
                );
            }
        }
        if differing == 0 {
            report.fail(key, "fleet aggregates differ from the reference run");
        }
    }

    fn timed(&self, options: &RunOptions, report: &mut Report) {
        let mut budget = Budget::new(options.seconds);
        // Outcomes of the first round; later rounds must repeat them.
        let mut first: Vec<FleetOutcome> = Vec::new();
        // Per round, the Buzz-family wall time (scaled, unscaled); per
        // session, host time scaled by its fleet run's reference factor.
        let mut walls: Vec<f64> = Vec::new();
        let mut raw_walls: Vec<f64> = Vec::new();
        let mut factors: Vec<f64> = Vec::new();
        let mut host: Vec<f64> = Vec::new();
        loop {
            let label = format!("round{}", walls.len());
            let runs: Vec<FleetRun> = budget.pass(|| {
                self.family()
                    .into_iter()
                    .filter_map(|p| self.run_one(p, options.threads, &label, report))
                    .collect()
            });
            if runs.len() < 2 {
                return;
            }
            walls.push(runs.iter().map(|r| r.1.ms()).sum());
            raw_walls.push(runs.iter().map(|r| r.1.raw_ms).sum());
            factors.extend(runs.iter().map(|r| r.1.factor));
            host.extend(runs.iter().flat_map(|(outcome, wall)| {
                outcome.records.iter().map(|rec| rec.host_ms * wall.factor)
            }));
            if first.is_empty() {
                first = runs.into_iter().map(|r| r.0).collect();
            } else {
                for (expected, got) in first.iter().zip(&runs) {
                    Self::check_equal(expected, &got.0, &label, report);
                }
            }
            if !budget.another() {
                break;
            }
        }
        report.notes.push(format!(
            "{} rounds of 2 fleet runs at {} threads in {:.1} s",
            walls.len(),
            options.threads,
            budget.elapsed_s()
        ));
        Self::recovery_mismatches(&first[0], &first[1], report);

        let sessions: usize = first.iter().map(|o| o.sessions).sum();
        report.set(
            "sessions_per_s",
            sessions as f64 / (typical_ms(&walls) / 1e3),
        );
        note_reference(
            &factors,
            sessions as f64 / (typical_ms(&raw_walls) / 1e3),
            report,
        );
        // Pooled over rounds: with 800 short sessions a round, the pooled
        // sample is far steadier than per-session lower quartiles (5.9 and
        // 2.9 % spread at p50 and p95 over five runs, against 11.5 and 11.1 %).
        report_percentiles(&host, "session runs of all rounds", report);
        if let Some((tdma, _)) = self.run_one(&self.tdma, options.threads, "baseline", report) {
            Self::air(&first[0]).report(tdma.total_msgs_per_s, report);
        }
    }

    fn air(buzz: &FleetOutcome) -> Air {
        let mut air = Air {
            offered: buzz.offered,
            delivered: buzz.delivered,
            // Delivered per second of makespan: the fleet's `total_msgs_per_s`.
            air_ms: buzz.makespan_ms,
            energy_j: buzz.energy_per_delivered_j * buzz.delivered as f64,
            sessions: buzz.sessions,
            ..Air::default()
        };
        for record in &buzz.records {
            if let Some(d) = &record.outcome.diagnostics {
                let slots = d.newly_decoded_per_slot.len();
                air.data_slots += slots;
                air.decoded += (d.bits_per_symbol * slots as f64).round() as usize;
                air.exact += usize::from(d.identification_exact != Some(false));
            }
        }
        air
    }

    /// One traced fleet run at one thread: a `fleet.run` span over the
    /// wrapper's `protocol.run` spans.  Returns the run and its span index.
    fn traced_run(
        &self,
        protocol: &dyn Protocol,
        trace: &Mutex<Trace>,
        fleet_id: u64,
        report: &mut Report,
    ) -> Option<(FleetRun, usize)> {
        let parent = trace
            .lock()
            .expect("trace lock poisoned")
            .open("fleet.run", None, fleet_id);
        let wrapper = Traced {
            inner: protocol,
            trace,
            parent,
            next_session: AtomicU64::new(0),
        };
        let run = self.run_one(&wrapper, 1, "traced", report);
        trace.lock().expect("trace lock poisoned").close(parent);
        run.map(|r| (r, parent))
    }

    fn traced(&self, options: &RunOptions, report: &mut Report) -> Trace {
        let mut budget = Budget::new(options.seconds);
        let threads = options.threads;
        // Reference runs as the timed run makes them, at `threads` threads.
        let reference: Vec<Option<FleetRun>> = budget.pass(|| {
            self.schemes()
                .into_iter()
                .map(|p| self.run_one(p, threads, "reference", report))
                .collect()
        });
        let [Some(buzz), Some(resilient), Some(tdma)] = &reference[..] else {
            return Trace::new();
        };
        let mismatches = Self::recovery_mismatches(&buzz.0, &resilient.0, report);

        let trace = Mutex::new(Trace::new());
        let mut passes = 0usize;
        let (mut untraced_ms, mut traced_ms, mut serial_ms, mut build_ms) = (0.0, 0.0, 0.0, 0.0);
        // Summed `protocol.run` spans per scheme.
        let mut busy = [0.0f64; 3];
        loop {
            passes += 1;
            budget.pass(|| {
                // The same two fleets untraced at one thread, for the
                // tracing overhead.
                for protocol in self.family() {
                    if let Some(run) = self.run_one(protocol, 1, "untraced", report) {
                        untraced_ms += run.1.raw_ms;
                    }
                }
                for (scheme, protocol) in self.schemes().into_iter().enumerate() {
                    let fleet_id = (passes * 3 + scheme) as u64;
                    let Some(((outcome, _), parent)) =
                        self.traced_run(protocol, &trace, fleet_id, report)
                    else {
                        continue;
                    };
                    let expected = [buzz, resilient, tdma][scheme];
                    Self::check_equal(&expected.0, &outcome, "traced", report);
                    let t = trace.lock().expect("trace lock poisoned");
                    let protocol_ms: f64 = t
                        .spans()
                        .iter()
                        .filter(|s| s.parent == Some(parent))
                        .map(Span::ms)
                        .sum();
                    busy[scheme] += protocol_ms;
                    if scheme < 2 {
                        let fleet_ms = t.spans()[parent].ms();
                        let host_ms = outcome.total_host_ms();
                        traced_ms += fleet_ms;
                        serial_ms += fleet_ms - host_ms;
                        build_ms += host_ms - protocol_ms;
                    }
                }
            });
            if !budget.another() {
                break;
            }
        }
        let trace = trace.into_inner().expect("trace lock poisoned");
        let per_pass = |x: f64| x / passes as f64;

        let family_wall = buzz.1.raw_ms + resilient.1.raw_ms;
        let family_host = buzz.0.total_host_ms() + resilient.0.total_host_ms();
        let slots =
            |o: &FleetOutcome| -> usize { o.records.iter().map(|r| r.outcome.slots_used).sum() };
        let buzz_slots = slots(&buzz.0);
        let data_air_ms: f64 = buzz
            .0
            .records
            .iter()
            .filter_map(|r| r.outcome.diagnostics.as_ref())
            .map(|d| d.data_time_ms)
            .sum();

        report.set(
            "scenario.builds",
            (buzz.0.sessions + resilient.0.sessions) as f64,
        );
        report.set("scenario.build_ms", per_pass(build_ms));
        // Periodic sessions run no identification, and the fleet's session
        // span holds nothing but the build and the protocol call.  The
        // Protocol surface carries no per-tag transmission count.
        for name in [
            "identification.calls",
            "identification.busy_ms",
            "identification.call_ms_p50",
            "identification.bit_slots",
            "identification.air_ms",
            "identification.restarts",
            "transfer.tag_transmissions",
            "session.self_ms",
        ] {
            report.set(name, 0.0);
        }
        report.set("transfer.calls", buzz.0.sessions as f64);
        report.set("transfer.busy_ms", per_pass(busy[0]));
        report.set(
            "transfer.ms_per_slot",
            per_pass(busy[0]) / buzz_slots.max(1) as f64,
        );
        report.set("transfer.slots", buzz_slots as f64);
        report.set("transfer.air_ms", data_air_ms);
        report.set(
            "transfer.incomplete",
            buzz.0
                .records
                .iter()
                .filter(|r| r.outcome.lost_messages > 0)
                .count() as f64,
        );
        report.set("baseline.busy_ms", per_pass(busy[2]));
        report.set("recovery.busy_ms", per_pass(busy[1]));
        report.set("recovery.overhead_ratio", busy[1] / busy[0]);
        report.set(
            "recovery.extra_slots",
            slots(&resilient.0) as f64 - buzz_slots as f64,
        );
        report.set("recovery.delivery_mismatches", mismatches as f64);
        report.set("fleet.wall_ms", family_wall);
        report.set("fleet.session_busy_ms", family_host);
        report.set("fleet.build_ms", per_pass(build_ms));
        report.set("fleet.serial_ms", per_pass(serial_ms));
        report.set(
            "fleet.executor_idle_ms",
            threads as f64 * family_wall - family_host,
        );
        report.set(
            "fleet.executor_efficiency",
            family_host / (threads as f64 * family_wall),
        );
        report.set("fleet.carried_over", buzz.0.carried_over as f64);
        report.set("fleet.lost", buzz.0.lost as f64);
        report.set("trace.overhead_ratio", traced_ms / untraced_ms);
        report.notes.push(format!(
            "{passes} traced passes at 1 thread; reference at {threads} threads: buzz {:.0} ms, buzz+r {:.0} ms, tdma {:.0} ms wall",
            buzz.1.raw_ms, resilient.1.raw_ms, tdma.1.raw_ms
        ));
        check_trace(&trace, report);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn typical_time_is_the_lower_quartile_of_each_session() {
        // host[pass][session]: two sessions over five passes.
        let host = vec![
            vec![4.0, 40.0],
            vec![2.0, 90.0],
            vec![9.0, 30.0],
            vec![3.0, 50.0],
            vec![1.0, 60.0],
        ];
        // Nearest rank: the 2nd fastest of five.
        assert_eq!(typical_per_session(&host), vec![2.0, 40.0]);
        assert_eq!(typical_ms(&[7.0, 5.0]), 5.0);
        assert!(typical_per_session(&[]).is_empty());
    }

    #[test]
    fn inputs_follow_the_seed() {
        let options = |seed| RunOptions {
            workload: Workload::PaperMix,
            seed,
            seconds: 0.0,
            trace: false,
            scale: Scale::small(Workload::PaperMix),
            threads: 1,
        };
        let a = Single::new(&options(1)).unwrap().specs;
        let b = Single::new(&options(1)).unwrap().specs;
        let c = Single::new(&options(2)).unwrap().specs;
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(mix(1, 2), mix(2, 1));
    }
}
