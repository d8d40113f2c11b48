//! One function per reproduced figure/table.
//!
//! All experiments are deterministic given their `base_seed`, and every scheme
//! within an experiment runs against the *same* scenario (same channels, same
//! messages), mirroring the paper's back-to-back trace collection.
//!
//! The heavy comparison figures (10–14, headline) are data-driven sweeps: a
//! `&[&dyn Protocol]` panel over a scenario grid through the generic
//! [`crate::compare::compare`] runner, followed by a per-figure fold of the
//! ordered cells.  Each cell of the grid is an independent
//! `(ScenarioConfig, seed)` run, so the runner shards cells across worker
//! threads ([`buzz::executor::work_steal_map`]) and the fold *replays* the
//! serial accumulation order over the ordered per-cell results.  Because
//! every float is added in exactly the sequence the serial loop would use,
//! report output is byte-identical for every `threads` value — `threads = 1`
//! short-circuits to a plain inline loop and *is* the old serial behaviour.

use backscatter_baselines::{CdmaProtocol, FsaIdentification, FsaWithEstimatedK, TdmaProtocol};
use backscatter_fleet::{run_fleet, FleetConfig};
use backscatter_phy::channel::Channel;
use backscatter_phy::complex::Complex;
use backscatter_phy::signal::{Constellation, IqTrace};
use backscatter_phy::sync::{offset_cdf, offset_quantile, ClockModel, DriftCorrection, SyncJitter};
use backscatter_prng::{Rng64, Xoshiro256};
use backscatter_sim::dynamics::CorrelatedFading;
use backscatter_sim::faults::{
    BurstSlotLoss, FeedbackLoss, FrameNoise, ReaderRestart, SlotErasure, TagDropout,
};
use backscatter_sim::medium::{Medium, MediumConfig};
use backscatter_sim::scenario::ScenarioBuilder;
use buzz::bp::DecodeSchedule;
use buzz::executor::work_steal_map;
use buzz::identification::IdentificationConfig;
use buzz::protocol::{BuzzConfig, BuzzProtocol};
use buzz::recovery::{RecoveryConfig, ResilientBuzzProtocol};
use buzz::session::Protocol;
use buzz::toy;
use buzz::transfer::TransferConfig;
use sparse_recovery::kest::KEstimator;

use crate::compare::{compare, ComparisonCell};
use crate::report::ExperimentReport;

/// Buzz in periodic mode (identification skipped), the configuration the
/// data-phase comparisons (Figs. 10–13) run.
fn buzz_periodic() -> BuzzProtocol {
    BuzzProtocol::new(BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    })
    .expect("protocol")
}

/// Buzz with the full identification pipeline (Fig. 14 and the headline).
fn buzz_full() -> BuzzProtocol {
    BuzzProtocol::new(BuzzConfig::default()).expect("protocol")
}

/// How many independent locations (scenario seeds) each experiment averages
/// over.  The paper uses ten; five keeps the full harness run under a minute
/// in release mode while preserving the trends.
pub const DEFAULT_LOCATIONS: u64 = 5;

/// Tables 1 and 2 (§3.2): the toy example of pattern-based id assignment.
#[must_use]
pub fn table12() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "table1-2",
        "Transmit patterns and their collisions (toy example)",
        "4 patterns over 3 slots; every unordered pair distinguishable; failure 1/4 vs 1/3",
        &["pair", "collision pattern"],
    );
    let patterns = toy::table1_patterns();
    let label = |p: &[bool]| -> String { p.iter().map(|&b| if b { '1' } else { '0' }).collect() };
    for (i, a) in patterns.iter().enumerate() {
        for b in patterns.iter().skip(i) {
            let sum: String = toy::collision_pattern(a, b)
                .iter()
                .map(|d| char::from(b'0' + d))
                .collect();
            report.push_row(vec![format!("{}+{}", label(a), label(b)), sum]);
        }
    }
    report.push_finding(format!(
        "pairs distinguishable: {}",
        toy::pairs_are_distinguishable(&patterns)
    ));
    report.push_finding(format!(
        "P[fail] option 1 (slots) = {:.3}, option 2 (patterns) = {:.3}",
        toy::option1_failure_probability(3),
        toy::option2_failure_probability(&patterns)
    ));
    report
}

/// Fig. 2 and Fig. 3: received waveform levels and constellations for one and
/// two concurrently transmitting tags.
#[must_use]
pub fn fig2_3(base_seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig2-3",
        "Collision waveform levels and constellation sizes",
        "1 tag -> 2 levels / 2 constellation points; 2 tags -> 4 levels / 4 points",
        &[
            "tags",
            "distinct levels",
            "constellation points",
            "min distance",
        ],
    );
    let mut rng = Xoshiro256::seed_from_u64(base_seed);
    for &num_tags in &[1usize, 2, 3] {
        let channels: Vec<Channel> = (0..num_tags)
            .map(|_| {
                Channel::from_coefficient(Complex::from_polar(
                    0.3 + 0.4 * rng.next_f64(),
                    rng.next_f64() * core::f64::consts::TAU,
                ))
            })
            .collect();
        let mut medium = Medium::new(
            channels,
            MediumConfig {
                noise_power: 1e-6,
                ..MediumConfig::default()
            },
        )
        .expect("medium");
        // Sweep all bit combinations a few times, the way a random payload
        // exercises them, and collect the raw (leakage-included) symbols.
        let mut symbols = Vec::new();
        for pattern in 0..(1u32 << num_tags) {
            for _ in 0..20 {
                let bits: Vec<bool> = (0..num_tags).map(|i| (pattern >> i) & 1 == 1).collect();
                symbols.push(medium.observe_raw(&bits).expect("observe"));
            }
        }
        let trace = IqTrace::from_symbols(&symbols, 50, 4.0e6).expect("trace");
        let magnitudes: Vec<f64> = trace
            .magnitude_series_us()
            .iter()
            .map(|&(_, m)| m)
            .collect();
        // Count distinct magnitude levels (Fig. 2) and constellation points
        // (Fig. 3).
        let constellation = Constellation::from_symbols(&symbols);
        let points = constellation.distinct_levels(0.05).len();
        let mut level_values: Vec<f64> = Vec::new();
        for &m in &magnitudes {
            if !level_values.iter().any(|&l| (l - m).abs() < 0.05) {
                level_values.push(m);
            }
        }
        let min_distance = constellation
            .minimum_distance(0.05)
            .map(|d| format!("{d:.3}"))
            .unwrap_or_else(|_| "-".into());
        report.push_row(vec![
            num_tags.to_string(),
            level_values.len().to_string(),
            points.to_string(),
            min_distance,
        ]);
    }
    report.push_finding("constellation density doubles with each additional colliding tag".into());
    report
}

/// Fig. 7: CDF of the initial synchronization offset for commercial and Moo
/// tags.
#[must_use]
pub fn fig7(base_seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig7",
        "Initial synchronization offset CDF",
        "90th percentile 0.3 us (commercial) / 0.5 us (Moo); max < 1 us",
        &["tag type", "p50 (us)", "p90 (us)", "max (us)"],
    );
    let mut rng = Xoshiro256::seed_from_u64(base_seed);
    for (name, jitter) in [
        ("commercial", SyncJitter::commercial()),
        ("moo", SyncJitter::moo()),
    ] {
        let offsets = jitter.draw_many_us(&mut rng, 5_000);
        let cdf = offset_cdf(&offsets).expect("cdf");
        let max = cdf.last().map(|&(x, _)| x).unwrap_or(0.0);
        report.push_row(vec![
            name.to_string(),
            format!("{:.2}", offset_quantile(&offsets, 0.5).expect("q50")),
            format!("{:.2}", offset_quantile(&offsets, 0.9).expect("q90")),
            format!("{max:.2}"),
        ]);
    }
    report.push_finding("all offsets stay below one microsecond".into());
    report
}

/// Fig. 8: bit misalignment after 2 ms with and without drift correction.
#[must_use]
pub fn fig8() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig8",
        "Clock-drift misalignment after 2 ms at 80 kbps",
        "~50% of a symbol without correction; aligned (few %) with correction",
        &["correction", "misalignment (fraction of symbol)"],
    );
    let symbol_us = 12.5;
    let fast = ClockModel::new(1_560.0);
    let slow = ClockModel::new(-1_560.0);
    let uncorrected =
        (fast.accumulated_drift_us(2_000.0) - slow.accumulated_drift_us(2_000.0)).abs() / symbol_us;
    let corr_fast = DriftCorrection::calibrate(fast, 10_000.0, 1.0e6).expect("calibrate");
    let corr_slow = DriftCorrection::calibrate(slow, 10_000.0, 1.0e6).expect("calibrate");
    let corrected =
        (corr_fast.residual_ppm(fast) - corr_slow.residual_ppm(slow)).abs() * 1e-6 * 2_000.0
            / symbol_us;
    report.push_row(vec!["without".into(), format!("{uncorrected:.3}")]);
    report.push_row(vec!["with".into(), format!("{corrected:.3}")]);
    report.push_finding(format!(
        "correction reduces misalignment by {:.0}x",
        uncorrected / corrected.max(1e-6)
    ));
    report
}

/// Fig. 9: decoding progress of 14 tags over the data-phase slots.
#[must_use]
pub fn fig9(base_seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig9",
        "Decoding progress for 14 tags (96-bit messages)",
        "11 of 14 decoded within ~4 slots; all 14 within ~10; final rate ~1.4 bits/symbol",
        &[
            "slot",
            "newly decoded",
            "already decoded",
            "bits/symbol so far",
        ],
    );
    let mut scenario = ScenarioBuilder::paper_uplink(14, base_seed)
        .message_bits(96)
        .build()
        .expect("scenario");
    let outcome = buzz_periodic()
        .run(&mut scenario, base_seed ^ 0x99)
        .expect("run");
    let mut cumulative = 0usize;
    for (slot, &newly) in outcome.transfer.newly_decoded_per_slot.iter().enumerate() {
        let already = cumulative;
        cumulative += newly;
        report.push_row(vec![
            (slot + 1).to_string(),
            newly.to_string(),
            already.to_string(),
            format!("{:.2}", cumulative as f64 / (slot + 1) as f64),
        ]);
    }
    report.push_finding(format!(
        "all {} tags decoded in {} slots -> {:.2} bits/symbol",
        outcome.transfer.decoded_count(),
        outcome.transfer.slots_used,
        outcome.transfer.bits_per_symbol()
    ));
    report
}

/// Folded means of the §9 uplink comparison (Figs. 10 and 11); the panel
/// order is `[Buzz, TDMA, CDMA]`.
struct UplinkComparison {
    buzz_time_ms: f64,
    tdma_time_ms: f64,
    cdma_time_ms: f64,
    buzz_rate: f64,
    buzz_undecoded: f64,
    tdma_undecoded: f64,
    cdma_undecoded: f64,
}

/// Folds one parameter's ordered comparison cells into per-run means, adding
/// every float in the same left-to-right sequence as the original serial
/// loop.
fn fold_uplink_cells(cells: &[ComparisonCell]) -> UplinkComparison {
    let mut acc = UplinkComparison {
        buzz_time_ms: 0.0,
        tdma_time_ms: 0.0,
        cdma_time_ms: 0.0,
        buzz_rate: 0.0,
        buzz_undecoded: 0.0,
        tdma_undecoded: 0.0,
        cdma_undecoded: 0.0,
    };
    let mut runs = 0.0;
    for cell in cells {
        let buzz = cell.outcome(0);
        let diag = buzz.diagnostics.as_ref().expect("buzz diagnostics");
        let (tdma, cdma) = (cell.outcome(1), cell.outcome(2));
        runs += 1.0;
        acc.buzz_time_ms += diag.data_time_ms;
        acc.buzz_rate += diag.bits_per_symbol;
        acc.buzz_undecoded += buzz.lost_messages as f64;
        acc.tdma_time_ms += tdma.wall_time_ms;
        acc.tdma_undecoded += tdma.lost_messages as f64;
        acc.cdma_time_ms += cdma.wall_time_ms;
        acc.cdma_undecoded += cdma.lost_messages as f64;
    }
    acc.buzz_time_ms /= runs;
    acc.tdma_time_ms /= runs;
    acc.cdma_time_ms /= runs;
    acc.buzz_rate /= runs;
    acc.buzz_undecoded /= runs;
    acc.tdma_undecoded /= runs;
    acc.cdma_undecoded /= runs;
    acc
}

/// Runs the full `ks × locations` uplink-comparison matrix — the
/// `[Buzz, TDMA, CDMA]` panel over paper-uplink scenarios, two noise traces
/// per location — and folds each `k`'s cells in serial order.
fn run_uplink_matrix(
    ks: &[usize],
    locations: u64,
    base_seed: u64,
    threads: usize,
) -> Vec<UplinkComparison> {
    let buzz = buzz_periodic();
    let tdma = TdmaProtocol::paper_default().expect("tdma");
    let cdma = CdmaProtocol;
    let panel: [&dyn Protocol; 3] = [&buzz, &tdma, &cdma];
    let groups = compare(
        &panel,
        ks,
        locations,
        threads,
        |k, location| {
            let seed = base_seed + location * 37 + k as u64;
            ScenarioBuilder::paper_uplink(k, seed)
                .build()
                .expect("scenario")
        },
        |_| vec![0, 1],
    );
    groups.iter().map(|g| fold_uplink_cells(g)).collect()
}

/// Fig. 10: total data-transfer time vs number of tags.
#[must_use]
pub fn fig10(locations: u64, base_seed: u64, threads: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig10",
        "Total data transfer time vs number of tags",
        "Buzz finishes in about half the time of TDMA/CDMA (~2x aggregate rate)",
        &[
            "K",
            "Buzz (ms)",
            "TDMA (ms)",
            "CDMA (ms)",
            "Buzz bits/symbol",
        ],
    );
    let mut total_gain = 0.0;
    let ks = [4usize, 8, 12, 16];
    for (k, c) in ks
        .iter()
        .zip(run_uplink_matrix(&ks, locations, base_seed, threads))
    {
        total_gain += c.tdma_time_ms / c.buzz_time_ms.max(1e-9);
        report.push_row(vec![
            k.to_string(),
            format!("{:.2}", c.buzz_time_ms),
            format!("{:.2}", c.tdma_time_ms),
            format!("{:.2}", c.cdma_time_ms),
            format!("{:.2}", c.buzz_rate),
        ]);
    }
    report.push_finding(format!(
        "average Buzz speed-up over TDMA across K: {:.2}x",
        total_gain / ks.len() as f64
    ));
    report
}

/// Fig. 11: number of undecoded (lost) tag messages vs number of tags.
#[must_use]
pub fn fig11(locations: u64, base_seed: u64, threads: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig11",
        "Undecoded tag messages vs number of tags",
        "Buzz: zero; TDMA: few (Miller-4 robustness); CDMA: worst and grows with K",
        &["K", "Buzz undecoded", "TDMA undecoded", "CDMA undecoded"],
    );
    let ks = [4usize, 8, 12, 16];
    for (k, c) in ks
        .iter()
        .zip(run_uplink_matrix(&ks, locations, base_seed, threads))
    {
        report.push_row(vec![
            k.to_string(),
            format!("{:.2}", c.buzz_undecoded),
            format!("{:.2}", c.tdma_undecoded),
            format!("{:.2}", c.cdma_undecoded),
        ]);
    }
    report.push_finding("Buzz's rateless code keeps collecting collisions until CRC passes".into());
    report
}

/// Beyond-the-paper Fig. 11 companion: the full Buzz pipeline (compressive-
/// sensing identification *and* rateless transfer) at the paper's large-K
/// regime, K = 25…300, against TDMA over the same scenarios.
///
/// This is the full-protocol workload exercising the CS bucketing and the
/// decoder at K = 100+: Buzz runs with the default worklist decode
/// schedule, a fixed 16-ids-per-bucket temporary-id space (which grows after
/// each id-collision restart), and a target of 4 colliders per slot.  The
/// participation rule (stated once in the `buzz` crate's `participation`
/// module) floors the per-slot probability at 0.15, so only the K = 25 row
/// runs at 4 colliders; K = 50, 100, 150, 200 and 300 run at 7.5, 15, 22.5,
/// 30 and 45.  CDMA is omitted — its chip-level simulation is
/// `O(K²·chips)` per message and unusable at K = 150+.
///
/// `locations` is capped at 2: two locations per K already show the scaling
/// trend within the harness's time budget (the K = 300 cells dominate it).
#[must_use]
pub fn fig11_large(locations: u64, base_seed: u64, threads: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig11_large",
        "Large-K full pipeline: identification + data at K = 25..300",
        "Buzz sustains K = 300 concurrent tags (2 orders beyond the paper's figures) with ≤ 1 % undecoded messages",
        &[
            "K",
            "Buzz ident (ms)",
            "Buzz data (ms)",
            "Buzz undecoded",
            "Buzz bits/symbol",
            "K exact",
            "TDMA (ms)",
            "TDMA undecoded",
        ],
    );
    let ks = [25usize, 50, 100, 150, 200, 300];
    // K ≥ 200 cells dominate the wall clock (several seconds of simulated
    // decode each); one location there keeps the whole figure comfortably
    // inside its CI time budget while K ≤ 150 keeps averaging over two.
    let split = 4;
    let locations = locations.min(2);
    let buzz = BuzzProtocol::new(BuzzConfig {
        identification: IdentificationConfig {
            ids_per_bucket: Some(16),
        },
        transfer: TransferConfig {
            target_collision_size: 4.0,
            ..TransferConfig::default()
        },
        periodic_mode: false,
    })
    .expect("protocol");
    let tdma = TdmaProtocol::paper_default().expect("tdma");
    let panel: [&dyn Protocol; 2] = [&buzz, &tdma];
    let scenario_of = |k: usize, location: u64| {
        let seed = base_seed + location * 61 + k as u64;
        ScenarioBuilder::paper_uplink(k, seed)
            .build()
            .expect("scenario")
    };
    let mut groups = compare(
        &panel,
        &ks[..split],
        locations,
        threads,
        scenario_of,
        |location| vec![location],
    );
    groups.extend(compare(
        &panel,
        &ks[split..],
        locations.min(1),
        threads,
        scenario_of,
        |location| vec![location],
    ));
    let mut worst_buzz_loss = 0.0f64;
    for (k, cells) in ks.iter().zip(&groups) {
        let mut ident_ms = 0.0;
        let mut data_ms = 0.0;
        let mut undecoded = 0.0;
        let mut rate = 0.0;
        let mut exact = 0usize;
        let mut tdma_ms = 0.0;
        let mut tdma_undecoded = 0.0;
        let mut runs = 0.0;
        for cell in cells {
            let b = cell.outcome(0);
            let diag = b.diagnostics.as_ref().expect("buzz diagnostics");
            runs += 1.0;
            ident_ms += diag.identification_time_ms.expect("full pipeline");
            data_ms += diag.data_time_ms;
            // A tag the identification phase missed never becomes a decoder
            // column, so it appears in neither delivered nor lost — count
            // everything short of K as undecoded.
            undecoded += (k - b.delivered_messages) as f64;
            rate += diag.bits_per_symbol;
            if diag.identification_exact == Some(true) {
                exact += 1;
            }
            let t = cell.outcome(1);
            tdma_ms += t.wall_time_ms;
            tdma_undecoded += t.lost_messages as f64;
        }
        worst_buzz_loss = worst_buzz_loss.max(undecoded / runs);
        report.push_row(vec![
            k.to_string(),
            format!("{:.2}", ident_ms / runs),
            format!("{:.2}", data_ms / runs),
            format!("{:.2}", undecoded / runs),
            format!("{:.2}", rate / runs),
            format!("{exact}/{}", runs as usize),
            format!("{:.2}", tdma_ms / runs),
            format!("{:.2}", tdma_undecoded / runs),
        ]);
    }
    report.push_finding(format!(
        "worklist decode + pruned correlation ledger sustain K = 300 with at most {worst_buzz_loss:.2} mean undecoded messages"
    ));
    report
}

/// Fig. 12: reliability and rate adaptation as channels worsen.
#[must_use]
pub fn fig12(locations: u64, base_seed: u64, threads: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig12",
        "Challenging channels: decoded tags and aggregate rate (K = 4)",
        "TDMA degrades to ~50% loss, CDMA to ~100%; Buzz adapts below 1 bit/symbol with zero loss",
        &[
            "median SNR (dB)",
            "Buzz decoded",
            "Buzz bits/symbol",
            "TDMA decoded",
            "CDMA decoded",
        ],
    );
    let snrs = [22.0, 15.0, 10.0, 6.0, 4.0];
    let buzz = buzz_periodic();
    let tdma = TdmaProtocol::paper_default().expect("tdma");
    let cdma = CdmaProtocol;
    let panel: [&dyn Protocol; 3] = [&buzz, &tdma, &cdma];
    let groups = compare(
        &panel,
        &snrs,
        locations,
        threads,
        |snr, location| {
            let seed = base_seed + location * 131 + snr as u64;
            ScenarioBuilder::challenging(4, seed, snr)
                .build()
                .expect("scenario")
        },
        |location| vec![location],
    );
    for (snr, cells) in snrs.iter().zip(&groups) {
        let mut buzz_dec = 0.0;
        let mut buzz_rate = 0.0;
        let mut tdma_dec = 0.0;
        let mut cdma_dec = 0.0;
        let mut runs = 0.0;
        for cell in cells {
            runs += 1.0;
            buzz_dec += cell.outcome(0).delivered_messages as f64;
            buzz_rate += cell
                .outcome(0)
                .diagnostics
                .as_ref()
                .expect("buzz diagnostics")
                .bits_per_symbol;
            tdma_dec += cell.outcome(1).delivered_messages as f64;
            cdma_dec += cell.outcome(2).delivered_messages as f64;
        }
        report.push_row(vec![
            format!("{snr:.0}"),
            format!("{:.2}", buzz_dec / runs),
            format!("{:.2}", buzz_rate / runs),
            format!("{:.2}", tdma_dec / runs),
            format!("{:.2}", cdma_dec / runs),
        ]);
    }
    report.push_finding(
        "Buzz trades slots for reliability: its rate falls with SNR instead of its delivery".into(),
    );
    report
}

/// Beyond-the-paper dynamic-scenario figure: delivery under temporally
/// correlated multipath fading ([`CorrelatedFading`]), swept from a static
/// channel to fast, deep fading, through the generic [`compare`] runner.
///
/// The paper's experiments freeze the environment; this figure measures the
/// regime boundary the paper never probes — Buzz (worklist decode, the repo
/// default) rides out slow fading because its slot-0-anchored channel
/// estimates stay roughly coherent over a session, then degrades sharply
/// once deep fades decohere the interference cancellation, while the
/// one-message-per-slot baselines only lose what lands inside a null.
#[must_use]
pub fn fig_fading(locations: u64, base_seed: u64, threads: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig_fading",
        "Correlated multipath fading: delivery vs fading severity (K = 8)",
        "Buzz matches TDMA under slow fading and degrades once deep fades decohere its channel estimates",
        &[
            "doppler (rad/slot)",
            "LoS fraction",
            "Buzz delivered",
            "Buzz slots",
            "Buzz-MP delivered",
            "Buzz-MP slots",
            "TDMA delivered",
            "CDMA delivered",
        ],
    );
    // (doppler, line-of-sight) severity sweep, mirroring the
    // `correlated_fading` example's environments plus a static control; the
    // last two rows sit beyond the bit-flipping decoder's regime boundary
    // and show the message-passing schedule moving it.
    let severities: [(f64, f64); 6] = [
        (0.0, 1.0),
        (0.01, 0.8),
        (0.05, 0.5),
        (0.08, 0.35),
        (0.12, 0.25),
        (0.16, 0.2),
    ];
    let buzz = BuzzProtocol::new(BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    })
    .expect("protocol");
    // The same protocol on the soft-decision message-passing schedule with
    // unlocked-node channel tracking ([`DecodeSchedule::MessagePassing`]):
    // the row pair is the before/after of the fading regime boundary.
    let buzz_mp = BuzzProtocol::new(BuzzConfig {
        periodic_mode: true,
        transfer: TransferConfig {
            decode_schedule: DecodeSchedule::MessagePassing,
            ..TransferConfig::default()
        },
        ..BuzzConfig::default()
    })
    .expect("protocol");
    let tdma = TdmaProtocol::paper_default().expect("tdma");
    let cdma = CdmaProtocol;
    let panel: [&dyn Protocol; 4] = [&buzz, &buzz_mp, &tdma, &cdma];
    let groups = compare(
        &panel,
        &severities,
        locations,
        threads,
        |(doppler, los), location| {
            let seed = base_seed + location * 89 + (doppler * 1000.0) as u64;
            ScenarioBuilder::paper_uplink(8, seed)
                .dynamics(CorrelatedFading::new(doppler, 8, los).expect("fading"))
                .build()
                .expect("scenario")
        },
        |location| vec![location],
    );
    for (&(doppler, los), cells) in severities.iter().zip(&groups) {
        let mut buzz_dec = 0.0;
        let mut buzz_slots = 0.0;
        let mut mp_dec = 0.0;
        let mut mp_slots = 0.0;
        let mut tdma_dec = 0.0;
        let mut cdma_dec = 0.0;
        let mut runs = 0.0;
        for cell in cells {
            runs += 1.0;
            buzz_dec += cell.outcome(0).delivered_messages as f64;
            buzz_slots += cell.outcome(0).slots_used as f64;
            mp_dec += cell.outcome(1).delivered_messages as f64;
            mp_slots += cell.outcome(1).slots_used as f64;
            tdma_dec += cell.outcome(2).delivered_messages as f64;
            cdma_dec += cell.outcome(3).delivered_messages as f64;
        }
        report.push_row(vec![
            format!("{doppler:.2}"),
            format!("{los:.2}"),
            format!("{:.2}", buzz_dec / runs),
            format!("{:.1}", buzz_slots / runs),
            format!("{:.2}", mp_dec / runs),
            format!("{:.1}", mp_slots / runs),
            format!("{:.2}", tdma_dec / runs),
            format!("{:.2}", cdma_dec / runs),
        ]);
    }
    report.push_finding(
        "bit-flipping against stale channel estimates has a fading regime boundary; soft message passing with channel tracking moves it"
            .into(),
    );
    report
}

/// The fault grid `fig_resilience` sweeps: a label per row plus the injector
/// set it attaches.  Split out so the figure and its regression tests agree
/// on the grid by construction.
const RESILIENCE_FAULTS: [&str; 8] = [
    "clean",
    "erase30",
    "erase100",
    "burst8/4",
    "erase50+fb50",
    "noise8x",
    "dropout25",
    "restart3",
];

/// Builds the K = 8 fault scenario for one `fig_resilience` grid row.
fn resilience_scenario(
    fault: &str,
    location: u64,
    base_seed: u64,
) -> backscatter_sim::scenario::Scenario {
    let seed = base_seed + location * 131 + 7;
    let builder = ScenarioBuilder::paper_uplink(8, seed);
    let builder = match fault {
        "clean" => builder,
        "erase30" => builder.fault(SlotErasure::new(0.3).expect("erasure")),
        "erase100" => builder.fault(SlotErasure::new(1.0).expect("erasure")),
        "burst8/4" => builder.fault(BurstSlotLoss::new(8, 4).expect("burst")),
        "erase50+fb50" => builder
            .fault(SlotErasure::new(0.5).expect("erasure"))
            .fault(FeedbackLoss::new(0.5).expect("feedback")),
        "noise8x" => builder.fault(FrameNoise::new(0.5, 8.0).expect("noise")),
        "dropout25" => builder.fault(TagDropout::new(0.25, 40).expect("dropout")),
        "restart3" => builder.fault(ReaderRestart::new(3)),
        other => unreachable!("unknown fault grid row {other}"),
    };
    builder.build().expect("scenario")
}

/// Beyond-the-paper resilience figure: delivery under injected control-plane
/// and channel faults (`backscatter_sim::faults`), swept across all four
/// schemes plus the recovery-enabled Buzz (`buzz+r`,
/// [`ResilientBuzzProtocol`]).
///
/// The grid covers the fault taxonomy: random and total slot erasure,
/// periodic burst loss, lost downlink feedback, CRC-corrupting frame noise,
/// mid-transfer tag dropout, and a reader restart.  The plain protocol
/// collapses to zero delivery at the harshest operating points (total
/// erasure starves its decoder; a restart wipes its state); `buzz+r` detects
/// the stall, retries with backoff, resumes from its checkpoint, and — when
/// the rateless phase cannot win — degrades to TDMA polling for only the
/// unresolved tags.
#[must_use]
pub fn fig_resilience(locations: u64, base_seed: u64, threads: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig_resilience",
        "Fault injection: delivery and recovery effort per scheme (K = 8)",
        "plain Buzz collapses under total erasure and restarts; buzz+r recovers to >= TDMA delivery",
        &[
            "fault",
            "Buzz delivered",
            "Buzz+R delivered",
            "Buzz+R requests",
            "Buzz+R fallback polls",
            "Buzz+R wasted slots",
            "TDMA delivered",
            "CDMA delivered",
        ],
    );
    let buzz = BuzzProtocol::new(BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    })
    .expect("protocol");
    // A K = 8 session decodes in 5 slots, so the default snapshot every 4
    // data slots would leave the slot-3 restart nothing to resume from; a
    // snapshot every 2 resumes at data slot 2 and replays one slot.  Only a
    // restart reads a snapshot, so the other rows are unaffected.
    let resilient = ResilientBuzzProtocol::new(
        BuzzConfig {
            periodic_mode: true,
            ..BuzzConfig::default()
        },
        RecoveryConfig {
            checkpoint_interval: 2,
        },
    )
    .expect("protocol");
    let tdma = TdmaProtocol::paper_default().expect("tdma");
    let cdma = CdmaProtocol;
    let panel: [&dyn Protocol; 4] = [&buzz, &resilient, &tdma, &cdma];
    let groups = compare(
        &panel,
        &RESILIENCE_FAULTS,
        locations,
        threads,
        |fault, location| resilience_scenario(fault, location, base_seed),
        |location| vec![location],
    );
    for (&fault, cells) in RESILIENCE_FAULTS.iter().zip(&groups) {
        let mut buzz_dec = 0.0;
        let mut r_dec = 0.0;
        let mut r_requests = 0.0;
        let mut r_polls = 0.0;
        let mut r_wasted = 0.0;
        let mut tdma_dec = 0.0;
        let mut cdma_dec = 0.0;
        let mut runs = 0.0;
        for cell in cells {
            runs += 1.0;
            buzz_dec += cell.outcome(0).delivered_messages as f64;
            let with_recovery = cell.outcome(1);
            r_dec += with_recovery.delivered_messages as f64;
            let recovery = with_recovery
                .diagnostics
                .as_ref()
                .and_then(|d| d.recovery.as_ref())
                .expect("buzz+r recovery diagnostics");
            r_requests += recovery.extra_slot_requests as f64;
            r_polls += recovery.fallback_polls as f64;
            r_wasted += recovery.wasted_slots as f64;
            tdma_dec += cell.outcome(2).delivered_messages as f64;
            cdma_dec += cell.outcome(3).delivered_messages as f64;
        }
        report.push_row(vec![
            fault.to_string(),
            format!("{:.2}", buzz_dec / runs),
            format!("{:.2}", r_dec / runs),
            format!("{:.2}", r_requests / runs),
            format!("{:.2}", r_polls / runs),
            format!("{:.2}", r_wasted / runs),
            format!("{:.2}", tdma_dec / runs),
            format!("{:.2}", cdma_dec / runs),
        ]);
    }
    report.push_finding(
        "recovery turns total-loss fault regimes into >= TDMA delivery at bounded extra cost"
            .into(),
    );
    report
}

/// The `fig_fleet` operating points: (readers, shared population size).
const FLEET_GRID: [(usize, usize); 3] = [(50, 2_500), (100, 5_000), (200, 10_000)];

/// The fleet configuration for one `fig_fleet` operating point.
fn fleet_config(readers: usize, population: usize, base_seed: u64) -> FleetConfig {
    FleetConfig {
        readers,
        population,
        seed: base_seed,
        ..FleetConfig::default()
    }
}

/// Fleet extrapolation (no paper counterpart): hundreds of staggered readers
/// over one shared persistent tag population.
///
/// The paper evaluates one reader and one cart of tags; a warehouse runs a
/// *fleet*, and a tag that misses one session carries its message to the
/// next reader that inventories it.  The grid scales readers and population
/// together at fixed cell size (K = 16 per session, 2 inventory epochs,
/// 10 % of tags off the floor per epoch), comparing Buzz, `buzz+r`, and
/// TDMA through the same [`Protocol`] panel the single-session figures use.
/// Unlike those figures this one does not average over locations — the fleet
/// run is itself the ensemble (hundreds of sessions per cell of the grid) —
/// so `locations` does not appear; `threads` shards sessions across the
/// repository's work-stealing executor with byte-identical output.
#[must_use]
pub fn fig_fleet(base_seed: u64, threads: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig_fleet",
        "Warehouse fleet: staggered readers over a shared persistent population (K = 16 per cell)",
        "overlapping sessions sustain >10k aggregate msgs/s; conservation (offered = delivered + lost + carried) holds everywhere",
        &[
            "readers",
            "tags",
            "scheme",
            "sessions",
            "offered",
            "delivered",
            "carried",
            "lost",
            "msgs/s",
            "p50 ms",
            "p99 ms",
            "uJ/msg",
            "util",
        ],
    );
    let buzz = BuzzProtocol::new(BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    })
    .expect("protocol");
    let resilient = ResilientBuzzProtocol::new(
        BuzzConfig {
            periodic_mode: true,
            ..BuzzConfig::default()
        },
        RecoveryConfig::default(),
    )
    .expect("protocol");
    let tdma = TdmaProtocol::paper_default().expect("tdma");
    let panel: [&dyn Protocol; 3] = [&buzz, &resilient, &tdma];
    let mut conserved = true;
    let mut headline: Vec<f64> = Vec::new();
    let mut peak = 0usize;
    for &(readers, population) in &FLEET_GRID {
        let config = fleet_config(readers, population, base_seed);
        for protocol in panel {
            let outcome = run_fleet(protocol, &config, threads).expect("fleet run");
            conserved &= outcome.conservation_holds();
            if (readers, population) == FLEET_GRID[FLEET_GRID.len() - 1] {
                headline.push(outcome.total_msgs_per_s);
                peak = peak.max(outcome.peak_concurrent_sessions);
            }
            report.push_row(vec![
                readers.to_string(),
                population.to_string(),
                outcome.scheme.clone(),
                outcome.sessions.to_string(),
                outcome.offered.to_string(),
                outcome.delivered.to_string(),
                outcome.carried_over.to_string(),
                outcome.lost.to_string(),
                format!("{:.1}", outcome.total_msgs_per_s),
                format!("{:.2}", outcome.p50_session_ms),
                format!("{:.2}", outcome.p99_session_ms),
                format!("{:.2}", outcome.energy_per_delivered_j * 1e6),
                format!("{:.3}", outcome.mean_utilization),
            ]);
        }
    }
    report.push_finding(format!(
        "message conservation holds at every operating point: {conserved}"
    ));
    if let (Some(buzz_rate), Some(tdma_rate)) = (headline.first(), headline.last()) {
        report.push_finding(format!(
            "200 readers / 10k tags: buzz {buzz_rate:.0} msgs/s vs TDMA {tdma_rate:.0} msgs/s ({:.1}x), peak {peak} concurrent sessions",
            buzz_rate / tdma_rate
        ));
    }
    report
}

/// Fig. 13: per-query energy consumption vs starting voltage.
#[must_use]
pub fn fig13(locations: u64, base_seed: u64, threads: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig13",
        "Per-query tag energy vs starting voltage (K = 8)",
        "Buzz ~ TDMA << CDMA, all growing with the supply voltage",
        &["V0 (V)", "Buzz (uJ)", "TDMA (uJ)", "CDMA (uJ)"],
    );
    let v0s = [3.0f64, 4.0, 5.0];
    let buzz = buzz_periodic();
    let tdma = TdmaProtocol::paper_default().expect("tdma");
    let cdma = CdmaProtocol;
    let panel: [&dyn Protocol; 3] = [&buzz, &tdma, &cdma];
    let groups = compare(
        &panel,
        &v0s,
        locations,
        threads,
        |v0, location| {
            ScenarioBuilder::paper_uplink(8, base_seed + location * 17)
                .starting_voltage_v(v0)
                .build()
                .expect("scenario")
        },
        |location| vec![location],
    );
    for (v0, cells) in v0s.iter().zip(&groups) {
        let mut buzz_uj = 0.0;
        let mut tdma_uj = 0.0;
        let mut cdma_uj = 0.0;
        let mut runs = 0.0;
        for cell in cells {
            runs += 1.0;
            buzz_uj += cell.outcome(0).mean_energy_j() * 1e6;
            tdma_uj += cell.outcome(1).mean_energy_j() * 1e6;
            cdma_uj += cell.outcome(2).mean_energy_j() * 1e6;
        }
        report.push_row(vec![
            format!("{v0:.0}"),
            format!("{:.2}", buzz_uj / runs),
            format!("{:.2}", tdma_uj / runs),
            format!("{:.2}", cdma_uj / runs),
        ]);
    }
    report.push_finding("sparse participation keeps Buzz's energy near TDMA's".into());
    report
}

/// Fig. 14: identification time vs number of tags.
#[must_use]
pub fn fig14(locations: u64, base_seed: u64, threads: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig14",
        "Identification time vs number of tags",
        "Buzz ~5.5x faster than FSA and ~4.5x faster than FSA with known K at 16 tags",
        &["K", "Buzz (ms)", "FSA (ms)", "FSA+K (ms)", "Buzz exact"],
    );
    let ks = [4usize, 8, 12, 16];
    let buzz = buzz_full();
    let fsa = FsaIdentification;
    let fsa_k = FsaWithEstimatedK;
    // Panel order matters: FSA+K̂ runs last so `run_after` can read Buzz's
    // K̂ estimate from the cell's prior diagnostics.
    let panel: [&dyn Protocol; 3] = [&buzz, &fsa, &fsa_k];
    let groups = compare(
        &panel,
        &ks,
        locations,
        threads,
        |k, location| {
            let seed = base_seed + location * 53 + k as u64;
            ScenarioBuilder::paper_uplink(k, seed)
                .build()
                .expect("scenario")
        },
        |location| vec![location],
    );
    let mut gain_at_16 = 0.0;
    for (&k, cells) in ks.iter().zip(&groups) {
        let mut buzz_ms = 0.0;
        let mut fsa_ms = 0.0;
        let mut fsa_k_ms = 0.0;
        let mut exact = 0usize;
        let mut runs = 0.0;
        for cell in cells {
            let diag = cell
                .outcome(0)
                .diagnostics
                .as_ref()
                .expect("buzz diagnostics");
            runs += 1.0;
            buzz_ms += diag.identification_time_ms.expect("event-driven mode");
            if diag.identification_exact == Some(true) {
                exact += 1;
            }
            fsa_ms += cell.outcome(1).wall_time_ms;
            fsa_k_ms += cell.outcome(2).wall_time_ms;
        }
        if k == 16 {
            gain_at_16 = fsa_ms / buzz_ms.max(1e-9);
        }
        report.push_row(vec![
            k.to_string(),
            format!("{:.2}", buzz_ms / runs),
            format!("{:.2}", fsa_ms / runs),
            format!("{:.2}", fsa_k_ms / runs),
            format!("{exact}/{}", runs as usize),
        ]);
    }
    report.push_finding(format!(
        "identification speed-up over FSA at 16 tags: {gain_at_16:.1}x"
    ));
    report
}

/// Lemma 5.1: accuracy and termination step of the K estimator.
#[must_use]
pub fn lemma51(base_seed: u64, threads: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "lemma5.1",
        "Cardinality-estimation accuracy (Monte Carlo)",
        "K_hat = (1 +/- eps)K with s = C log(1/delta)/eps^2 slots per step; j* = log K + O(1)",
        &["K", "s", "mean K_hat", "mean |err| (%)", "mean j*"],
    );
    let cells: Vec<(usize, usize)> = [8usize, 32, 128]
        .iter()
        .flat_map(|&k| [4usize, 64, 256].iter().map(move |&s| (k, s)))
        .collect();
    // One shard per (K, s) cell; every trial derives its stream from the
    // explicit seed, so cells are independent.
    let rows = work_steal_map(threads, cells, |(k, s)| {
        let trials = 30u64;
        let mut sum_k = 0.0;
        let mut sum_err = 0.0;
        let mut sum_j = 0.0;
        for t in 0..trials {
            let mut est = KEstimator::new(s).expect("estimator");
            let mut rng = Xoshiro256::seed_from_u64(base_seed + t * 977 + k as u64 + s as u64);
            let estimate = loop {
                let p = est.next_probability().expect("probability");
                let mut empty = 0;
                for _ in 0..s {
                    if !(0..k).any(|_| rng.next_f64() < p) {
                        empty += 1;
                    }
                }
                if let Some(e) = est.record_step(empty).expect("step") {
                    break e;
                }
            };
            sum_k += estimate.k_hat;
            sum_err += (estimate.k_hat - k as f64).abs() / k as f64;
            sum_j += estimate.terminating_step as f64;
        }
        vec![
            k.to_string(),
            s.to_string(),
            format!("{:.1}", sum_k / trials as f64),
            format!("{:.1}", sum_err / trials as f64 * 100.0),
            format!("{:.1}", sum_j / trials as f64),
        ]
    });
    for row in rows {
        report.push_row(row);
    }
    report.push_finding(
        "relative error shrinks with more slots per step, as the lemma predicts".into(),
    );
    report
}

/// §1/§10 headline: the combined communication-efficiency gain.
#[must_use]
pub fn headline(locations: u64, base_seed: u64, threads: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "headline",
        "Overall communication-efficiency gain (identification + data, K = 16)",
        "~5.5x identification speed-up and ~2x data speed-up combine to ~3.5x overall",
        &[
            "scheme",
            "identification (ms)",
            "data (ms)",
            "total (ms)",
            "msgs/s",
        ],
    );
    let k = 16usize;
    // One comparison cell per location; the panel pits Buzz's two phases
    // against the commercial pipeline (FSA identification + TDMA data).
    let buzz = buzz_full();
    let fsa = FsaIdentification;
    let tdma = TdmaProtocol::paper_default().expect("tdma");
    let panel: [&dyn Protocol; 3] = [&buzz, &fsa, &tdma];
    let groups = compare(
        &panel,
        &[k],
        locations,
        threads,
        |k, location| {
            let seed = base_seed + location * 211;
            ScenarioBuilder::paper_uplink(k, seed)
                .build()
                .expect("scenario")
        },
        |location| vec![location],
    );
    let mut buzz_ident = 0.0;
    let mut buzz_data = 0.0;
    let mut buzz_throughput = 0.0;
    let mut gen2_ident = 0.0;
    let mut gen2_data = 0.0;
    let mut gen2_throughput = 0.0;
    let mut runs = 0.0;
    for cell in &groups[0] {
        let buzz = cell.outcome(0);
        let diag = buzz.diagnostics.as_ref().expect("buzz diagnostics");
        runs += 1.0;
        buzz_ident += diag.identification_time_ms.expect("ident");
        buzz_data += diag.data_time_ms;
        // The combined session metric: delivered messages per second of
        // total (identification + data) air time, per cell.
        buzz_throughput += buzz.throughput_msgs_per_s();
        let (fsa, tdma) = (cell.outcome(1), cell.outcome(2));
        gen2_ident += fsa.wall_time_ms;
        gen2_data += tdma.wall_time_ms;
        let gen2_wall_s = (fsa.wall_time_ms + tdma.wall_time_ms) / 1e3;
        if gen2_wall_s > 0.0 {
            gen2_throughput += tdma.delivered_messages as f64 / gen2_wall_s;
        }
    }
    let buzz_total = (buzz_ident + buzz_data) / runs;
    let gen2_total = (gen2_ident + gen2_data) / runs;
    report.push_row(vec![
        "Buzz".into(),
        format!("{:.2}", buzz_ident / runs),
        format!("{:.2}", buzz_data / runs),
        format!("{buzz_total:.2}"),
        format!("{:.0}", buzz_throughput / runs),
    ]);
    report.push_row(vec![
        "Gen-2 (FSA + TDMA)".into(),
        format!("{:.2}", gen2_ident / runs),
        format!("{:.2}", gen2_data / runs),
        format!("{gen2_total:.2}"),
        format!("{:.0}", gen2_throughput / runs),
    ]);
    report.push_finding(format!(
        "overall efficiency gain: {:.2}x",
        gen2_total / buzz_total.max(1e-9)
    ));
    report.push_finding(format!(
        "combined session throughput: {:.0} vs {:.0} msgs/s ({:.2}x)",
        buzz_throughput / runs,
        gen2_throughput / runs,
        (buzz_throughput / runs) / (gen2_throughput / runs).max(1e-9)
    ));
    report
}

/// One registered figure: the experiment service's unit of planning.
///
/// Every reproduced table/figure registers here instead of being hard-wired
/// into `reproduce`: [`crate::orchestrate::SweepPlan`] expands this table
/// into addressable jobs and lists it when handed an unknown figure, and
/// every `reproduce` form runs figures only through those jobs.  Adding a
/// figure is one row; forgetting to wire it anywhere is no longer possible.
pub struct FigureEntry {
    /// Canonical figure id (the primary CLI name and the plan job id).
    pub id: &'static str,
    /// Accepted CLI spellings besides `id`.
    pub aliases: &'static [&'static str],
    /// Runs the figure.  Every runner takes the uniform
    /// `(locations, base_seed, threads)` triple; figures that ignore a
    /// parameter (e.g. [`table12`]) simply drop it, which keeps the
    /// registry, the planner, and the shard runner signature-free.  The
    /// plan guarantees `locations >= 1`.
    pub run: fn(u64, u64, usize) -> ExperimentReport,
}

/// Every reproduced figure, in `reproduce all` output order.
pub const FIGURES: [FigureEntry; 16] = [
    FigureEntry {
        id: "table12",
        aliases: &["table1-2"],
        run: |_, _, _| table12(),
    },
    FigureEntry {
        id: "fig2_3",
        aliases: &["fig2", "fig3"],
        run: |_, seed, _| fig2_3(seed),
    },
    FigureEntry {
        id: "fig7",
        aliases: &[],
        run: |_, seed, _| fig7(seed),
    },
    FigureEntry {
        id: "fig8",
        aliases: &[],
        run: |_, _, _| fig8(),
    },
    FigureEntry {
        id: "fig9",
        aliases: &[],
        run: |_, seed, _| fig9(seed),
    },
    FigureEntry {
        id: "fig10",
        aliases: &[],
        run: fig10,
    },
    FigureEntry {
        id: "fig11",
        aliases: &[],
        run: fig11,
    },
    FigureEntry {
        id: "fig11_large",
        aliases: &["fig11-large"],
        run: fig11_large,
    },
    FigureEntry {
        id: "fig12",
        aliases: &[],
        run: fig12,
    },
    FigureEntry {
        id: "fig_fading",
        aliases: &["fig-fading", "fading"],
        run: fig_fading,
    },
    FigureEntry {
        id: "fig_resilience",
        aliases: &["fig-resilience", "resilience"],
        run: fig_resilience,
    },
    FigureEntry {
        id: "fig_fleet",
        aliases: &["fig-fleet", "fleet"],
        run: |_, seed, threads| fig_fleet(seed, threads),
    },
    FigureEntry {
        id: "fig13",
        aliases: &[],
        run: fig13,
    },
    FigureEntry {
        id: "fig14",
        aliases: &[],
        run: fig14,
    },
    FigureEntry {
        id: "lemma51",
        aliases: &["lemma5.1"],
        run: |_, seed, threads| lemma51(seed, threads),
    },
    FigureEntry {
        id: "headline",
        aliases: &[],
        run: headline,
    },
];

/// Looks a figure up by its canonical id or any registered alias.
#[must_use]
pub fn find_figure(name: &str) -> Option<&'static FigureEntry> {
    FIGURES
        .iter()
        .find(|f| f.id == name || f.aliases.contains(&name))
}

/// The canonical ids of every registered figure, in registry order — the
/// list `reproduce` prints when handed an unknown figure name.
#[must_use]
pub fn known_figure_ids() -> Vec<&'static str> {
    FIGURES.iter().map(|f| f.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table12_reproduces_paper_probabilities() {
        let r = table12();
        assert_eq!(r.rows.len(), 10);
        assert!(r
            .findings
            .iter()
            .any(|f| f.contains("0.250") && f.contains("0.333")));
    }

    #[test]
    fn fig2_3_levels_double_with_tags() {
        let r = fig2_3(1);
        // rows: tags = 1, 2, 3 -> constellation points 2, 4, 8.
        assert_eq!(r.rows[0][2], "2");
        assert_eq!(r.rows[1][2], "4");
        assert_eq!(r.rows[2][2], "8");
    }

    #[test]
    fn fig7_percentiles_match_measurements() {
        let r = fig7(2);
        let commercial_p90: f64 = r.rows[0][2].parse().unwrap();
        let moo_p90: f64 = r.rows[1][2].parse().unwrap();
        assert!((commercial_p90 - 0.3).abs() < 0.1);
        assert!((moo_p90 - 0.5).abs() < 0.1);
    }

    #[test]
    fn fig8_correction_helps() {
        let r = fig8();
        let without: f64 = r.rows[0][1].parse().unwrap();
        let with: f64 = r.rows[1][1].parse().unwrap();
        assert!(without > 0.4);
        assert!(with < 0.05);
    }

    #[test]
    fn fig9_decodes_everyone() {
        let r = fig9(3);
        assert!(r.findings[0].contains("all 14 tags decoded"));
    }

    #[test]
    fn quick_uplink_comparison_shows_buzz_ahead() {
        // One location is enough for a smoke check of the Fig. 10 machinery.
        let c = &run_uplink_matrix(&[8], 1, 42, 1)[0];
        assert!(c.buzz_time_ms < c.tdma_time_ms);
        assert!(c.buzz_undecoded <= c.tdma_undecoded + 0.51);
    }

    /// Column `col` of every row of `report`, parsed as a number.
    fn column(report: &ExperimentReport, col: usize) -> Vec<f64> {
        report
            .rows
            .iter()
            .map(|row| row[col].parse().expect("numeric cell"))
            .collect()
    }

    #[test]
    fn paper_claims_hold_on_the_default_decoder() {
        // Each K <= 16 figure's `paper:` claim, asserted numerically on the
        // grid `reproduce` prints (DEFAULT_LOCATIONS, base seed 2012), with
        // Buzz on the default decode schedule.  The claims stay pinned while
        // the figures' bytes are free to improve.
        let (locations, seed, threads) = (DEFAULT_LOCATIONS, 2012, 2);

        // Fig. 9: all 14 tags decode within 7 slots.
        let r = fig9(seed);
        let last = r.rows.last().expect("fig9 rows");
        let slots: usize = last[0].parse().unwrap();
        let decoded: usize = last[1].parse::<usize>().unwrap() + last[2].parse::<usize>().unwrap();
        assert_eq!(decoded, 14, "fig9: {decoded} of 14 decoded");
        assert!(slots <= 7, "fig9: all 14 decoded only after {slots} slots");

        // Fig. 10: Buzz beats TDMA at every K >= 8, and by >= 1.4x on
        // average over K = 4..16.
        let r = fig10(locations, seed, threads);
        let (ks, buzz, tdma) = (column(&r, 0), column(&r, 1), column(&r, 2));
        for ((k, b), t) in ks.iter().zip(&buzz).zip(&tdma) {
            assert!(
                *k < 8.0 || b < t,
                "fig10 K = {k}: Buzz {b} ms vs TDMA {t} ms"
            );
        }
        let speedup = tdma.iter().zip(&buzz).map(|(t, b)| t / b).sum::<f64>() / ks.len() as f64;
        assert!(speedup >= 1.4, "fig10: mean speed-up {speedup:.2}x");

        // Fig. 11: Buzz leaves no message undecoded.
        let r = fig11(locations, seed, threads);
        assert!(
            column(&r, 1).iter().all(|&u| u == 0.0),
            "fig11: {:?}",
            r.rows
        );

        // Fig. 12: zero loss at 22 and 15 dB, and never fewer than TDMA.
        let r = fig12(locations, seed, threads);
        let (snrs, buzz, tdma) = (column(&r, 0), column(&r, 1), column(&r, 3));
        for ((snr, b), t) in snrs.iter().zip(&buzz).zip(&tdma) {
            assert!(*snr < 15.0 || *b == 4.0, "fig12 {snr} dB: Buzz decoded {b}");
            assert!(b >= t, "fig12 {snr} dB: Buzz {b} vs TDMA {t}");
        }

        // Fig. 13: Buzz ~ TDMA << CDMA at every starting voltage.
        let r = fig13(locations, seed, threads);
        let (buzz, tdma, cdma) = (column(&r, 1), column(&r, 2), column(&r, 3));
        for ((b, t), c) in buzz.iter().zip(&tdma).zip(&cdma) {
            assert!(*b <= 1.5 * t, "fig13: Buzz {b} uJ vs TDMA {t} uJ");
            assert!(*b <= 0.5 * c, "fig13: Buzz {b} uJ vs CDMA {c} uJ");
        }

        // Headline: identification + data beat Gen-2 by >= 2.6x.
        let r = headline(locations, seed, threads);
        let totals = column(&r, 3);
        let gain = totals[1] / totals[0];
        assert!(gain >= 2.6, "headline: overall gain {gain:.2}x");
    }

    #[test]
    fn fig_fading_regression_pins_regime_boundary() {
        // The seeded baseline behind the fading bugfix: the exact grid the
        // CI `reproduce fig_fading` run records (DEFAULT_LOCATIONS, the
        // reproduce binary's base seed).  Pinning both decoders' delivery
        // figures turns "the regime boundary moved" from an eyeballed claim
        // into a regression test: bit-flipping (with the dominated-slot
        // refit) delivers everything to doppler 0.05, degrades at 0.08 and
        // 0.12 and collapses to zero at 0.16, while the message-passing
        // schedule keeps delivering at every operating point past the
        // boundary.
        let r = fig_fading(DEFAULT_LOCATIONS, 2012, 2);
        let expected: [&[&str]; 6] = [
            &["0.00", "1.00", "8.00", "5.0", "8.00", "7.0", "8.00", "7.00"],
            &["0.01", "0.80", "8.00", "5.0", "8.00", "7.0", "8.00", "7.20"],
            &["0.05", "0.50", "8.00", "5.0", "8.00", "7.0", "8.00", "5.40"],
            &[
                "0.08", "0.35", "4.80", "69.2", "7.40", "38.4", "8.00", "4.20",
            ],
            &[
                "0.12", "0.25", "3.20", "99.2", "7.60", "69.2", "8.00", "4.20",
            ],
            &[
                "0.16", "0.20", "0.00", "160.0", "3.00", "160.0", "8.00", "4.40",
            ],
        ];
        assert_eq!(r.rows.len(), expected.len());
        for (row, want) in r.rows.iter().zip(expected) {
            assert_eq!(row, want, "fig_fading row drifted from the pinned baseline");
        }
        // The acceptance criterion: strictly better delivery at >= 2
        // operating points beyond the bit-flipping regime boundary.
        let strictly_better = r
            .rows
            .iter()
            .filter(|row| {
                let hard: f64 = row[2].parse().unwrap();
                let soft: f64 = row[4].parse().unwrap();
                soft > hard
            })
            .count();
        assert!(
            strictly_better >= 2,
            "message passing beat bit-flipping at only {strictly_better} operating points"
        );
    }

    #[test]
    fn message_passing_agrees_with_bit_flipping_on_paper_scale_uplinks() {
        // Differential over the K <= 16 populations the paper figures sweep:
        // on static channels the soft-decision schedule must deliver exactly
        // the messages the default bit-flipping decoder delivers —
        // all of them, CRC-verified, so agreement is bit for bit.
        for k in [2usize, 4, 8, 12, 16] {
            let hard = buzz_periodic();
            let soft = BuzzProtocol::new(BuzzConfig {
                periodic_mode: true,
                transfer: TransferConfig {
                    decode_schedule: DecodeSchedule::MessagePassing,
                    ..TransferConfig::default()
                },
                ..BuzzConfig::default()
            })
            .expect("protocol");
            let seed = 9_000 + k as u64;
            let mut scenario_a = ScenarioBuilder::paper_uplink(k, seed).build().unwrap();
            let mut scenario_b = ScenarioBuilder::paper_uplink(k, seed).build().unwrap();
            let hard = hard.run(&mut scenario_a, 7).unwrap();
            let soft = soft.run(&mut scenario_b, 7).unwrap();
            assert_eq!(hard.correct_messages, k, "bit-flipping failed at K = {k}");
            assert_eq!(
                soft.correct_messages, k,
                "message passing failed at K = {k}"
            );
            assert_eq!(soft.incorrect_messages, 0, "wrong lock at K = {k}");
        }
    }

    #[test]
    fn fig_fading_matches_across_thread_counts() {
        let serial = fig_fading(2, 77, 1);
        let parallel = fig_fading(2, 77, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn fig_resilience_regression_pins_recovered_operating_points() {
        // The seeded baseline behind the recovery layer: the exact grid the
        // CI `reproduce fig_resilience` run records (DEFAULT_LOCATIONS, the
        // reproduce binary's base seed).  The acceptance criterion rides on
        // two pinned operating points — total erasure and a reader restart —
        // where the plain protocol delivers zero and buzz+r recovers to at
        // least TDMA's delivery.
        let r = fig_resilience(DEFAULT_LOCATIONS, 2012, 2);
        let expected: [&[&str]; 8] = [
            &[
                "clean", "8.00", "8.00", "0.00", "0.00", "0.00", "8.00", "7.20",
            ],
            &[
                "erase30", "8.00", "8.00", "0.00", "0.00", "0.00", "8.00", "0.00",
            ],
            &[
                "erase100", "0.00", "8.00", "3.00", "8.20", "0.00", "8.00", "0.00",
            ],
            &[
                "burst8/4", "8.00", "8.00", "0.00", "0.00", "0.00", "8.00", "0.00",
            ],
            &[
                "erase50+fb50",
                "8.00",
                "8.00",
                "0.60",
                "0.00",
                "0.00",
                "4.00",
                "0.00",
            ],
            &[
                "noise8x", "8.00", "8.00", "0.40", "0.00", "0.00", "7.20", "5.80",
            ],
            &[
                "dropout25",
                "8.00",
                "8.00",
                "0.00",
                "0.00",
                "0.00",
                "8.00",
                "6.00",
            ],
            &[
                "restart3", "0.00", "8.00", "0.00", "0.00", "1.00", "7.80", "0.00",
            ],
        ];
        assert_eq!(r.rows.len(), expected.len());
        for (row, want) in r.rows.iter().zip(expected) {
            assert_eq!(
                row, want,
                "fig_resilience row drifted from the pinned baseline"
            );
        }
        // The acceptance criterion, read back from the pinned rows: >= 2
        // operating points where plain Buzz delivers zero and buzz+r
        // delivers at least TDMA.
        let recovered = r
            .rows
            .iter()
            .filter(|row| {
                let plain: f64 = row[1].parse().unwrap();
                let recovered: f64 = row[2].parse().unwrap();
                let tdma: f64 = row[6].parse().unwrap();
                plain == 0.0 && recovered >= tdma
            })
            .count();
        assert!(
            recovered >= 2,
            "recovery beat a dead plain session at only {recovered} operating points"
        );
    }

    #[test]
    fn fig_fleet_regression_pins_the_grid() {
        // The rows `reproduce fig_fleet` prints at the reproduce binary's
        // base seed.  The fleet layer promises byte-identical
        // output for every thread count, so the pin runs sharded (threads =
        // 2) and must still match the recorded serial rows exactly.
        let r = fig_fleet(2012, 2);
        let expected: [&[&str]; 9] = [
            &[
                "50", "2500", "buzz", "100", "1600", "1600", "0", "0", "15033.5", "4.21", "6.06",
                "1.88", "0.082",
            ],
            &[
                "50", "2500", "buzz+r", "100", "1600", "1600", "0", "0", "15033.5", "4.21", "6.06",
                "1.88", "0.082",
            ],
            &[
                "50", "2500", "tdma", "100", "1598", "1597", "1", "0", "13911.1", "8.40", "8.40",
                "1.45", "0.146",
            ],
            &[
                "100", "5000", "buzz", "200", "3200", "3200", "0", "0", "15501.7", "4.21", "6.06",
                "1.90", "0.043",
            ],
            &[
                "100", "5000", "buzz+r", "200", "3200", "3200", "0", "0", "15501.7", "4.21",
                "6.06", "1.90", "0.043",
            ],
            &[
                "100", "5000", "tdma", "200", "3197", "3186", "11", "0", "14832.4", "8.40", "8.40",
                "1.46", "0.078",
            ],
            &[
                "200", "10000", "buzz", "400", "6400", "6399", "1", "0", "15744.5", "4.21", "6.06",
                "1.89", "0.022",
            ],
            &[
                "200", "10000", "buzz+r", "400", "6400", "6399", "1", "0", "15744.5", "4.21",
                "6.06", "1.89", "0.022",
            ],
            &[
                "200", "10000", "tdma", "400", "6398", "6372", "26", "0", "15361.6", "8.40",
                "8.40", "1.46", "0.041",
            ],
        ];
        assert_eq!(r.rows.len(), expected.len());
        for (row, want) in r.rows.iter().zip(expected) {
            assert_eq!(row, want, "fig_fleet row drifted from the pinned baseline");
        }
        assert!(r
            .findings
            .iter()
            .any(|f| f.contains("conservation holds at every operating point: true")));
    }

    #[test]
    fn fig_resilience_matches_across_thread_counts() {
        let serial = fig_resilience(2, 77, 1);
        let parallel = fig_resilience(2, 77, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn figure_registry_resolves_ids_and_aliases_uniquely() {
        // Canonical ids resolve to themselves, aliases resolve to their
        // figure, and no spelling is claimed twice.
        let mut seen = std::collections::HashSet::new();
        for figure in &FIGURES {
            assert!(seen.insert(figure.id), "duplicate figure id {}", figure.id);
            assert_eq!(find_figure(figure.id).unwrap().id, figure.id);
            for alias in figure.aliases {
                assert!(seen.insert(alias), "duplicate alias {alias}");
                assert_eq!(find_figure(alias).unwrap().id, figure.id);
            }
        }
        assert!(find_figure("fig99").is_none());
        assert!(find_figure("").is_none());
        assert_eq!(known_figure_ids().len(), FIGURES.len());
    }

    #[test]
    fn registry_order_is_the_run_all_paper_order() {
        assert_eq!(
            known_figure_ids(),
            vec![
                "table12",
                "fig2_3",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "fig11_large",
                "fig12",
                "fig_fading",
                "fig_resilience",
                "fig_fleet",
                "fig13",
                "fig14",
                "lemma51",
                "headline",
            ]
        );
    }

    #[test]
    fn sharded_experiments_match_serial_byte_for_byte() {
        // The determinism contract across thread counts: every report a
        // parallel run produces must equal the serial run's, cell for cell.
        // Exercises each sharding shape (uplink matrix, flat (param,
        // location) cells, per-location, per-(k, s) rows).
        let serial = [fig13(2, 77, 1), lemma51(77, 1), headline(2, 77, 1)];
        let parallel = [fig13(2, 77, 4), lemma51(77, 4), headline(2, 77, 4)];
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s, p, "{} diverged across threads", s.id);
        }
    }
}
