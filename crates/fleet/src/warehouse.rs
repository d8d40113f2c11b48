//! The warehouse epoch loop and the aggregate fleet headline.
//!
//! One fleet run is a sequence of *epochs*.  In each epoch the tags present
//! on the floor (per the population's churn hash) are shuffled with a seeded
//! permutation and dealt into cells of exactly `cell_k` tags; reader `i`
//! runs one session over cell `i` through the shared [`Protocol`] trait.
//! Planning (who reads whom, which messages are offered) and committing
//! (which deliveries clear pending state) are serial and reader-ordered;
//! only the physics — the sessions themselves — runs on the work-stealing
//! executor.  Since a session is a pure function of its plan, the committed
//! state and every reported number are byte-identical for any `threads`.
//!
//! Reader time is simulated air time: reader `r`'s clock starts at
//! `r * stagger_ms` (staggered power-up) and advances by each session's
//! `wall_time_ms`.  The [`FleetOutcome`] merges all session intervals
//! event-ordered to report fleet-level concurrency and utilization, plus the
//! headline: total delivered msgs/s, p50/p99 session latency, and energy per
//! delivered message.  Host-side compute time is captured per session
//! (`SessionRecord::host_ms`) for profiling but excluded from equality, so
//! the determinism contract stays exact.

use backscatter_prng::{Rng64, SplitMix64, Xoshiro256};
use backscatter_sim::{PersistentTag, Scenario};
use buzz::executor::work_steal_map;
use buzz::session::{Protocol, SessionOutcome};

use crate::population::Population;
use crate::{FleetError, FleetResult};

/// Stream salt for the per-epoch assignment shuffle.
const ASSIGN_STREAM: u64 = 0xa551_6e00;
/// Stream salt for per-session scenario seeds.
const SCENARIO_STREAM: u64 = 0x5ce0_a10a;
/// Stream salt for per-session noise realizations.
const NOISE_STREAM: u64 = 0x0150_fade;

/// Configuration for one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Readers on the warehouse floor.
    pub readers: usize,
    /// Tags in the shared population.
    pub population: usize,
    /// Tags per session cell (every session sees exactly this many).
    pub cell_k: usize,
    /// Epochs (inventory rounds) to run.
    pub epochs: usize,
    /// Master seed; everything in the run derives from it.
    pub seed: u64,
    /// Message length in bits.
    pub message_bits: usize,
    /// Probability a tag is off the floor in any given epoch (`[0, 1)`).
    pub away_fraction: f64,
    /// Failed sessions a message survives before it expires as lost.
    pub max_carry: usize,
    /// Power-up stagger between consecutive readers, milliseconds.
    pub stagger_ms: f64,
    /// Global id space the population's ids are drawn from.
    pub global_id_space: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            readers: 50,
            population: 2_500,
            cell_k: 16,
            epochs: 2,
            seed: 2012,
            message_bits: 32,
            away_fraction: 0.1,
            max_carry: 2,
            stagger_ms: 2.0,
            global_id_space: 1 << 32,
        }
    }
}

impl FleetConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidParameter`] when a field is outside its
    /// valid domain.
    pub fn validate(&self) -> FleetResult<()> {
        if self.readers == 0 {
            return Err(FleetError::InvalidParameter(
                "fleet needs at least one reader",
            ));
        }
        if self.cell_k == 0 {
            return Err(FleetError::InvalidParameter(
                "session cells must hold at least one tag",
            ));
        }
        if self.population < self.cell_k {
            return Err(FleetError::InvalidParameter(
                "population must fill at least one session cell",
            ));
        }
        if self.epochs == 0 {
            return Err(FleetError::InvalidParameter(
                "fleet runs need at least one epoch",
            ));
        }
        if self.message_bits == 0 {
            return Err(FleetError::InvalidParameter("messages must be non-empty"));
        }
        if !(0.0..1.0).contains(&self.away_fraction) {
            return Err(FleetError::InvalidParameter(
                "away fraction must be in [0, 1)",
            ));
        }
        if !self.stagger_ms.is_finite() || self.stagger_ms < 0.0 {
            return Err(FleetError::InvalidParameter(
                "reader stagger must be finite and non-negative",
            ));
        }
        if self.global_id_space < self.population as u64 {
            return Err(FleetError::InvalidParameter(
                "global id space must be at least the population size",
            ));
        }
        Ok(())
    }
}

/// One completed session inside a fleet run.
///
/// `PartialEq` deliberately ignores [`host_ms`](Self::host_ms): host compute
/// time is real wall-clock profiling data and would otherwise break the
/// byte-identical `threads = N` contract.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// The reader that ran the session.
    pub reader: usize,
    /// The epoch the session belonged to.
    pub epoch: usize,
    /// Global ids of the tags in the session's cell, scenario tag order.
    pub tag_ids: Vec<u64>,
    /// Session start on the reader's simulated clock, milliseconds.
    pub start_ms: f64,
    /// Session end on the reader's simulated clock, milliseconds.
    pub end_ms: f64,
    /// The protocol outcome.
    pub outcome: SessionOutcome,
    /// Delivery verdict per cell tag (attributed, or the deterministic
    /// first-`delivered` fallback when the scheme cannot attribute).
    pub delivered_flags: Vec<bool>,
    /// Host compute time spent running this session, milliseconds.
    /// Profiling only — excluded from equality and from every deterministic
    /// aggregate.
    pub host_ms: f64,
}

impl PartialEq for SessionRecord {
    fn eq(&self, other: &Self) -> bool {
        self.reader == other.reader
            && self.epoch == other.epoch
            && self.tag_ids == other.tag_ids
            && self.start_ms == other.start_ms
            && self.end_ms == other.end_ms
            && self.outcome == other.outcome
            && self.delivered_flags == other.delivered_flags
    }
}

/// Aggregate outcome of one fleet run.
///
/// Float fields compare exactly, extending the repo's bit-identical
/// determinism contract to fleet scale (host time is kept out of the
/// records' equality for the same reason).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// The scheme that ran the fleet.
    pub scheme: String,
    /// Readers configured.
    pub readers: usize,
    /// Population size.
    pub population: usize,
    /// Epochs run.
    pub epochs: usize,
    /// Sessions completed.
    pub sessions: usize,
    /// Messages offered by the population across the run.
    pub offered: usize,
    /// Messages delivered.
    pub delivered: usize,
    /// Messages lost (expired past their carry budget).
    pub lost: usize,
    /// Messages still pending at the end of the run.
    pub carried_over: usize,
    /// Simulated time from the first session start to the last session end,
    /// milliseconds.
    pub makespan_ms: f64,
    /// Fleet throughput: delivered messages per second of makespan.
    pub total_msgs_per_s: f64,
    /// Median session latency (simulated air time), milliseconds.
    pub p50_session_ms: f64,
    /// 99th-percentile session latency, milliseconds.
    pub p99_session_ms: f64,
    /// Tag energy spent per delivered message, joules (0 when the scheme
    /// does not account energy or nothing was delivered).
    pub energy_per_delivered_j: f64,
    /// Per-reader utilization: fraction of the makespan each reader spent
    /// in a session (readers that never ran report 0).
    pub utilization: Vec<f64>,
    /// Mean of [`utilization`](Self::utilization).
    pub mean_utilization: f64,
    /// Peak number of simultaneously active sessions, from the event-ordered
    /// interval merge.
    pub peak_concurrent_sessions: usize,
    /// Every session, in deterministic (epoch, reader) order.
    pub records: Vec<SessionRecord>,
}

impl FleetOutcome {
    /// The conservation invariant: every offered message was delivered,
    /// lost, or is still pending.
    #[must_use]
    pub fn conservation_holds(&self) -> bool {
        self.offered == self.delivered + self.lost + self.carried_over
    }

    /// Total host compute time across all sessions, milliseconds
    /// (profiling only; varies run to run).
    #[must_use]
    pub fn total_host_ms(&self) -> f64 {
        self.records.iter().map(|r| r.host_ms).sum()
    }
}

/// The per-session plan the planner hands the executor: everything a worker
/// needs to run one session without touching shared state.
struct SessionPlan {
    reader: usize,
    epoch: usize,
    tag_indices: Vec<usize>,
    persistent: Vec<PersistentTag>,
    scenario_seed: u64,
    noise_seed: u64,
}

/// Runs a fleet of `config.readers` readers over a shared persistent
/// population, `threads` sessions at a time, and returns the aggregate
/// outcome.  Output is byte-identical for every `threads` value.
///
/// # Errors
///
/// Returns [`FleetError`] when the configuration is invalid or any session
/// fails to build or run.
pub fn run_fleet(
    protocol: &dyn Protocol,
    config: &FleetConfig,
    threads: usize,
) -> FleetResult<FleetOutcome> {
    config.validate()?;
    let mut population = Population::new(
        config.population,
        config.global_id_space,
        config.message_bits,
        config.seed,
    )?;

    let mut reader_clock: Vec<f64> = (0..config.readers)
        .map(|r| r as f64 * config.stagger_ms)
        .collect();
    let mut records: Vec<SessionRecord> = Vec::new();

    for epoch in 0..config.epochs {
        // Plan (serial): present tags, seeded shuffle, exact cells.
        let mut present: Vec<usize> = (0..population.len())
            .filter(|&i| population.is_present(i, epoch as u64, config.away_fraction))
            .collect();
        let mut rng =
            Xoshiro256::seed_from_u64(SplitMix64::mix(config.seed ^ ASSIGN_STREAM, epoch as u64));
        // Fisher–Yates, back to front.
        for i in (1..present.len()).rev() {
            let j = rng.next_bounded(i as u64 + 1) as usize;
            present.swap(i, j);
        }
        let cells = present.len() / config.cell_k;
        let sessions_this_epoch = cells.min(config.readers);
        let mut plans: Vec<SessionPlan> = Vec::with_capacity(sessions_this_epoch);
        for reader in 0..sessions_this_epoch {
            let tag_indices: Vec<usize> =
                present[reader * config.cell_k..(reader + 1) * config.cell_k].to_vec();
            // Offering is serial and reader-ordered, so the population's
            // counters are schedule-independent.
            let persistent: Vec<PersistentTag> = tag_indices
                .iter()
                .map(|&i| PersistentTag {
                    global_id: population.tags()[i].global_id,
                    message: population.offer(i),
                })
                .collect();
            let scenario_seed = SplitMix64::mix(
                SplitMix64::mix(config.seed ^ SCENARIO_STREAM, epoch as u64),
                reader as u64,
            );
            plans.push(SessionPlan {
                reader,
                epoch,
                tag_indices,
                persistent,
                scenario_seed,
                noise_seed: SplitMix64::mix(scenario_seed, NOISE_STREAM),
            });
        }

        // Execute (parallel): sessions are pure functions of their plans.
        let cell_k = config.cell_k;
        let message_bits = config.message_bits;
        let global_id_space = config.global_id_space;
        let outcomes: Vec<FleetResult<(SessionPlan, SessionOutcome, f64)>> =
            work_steal_map(threads, plans, move |plan| {
                let started = std::time::Instant::now();
                let mut scenario = Scenario::builder(cell_k)
                    .seed(plan.scenario_seed)
                    .message_bits(message_bits)
                    .global_id_space(global_id_space)
                    .persistent_tags(plan.persistent.clone())
                    .build()?;
                let outcome = protocol.run(&mut scenario, plan.noise_seed)?;
                let host_ms = started.elapsed().as_secs_f64() * 1e3;
                Ok((plan, outcome, host_ms))
            });

        // Commit (serial, reader-ordered): population state and reader
        // clocks advance in plan order regardless of execution schedule.
        for result in outcomes {
            let (plan, outcome, host_ms) = result?;
            let delivered_flags = attribute_deliveries(&outcome, plan.tag_indices.len());
            for (&tag, &delivered) in plan.tag_indices.iter().zip(delivered_flags.iter()) {
                population.commit(tag, delivered, config.max_carry);
            }
            let start_ms = reader_clock[plan.reader];
            let end_ms = start_ms + outcome.wall_time_ms;
            reader_clock[plan.reader] = end_ms;
            records.push(SessionRecord {
                reader: plan.reader,
                epoch: plan.epoch,
                tag_ids: plan.persistent.iter().map(|p| p.global_id).collect(),
                start_ms,
                end_ms,
                outcome,
                delivered_flags,
                host_ms,
            });
        }
    }

    Ok(aggregate(protocol.name(), config, &population, records))
}

/// Per-tag delivery verdict for a session: the scheme's own attribution when
/// it provides one, otherwise the deterministic first-`delivered` fallback
/// (schemes like the analytic FSA model count deliveries without naming
/// tags).
fn attribute_deliveries(outcome: &SessionOutcome, cell_len: usize) -> Vec<bool> {
    if outcome.per_tag_delivered.len() == cell_len {
        return outcome.per_tag_delivered.clone();
    }
    let delivered = outcome.delivered_messages.min(cell_len);
    (0..cell_len).map(|i| i < delivered).collect()
}

/// Nearest-rank percentile over an unsorted sample (`p` in `[0, 100]`).
fn percentile_ms(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn aggregate(
    scheme: &str,
    config: &FleetConfig,
    population: &Population,
    records: Vec<SessionRecord>,
) -> FleetOutcome {
    let session_times: Vec<f64> = records.iter().map(|r| r.end_ms - r.start_ms).collect();
    let makespan_ms = records.iter().map(|r| r.end_ms).fold(0.0, f64::max);
    let delivered = population.delivered();

    // Event-ordered merge of the session intervals: sort all start/end
    // events deterministically (time, ends before starts at a tie, then
    // (reader, epoch)) and sweep for the concurrency high-water mark.
    let mut events: Vec<(f64, i8, usize, usize)> = Vec::with_capacity(records.len() * 2);
    for r in &records {
        events.push((r.start_ms, 1, r.reader, r.epoch));
        events.push((r.end_ms, -1, r.reader, r.epoch));
    }
    events.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| (a.2, a.3).cmp(&(b.2, b.3)))
    });
    let mut active: i64 = 0;
    let mut peak: i64 = 0;
    for (_, delta, _, _) in &events {
        active += i64::from(*delta);
        peak = peak.max(active);
    }

    let mut busy_ms = vec![0.0_f64; config.readers];
    for r in &records {
        busy_ms[r.reader] += r.end_ms - r.start_ms;
    }
    let utilization: Vec<f64> = busy_ms
        .iter()
        .map(|&b| {
            if makespan_ms > 0.0 {
                b / makespan_ms
            } else {
                0.0
            }
        })
        .collect();
    let mean_utilization = if utilization.is_empty() {
        0.0
    } else {
        utilization.iter().sum::<f64>() / utilization.len() as f64
    };

    let total_energy_j: f64 = records
        .iter()
        .map(|r| r.outcome.per_tag_energy_j.iter().sum::<f64>())
        .sum();

    FleetOutcome {
        scheme: scheme.to_string(),
        readers: config.readers,
        population: config.population,
        epochs: config.epochs,
        sessions: records.len(),
        offered: population.offered(),
        delivered,
        lost: population.expired(),
        carried_over: population.carried_over(),
        makespan_ms,
        total_msgs_per_s: if makespan_ms > 0.0 {
            delivered as f64 / (makespan_ms / 1e3)
        } else {
            0.0
        },
        p50_session_ms: percentile_ms(&session_times, 50.0),
        p99_session_ms: percentile_ms(&session_times, 99.0),
        energy_per_delivered_j: if delivered > 0 {
            total_energy_j / delivered as f64
        } else {
            0.0
        },
        utilization,
        mean_utilization,
        peak_concurrent_sessions: usize::try_from(peak).unwrap_or(0),
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buzz::protocol::{BuzzConfig, BuzzProtocol};

    fn tiny_config() -> FleetConfig {
        FleetConfig {
            readers: 6,
            population: 64,
            cell_k: 8,
            epochs: 2,
            seed: 77,
            message_bits: 32,
            away_fraction: 0.2,
            max_carry: 1,
            stagger_ms: 10.0,
            global_id_space: 1 << 20,
        }
    }

    fn buzz_periodic() -> BuzzProtocol {
        BuzzProtocol::new(BuzzConfig {
            periodic_mode: true,
            ..BuzzConfig::default()
        })
        .expect("default periodic configuration is valid")
    }

    #[test]
    fn config_validation_rejects_bad_fields() {
        let good = tiny_config();
        assert!(good.validate().is_ok());
        for bad in [
            FleetConfig {
                readers: 0,
                ..good.clone()
            },
            FleetConfig {
                cell_k: 0,
                ..good.clone()
            },
            FleetConfig {
                population: 4,
                ..good.clone()
            },
            FleetConfig {
                epochs: 0,
                ..good.clone()
            },
            FleetConfig {
                message_bits: 0,
                ..good.clone()
            },
            FleetConfig {
                away_fraction: 1.0,
                ..good.clone()
            },
            FleetConfig {
                away_fraction: -0.1,
                ..good.clone()
            },
            FleetConfig {
                stagger_ms: -1.0,
                ..good.clone()
            },
            FleetConfig {
                stagger_ms: f64::NAN,
                ..good.clone()
            },
            FleetConfig {
                global_id_space: 3,
                ..good.clone()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn fleet_run_is_byte_identical_across_thread_counts() {
        let config = tiny_config();
        let protocol = buzz_periodic();
        let serial = run_fleet(&protocol, &config, 1).unwrap();
        for threads in [2, 4] {
            let parallel = run_fleet(&protocol, &config, threads).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn fleet_conserves_messages_and_reports_sane_aggregates() {
        let config = tiny_config();
        let protocol = buzz_periodic();
        let outcome = run_fleet(&protocol, &config, 2).unwrap();
        assert!(outcome.conservation_holds());
        assert!(outcome.sessions > 0);
        assert!(outcome.delivered > 0);
        assert!(outcome.makespan_ms > 0.0);
        assert!(outcome.total_msgs_per_s > 0.0);
        assert!(outcome.p50_session_ms > 0.0);
        assert!(outcome.p99_session_ms >= outcome.p50_session_ms);
        assert!(outcome.peak_concurrent_sessions >= 1);
        assert_eq!(outcome.utilization.len(), config.readers);
        assert!(outcome
            .utilization
            .iter()
            .all(|&u| (0.0..=1.0).contains(&u)));
        assert!(outcome.total_host_ms() > 0.0);
        // Records are in deterministic (epoch, reader) order.
        for pair in outcome.records.windows(2) {
            assert!((pair[0].epoch, pair[0].reader) < (pair[1].epoch, pair[1].reader));
        }
    }

    #[test]
    fn carried_messages_persist_across_epochs() {
        // With aggressive churn and a carry budget, some messages should be
        // offered in one epoch and still pending (or expired) later; the
        // counters must keep conservation exact either way.
        let config = FleetConfig {
            epochs: 4,
            away_fraction: 0.45,
            ..tiny_config()
        };
        let protocol = buzz_periodic();
        let outcome = run_fleet(&protocol, &config, 2).unwrap();
        assert!(outcome.conservation_holds());
        assert_eq!(
            outcome.offered,
            outcome.delivered + outcome.lost + outcome.carried_over
        );
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_ms(&samples, 50.0), 50.0);
        assert_eq!(percentile_ms(&samples, 99.0), 99.0);
        assert_eq!(percentile_ms(&samples, 100.0), 100.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
        assert_eq!(percentile_ms(&[7.5], 99.0), 7.5);
    }

    #[test]
    fn session_record_equality_ignores_host_time() {
        let config = tiny_config();
        let protocol = buzz_periodic();
        let outcome = run_fleet(&protocol, &config, 1).unwrap();
        let mut tweaked = outcome.records[0].clone();
        tweaked.host_ms += 1234.5;
        assert_eq!(outcome.records[0], tweaked);
    }
}
