//! Framed Slotted Aloha inventory with the Gen-2 Q-adjustment algorithm.
//!
//! This is the identification baseline of Fig. 14.  The reader opens a frame
//! of `2^Q` slots with a `Query`; each unidentified tag picks a random slot.
//! A slot with exactly one replying tag is a success (the reader ACKs the
//! tag's RN16); a slot with two or more is a collision; an empty slot is
//! wasted.  After every slot the reader nudges a floating-point `Q_fp` up by
//! `C` on a collision and down by `C` on an empty slot (the standard
//! recommends `C = 0.3` and an initial `Q = 4`), and starts a new round with
//! `QueryAdjust` whenever the rounded `Q` changes or the frame is exhausted.
//!
//! The "FSA with known K̂" variant seeds `Q = ⌈log2 K̂⌉` and lets tags reply
//! with a shorter temporary id, which is how the paper grants the baseline the
//! benefit of Buzz's stage-1 estimate.

use crate::commands::ReaderCommand;
use crate::state::{InventoryState, TagStateMachine};
use crate::timing::PAPER_TIMING;
use crate::{Gen2Error, Gen2Result};

/// What happened in one FSA slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// No tag replied.
    Empty,
    /// Exactly one tag replied and was acknowledged.
    Success,
    /// Two or more tags replied and garbled each other.
    Collision,
}

/// Q-adjustment step `C` (the standard recommends 0.3).
const Q_STEP: f64 = 0.3;

/// Safety bound on the number of slots before a run is abandoned.
const MAX_SLOTS: usize = 100_000;

/// Configuration of an FSA inventory run.
#[derive(Debug, Clone, Copy)]
pub struct FsaConfig {
    /// Initial frame-size exponent (the standard's default is 4).
    pub initial_q: u8,
    /// Length of the temporary id a tag backscatters in its slot (16 for the
    /// standard RN16; smaller when the reader has announced an estimate of K).
    pub reply_bits: usize,
}

impl FsaConfig {
    /// The configuration used by the paper's plain-FSA baseline.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            initial_q: 4,
            reply_bits: 16,
        }
    }

    /// The "FSA with known K̂" variant: the initial frame size matches the
    /// estimated population and tags reply with just enough bits to stay
    /// distinguishable within a space of `10 · K̂` temporary ids.
    #[must_use]
    pub fn with_known_k(k_hat: usize) -> Self {
        let k = k_hat.max(1);
        let q = (k as f64).log2().ceil() as u8;
        // ceil(log2(10 * K)) bits suffice for the shrunken id space.
        let reply_bits = (((10 * k) as f64).log2().ceil() as usize).max(4);
        Self {
            initial_q: q.max(1),
            reply_bits,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Gen2Error::InvalidParameter`] for out-of-range fields.
    pub fn validate(&self) -> Gen2Result<()> {
        if self.initial_q > 15 {
            return Err(Gen2Error::InvalidParameter("initial Q must be ≤ 15"));
        }
        if self.reply_bits == 0 {
            return Err(Gen2Error::InvalidParameter("reply bits must be non-zero"));
        }
        Ok(())
    }
}

impl Default for FsaConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// The result of an FSA identification run.
#[derive(Debug, Clone, PartialEq)]
pub struct FsaOutcome {
    /// Number of tags successfully identified.
    pub identified: usize,
    /// Number of tags that were present.
    pub population: usize,
    /// Total air time spent, in seconds (including ACK overhead).
    pub total_time_s: f64,
    /// Per-kind slot counts `(empty, success, collision)`.
    pub slot_counts: (usize, usize, usize),
    /// Whether the run hit the slot safety bound before finishing.
    pub truncated: bool,
}

impl FsaOutcome {
    /// Total number of slots used.
    #[must_use]
    pub fn total_slots(&self) -> usize {
        self.slot_counts.0 + self.slot_counts.1 + self.slot_counts.2
    }

    /// Identification time in milliseconds (the Fig. 14 metric).
    #[must_use]
    pub fn time_ms(&self) -> f64 {
        self.total_time_s * 1e3
    }

    /// Number of tags that were present but never identified (non-zero only
    /// for truncated runs).
    #[must_use]
    pub fn unidentified(&self) -> usize {
        self.population.saturating_sub(self.identified)
    }

    /// Slot efficiency: fraction of slots that were successes (the classic
    /// FSA ceiling is `1/e ≈ 36.8 %`).
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        let total = self.total_slots();
        if total == 0 {
            0.0
        } else {
            self.slot_counts.1 as f64 / total as f64
        }
    }
}

/// Simulates FSA inventory rounds over a population of tags.
#[derive(Debug, Clone)]
pub struct FsaSimulator {
    config: FsaConfig,
}

impl FsaSimulator {
    /// Creates a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`Gen2Error::InvalidParameter`] for an invalid configuration.
    pub fn new(config: FsaConfig) -> Gen2Result<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// Runs inventory until every tag is identified (or the safety bound is
    /// hit) and returns the outcome.
    ///
    /// `tag_seeds` gives one deterministic seed per tag present.
    #[must_use]
    pub fn run(&self, tag_seeds: &[u64]) -> FsaOutcome {
        let timing = PAPER_TIMING;
        let mut tags: Vec<TagStateMachine> =
            tag_seeds.iter().map(|&s| TagStateMachine::new(s)).collect();
        let population = tags.len();

        let mut q_fp = f64::from(self.config.initial_q);
        let mut q = self.config.initial_q;
        let mut total_time_s = 0.0;
        let mut counts = (0usize, 0usize, 0usize);
        let mut identified = 0usize;
        let mut truncated = false;

        if population == 0 {
            return FsaOutcome {
                identified,
                population,
                total_time_s,
                slot_counts: counts,
                truncated,
            };
        }

        // Open the first round.
        let mut opener = ReaderCommand::Query { q };
        for tag in &mut tags {
            tag.on_command(opener, None);
        }
        let mut slots_left_in_frame = 1usize << q;
        let mut slots_used = 0usize;

        while identified < population {
            if slots_used >= MAX_SLOTS {
                truncated = true;
                break;
            }
            slots_used += 1;

            // The slot is opened either by the Query/QueryAdjust that started
            // the frame (first slot) or by a QueryRep.
            let opener_bits = opener.bits();
            opener = ReaderCommand::QueryRep;

            let replying: Vec<usize> = tags
                .iter()
                .enumerate()
                .filter(|(_, t)| t.is_replying())
                .map(|(i, _)| i)
                .collect();

            match replying.len() {
                0 => {
                    counts.0 += 1;
                    total_time_s += timing.exchange_s(opener_bits, 0);
                    q_fp = (q_fp - Q_STEP).max(0.0);
                }
                1 => {
                    counts.1 += 1;
                    let winner = replying[0];
                    total_time_s += timing.exchange_s(opener_bits, self.config.reply_bits);
                    // ACK the winner: downlink ACK echoing the temporary id,
                    // then the tag's brief acknowledgement-reply window.
                    total_time_s +=
                        timing.exchange_s(ReaderCommand::Ack.bits(), self.config.reply_bits);
                    let rn = tags[winner].rn16();
                    for tag in &mut tags {
                        tag.on_command(ReaderCommand::Ack, Some(rn));
                    }
                    // In the rare event two tags share an RN16 both think they
                    // are acknowledged; count actual acknowledged transitions.
                    identified = tags
                        .iter()
                        .filter(|t| t.state() == InventoryState::Acknowledged)
                        .count();
                }
                _ => {
                    counts.2 += 1;
                    total_time_s += timing.exchange_s(opener_bits, self.config.reply_bits);
                    q_fp = (q_fp + Q_STEP).min(15.0);
                }
            }

            slots_left_in_frame = slots_left_in_frame.saturating_sub(1);
            let rounded = q_fp.round().clamp(0.0, 15.0) as u8;

            if identified >= population {
                break;
            }

            if rounded != q || slots_left_in_frame == 0 {
                // Start a new round with QueryAdjust.
                q = rounded.max(1);
                q_fp = f64::from(q);
                opener = ReaderCommand::QueryAdjust { q };
                for tag in &mut tags {
                    tag.on_command(opener, None);
                }
                slots_left_in_frame = 1usize << q;
            } else {
                // Advance to the next slot in the current frame.
                for tag in &mut tags {
                    tag.on_command(ReaderCommand::QueryRep, None);
                }
            }
        }

        FsaOutcome {
            identified,
            population,
            total_time_s,
            slot_counts: counts,
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_prng::{Rng64, Xoshiro256};

    /// Runs `sim` over `k` tags whose seeds are drawn from `experiment_seed`.
    fn run_population(sim: &FsaSimulator, k: usize, experiment_seed: u64) -> FsaOutcome {
        let mut rng = Xoshiro256::seed_from_u64(experiment_seed);
        let seeds: Vec<u64> = (0..k).map(|_| rng.next_u64()).collect();
        sim.run(&seeds)
    }

    #[test]
    fn config_validation() {
        assert!(FsaConfig::standard().validate().is_ok());
        let mut c = FsaConfig::standard();
        c.initial_q = 20;
        assert!(c.validate().is_err());
        let mut c = FsaConfig::standard();
        c.reply_bits = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_known_k_shrinks_frame_and_ids() {
        let cfg = FsaConfig::with_known_k(16);
        assert_eq!(cfg.initial_q, 4);
        assert!(cfg.reply_bits < 16);
        let cfg1 = FsaConfig::with_known_k(0);
        assert!(cfg1.initial_q >= 1);
    }

    #[test]
    fn empty_population_terminates_immediately() {
        let sim = FsaSimulator::new(FsaConfig::standard()).unwrap();
        let out = sim.run(&[]);
        assert_eq!(out.identified, 0);
        assert_eq!(out.total_slots(), 0);
        assert_eq!(out.total_time_s, 0.0);
        assert!(!out.truncated);
    }

    #[test]
    fn identifies_every_tag() {
        let sim = FsaSimulator::new(FsaConfig::standard()).unwrap();
        for k in [1usize, 4, 8, 16] {
            let out = run_population(&sim, k, 42);
            assert_eq!(out.identified, k, "failed for k = {k}");
            assert!(!out.truncated);
            assert!(out.total_time_s > 0.0);
            assert_eq!(out.slot_counts.1, out.population.max(out.slot_counts.1));
        }
    }

    #[test]
    fn known_k_is_faster_on_average() {
        // Average over several trials: granting FSA the estimate of K should
        // reduce identification time (the paper reports 20–40 %).
        let k = 16;
        let trials = 20;
        let std_sim = FsaSimulator::new(FsaConfig::standard()).unwrap();
        let known_sim = FsaSimulator::new(FsaConfig::with_known_k(k)).unwrap();
        let avg = |sim: &FsaSimulator| -> f64 {
            (0..trials)
                .map(|t| run_population(sim, k, 1000 + t).total_time_s)
                .sum::<f64>()
                / trials as f64
        };
        let t_std = avg(&std_sim);
        let t_known = avg(&known_sim);
        assert!(
            t_known < t_std,
            "known-K FSA ({t_known:.4}s) not faster than standard ({t_std:.4}s)"
        );
    }

    #[test]
    fn identification_time_grows_with_population() {
        let sim = FsaSimulator::new(FsaConfig::standard()).unwrap();
        let trials = 10;
        let avg = |k: usize| -> f64 {
            (0..trials)
                .map(|t| run_population(&sim, k, 7 + t).total_time_s)
                .sum::<f64>()
                / trials as f64
        };
        assert!(avg(16) > avg(4));
    }

    #[test]
    fn efficiency_is_bounded_by_theory() {
        // FSA cannot beat the 1/e slot-efficiency ceiling by a wide margin;
        // allow some slack for small populations and the ACK-free accounting.
        let sim = FsaSimulator::new(FsaConfig::standard()).unwrap();
        let mut total_eff = 0.0;
        let trials = 20;
        for t in 0..trials {
            total_eff += run_population(&sim, 16, 500 + t).efficiency();
        }
        let avg_eff = total_eff / trials as f64;
        assert!(avg_eff < 0.55, "avg efficiency = {avg_eff}");
        assert!(avg_eff > 0.15, "avg efficiency = {avg_eff}");
    }

    #[test]
    fn outcome_helpers() {
        let out = FsaOutcome {
            identified: 2,
            population: 2,
            total_time_s: 0.01,
            slot_counts: (3, 2, 1),
            truncated: false,
        };
        assert_eq!(out.total_slots(), 6);
        assert!((out.time_ms() - 10.0).abs() < 1e-12);
        assert!((out.efficiency() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(out.unidentified(), 0);
        let truncated = FsaOutcome {
            identified: 1,
            population: 3,
            ..out
        };
        assert_eq!(truncated.unidentified(), 2);
    }
}
