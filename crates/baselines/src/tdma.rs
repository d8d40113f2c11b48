//! TDMA baseline: tags transmit sequentially with Miller-4 encoding.
//!
//! This is how commercial Gen-2 deployments move data today (§9): the reader
//! polls tags one at a time; each tag sends its framed message once, encoded
//! with Miller-4 (8 chips per bit) for robustness.  The aggregate rate is
//! fixed at 1 bit/symbol regardless of channel quality, so the total transfer
//! time is `K · framed_bits / bit_rate`, and a tag whose channel cannot
//! support 1 bit/symbol simply loses its message — there is no adaptation.

use backscatter_codes::message::Message;
use backscatter_gen2::timing::PAPER_TIMING;
use backscatter_phy::complex::Complex;
use backscatter_phy::linecode::Miller;
use backscatter_sim::energy::TransmissionProfile;
use backscatter_sim::medium::Medium;
use backscatter_sim::scenario::Scenario;
use buzz::session::{Protocol, SessionOutcome, SessionResult};

use crate::session::{scheme_error, transfer_outcome};
use crate::BaselineResult;

/// Miller modulation order (the paper's baseline uses Miller-4).
const MILLER_M: usize = 4;

/// The TDMA baseline as a [`Protocol`]: Miller-4 polling at
/// [`PAPER_TIMING`]'s uplink bit rate.
#[derive(Debug, Clone)]
pub struct TdmaProtocol {
    code: Miller,
}

impl TdmaProtocol {
    /// The paper's Miller-4 TDMA, as a session protocol.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BaselineError::Phy`] if the Miller order is
    /// unsupported.
    pub fn paper_default() -> BaselineResult<Self> {
        Ok(Self {
            code: Miller::new(MILLER_M)?,
        })
    }

    /// One TDMA round: every tag transmits its framed message once, in index
    /// order, and the reader decodes each transmission in isolation using its
    /// knowledge of the tag's channel.
    fn poll(&self, scenario: &Scenario, medium: &mut Medium) -> BaselineResult<SessionOutcome> {
        let tags = scenario.tags();
        let chips_per_bit = self.code.chips_per_bit();
        let bit_rate = PAPER_TIMING.uplink_bps;
        // The chip period is 1/(M·bit rate): Miller-M keeps the *bit* rate at
        // the nominal uplink rate by chipping faster.  The reader's decision
        // bandwidth grows accordingly, which is modelled by scaling the noise
        // seen per chip relative to the per-bit-rate symbol noise.
        let noise_scale = chips_per_bit as f64 / 2.0;

        let mut delivered = vec![false; tags.len()];
        let mut profiles = vec![
            TransmissionProfile {
                active_time_s: 0.0,
                transitions: 0,
            };
            tags.len()
        ];
        let mut time_s = 0.0;

        // Poll worklist: index order, with one restart-driven re-poll of the
        // whole population (a restarted reader has lost its inventory
        // records, so it starts the round over).  `slot` is the global poll
        // counter that scenario dynamics and fault plans index.
        let mut queue: Vec<usize> = (0..tags.len()).collect();
        let mut qi = 0usize;
        let mut slot: u64 = 0;
        let mut restarted = false;
        let mut tag_dead = vec![false; tags.len()];

        while qi < queue.len() {
            let i = queue[qi];
            let tag = &tags[i];
            // Each tag's polling round is one "slot" for scenario dynamics
            // (no-op on static media).
            medium.begin_slot(slot);
            let faults = medium.slot_faults(slot);
            slot += 1;
            if let Some(f) = &faults {
                for &t in &f.tags_reset {
                    if t < tag_dead.len() {
                        tag_dead[t] = true;
                    }
                }
                if f.reader_restart && !restarted {
                    restarted = true;
                    delivered.fill(false);
                    queue = (0..tags.len()).collect();
                    qi = 0;
                    time_s += PAPER_TIMING.t2_s;
                    continue;
                }
            }
            qi += 1;
            let framed = tag.message.framed();
            let duration_s = framed.len() as f64 / bit_rate;
            // A lost poll command or a browned-out tag wastes the reserved
            // slot: time passes, nothing is on the air.  (`collision_erased`
            // models frame-sync loss on superposed collisions and does not
            // affect these singleton replies.)
            if faults.as_ref().is_some_and(|f| f.feedback_lost) || tag_dead[i] {
                time_s += duration_s + PAPER_TIMING.t2_s;
                continue;
            }
            let noise_factor = faults.as_ref().map_or(1.0, |f| f.noise_power_factor);
            let chips = self.code.encode(&framed);
            let h = tag.channel.coefficient;

            // Receive the chip-rate samples of this tag's transmission.  The
            // faster Miller chipping widens the receiver bandwidth, modelled
            // as extra noise per chip sample relative to the bit-rate symbol
            // noise of the other schemes.
            let mut received = Vec::with_capacity(chips.len());
            for &chip in &chips {
                let mut bits = vec![false; tags.len()];
                bits[i] = chip;
                let mut y = medium.observe_with_noise_factor(&bits, noise_factor)?;
                if noise_scale > 1.0 {
                    let extra = medium.noise_power() * (noise_scale - 1.0);
                    // Draw the extra noise through the medium's own source by
                    // scaling an independent observation of silence.
                    let silence =
                        medium.observe_with_noise_factor(&vec![false; tags.len()], noise_factor)?;
                    y += silence * (extra / medium.noise_power().max(f64::MIN_POSITIVE)).sqrt();
                }
                received.push(y);
            }

            // Soft (matched-filter) Miller decoding: for every bit period,
            // correlate the received samples against the two candidate chip
            // patterns mapped through the tag's channel and pick the closer
            // one.  This is where Miller-4's robustness comes from — a single
            // noisy chip cannot flip the decision.
            let mut decoded_bits = Vec::with_capacity(framed.len());
            let mut phase = true;
            for bit_idx in 0..framed.len() {
                let window = &received[bit_idx * chips_per_bit..(bit_idx + 1) * chips_per_bit];
                let (pattern_one, next_one) = self.code.bit_pattern(true, phase);
                let (pattern_zero, next_zero) = self.code.bit_pattern(false, phase);
                let metric = |pattern: &[bool]| -> f64 {
                    window
                        .iter()
                        .zip(pattern)
                        .map(|(&y, &c)| {
                            let expected = if c { h } else { Complex::ZERO };
                            (y - expected).norm_sqr()
                        })
                        .sum()
                };
                if metric(&pattern_one) <= metric(&pattern_zero) {
                    decoded_bits.push(true);
                    phase = next_one;
                } else {
                    decoded_bits.push(false);
                    phase = next_zero;
                }
            }
            if let Ok(Some(message)) = Message::verify(&decoded_bits) {
                delivered[i] = message.payload() == tag.message.payload();
            }

            time_s += duration_s + PAPER_TIMING.t2_s;
            profiles[i].active_time_s += duration_s;
            profiles[i].transitions +=
                (framed.len() as f64 * self.code.transitions_per_bit()).round() as u64;
        }

        Ok(transfer_outcome(
            "tdma",
            delivered,
            time_s * 1e3,
            tags.len(), // one polling round per tag
            &profiles,
            scenario.config().starting_voltage_v,
        ))
    }
}

impl Protocol for TdmaProtocol {
    fn name(&self) -> &str {
        "tdma"
    }

    fn run(&self, scenario: &mut Scenario, seed: u64) -> SessionResult<SessionOutcome> {
        let mut medium = scenario.medium(seed)?;
        self.poll(scenario, &mut medium)
            .map_err(|e| scheme_error("tdma", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_sim::scenario::ScenarioBuilder;

    fn run(scenario: &Scenario, seed: u64) -> SessionOutcome {
        TdmaProtocol::paper_default()
            .unwrap()
            .run(&mut scenario.clone(), seed)
            .unwrap()
    }

    #[test]
    fn delivers_all_messages_in_good_channels() {
        let scenario = ScenarioBuilder::paper_uplink(8, 5).build().unwrap();
        let out = run(&scenario, 2);
        assert_eq!(out.delivered_messages, 8);
        assert_eq!(out.loss_rate(), 0.0);
        assert_eq!(out.per_tag_delivered, vec![true; 8]);
    }

    #[test]
    fn transfer_time_is_fixed_and_linear_in_k() {
        // Every poll takes one 37-bit reply plus the T2 turnaround, whatever
        // the channel.
        let per_tag_ms = (37.0 / PAPER_TIMING.uplink_bps + PAPER_TIMING.t2_s) * 1e3;
        let t4 = run(&ScenarioBuilder::paper_uplink(4, 7).build().unwrap(), 3).wall_time_ms;
        let t16 = run(&ScenarioBuilder::paper_uplink(16, 7).build().unwrap(), 3).wall_time_ms;
        assert!((t4 - 4.0 * per_tag_ms).abs() < 1e-9, "t4 = {t4}");
        assert!((t16 / t4 - 4.0).abs() < 1e-9);
        // 16 tags * 37 bits / 80 kbps ≈ 7.4 ms plus small gaps.
        assert!(t16 > 7.0 && t16 < 9.0, "t16 = {t16}");
    }

    #[test]
    fn loses_messages_in_very_bad_channels() {
        // Push the SNR down until TDMA starts failing (the Fig. 12 regime).
        let mut any_loss = false;
        for seed in 0..6 {
            let scenario = ScenarioBuilder::challenging(4, 100 + seed, 0.0)
                .build()
                .unwrap();
            if run(&scenario, seed).lost_messages > 0 {
                any_loss = true;
            }
        }
        assert!(
            any_loss,
            "TDMA never lost a message even at 0 dB median SNR"
        );
    }

    #[test]
    fn faults_degrade_polls_and_a_restart_repolls_once() {
        use backscatter_sim::faults::{FeedbackLoss, ReaderRestart, TagDropout};

        // Zero-rate fault plan: byte-identical to the fault-free run.
        let clean = |faulted: bool| {
            let mut builder = ScenarioBuilder::paper_uplink(4, 15);
            if faulted {
                builder = builder.fault(FeedbackLoss::new(0.0).unwrap());
            }
            run(&builder.build().unwrap(), 2)
        };
        assert_eq!(clean(false), clean(true));

        // Every poll command lost: nothing is delivered, but time passed.
        let scenario = ScenarioBuilder::paper_uplink(4, 15)
            .fault(FeedbackLoss::new(1.0).unwrap())
            .build()
            .unwrap();
        let out = run(&scenario, 2);
        assert_eq!(out.delivered_messages, 0);
        assert!(out.wall_time_ms > 0.0);

        // A reader restart at poll 2 re-polls the whole population once and
        // still delivers everything in good channels.
        let scenario = ScenarioBuilder::paper_uplink(4, 15)
            .fault(ReaderRestart::new(2))
            .build()
            .unwrap();
        let out = run(&scenario, 2);
        assert_eq!(out.delivered_messages, 4);
        // The re-polled tags transmitted twice, and paid for it.
        let clean = clean(false);
        assert!(out
            .per_tag_energy_j
            .iter()
            .zip(&clean.per_tag_energy_j)
            .any(|(twice, once)| twice > once));

        // A certain dropout before the first poll silences every tag.
        let scenario = ScenarioBuilder::paper_uplink(3, 15)
            .fault(TagDropout::new(1.0, 1).unwrap())
            .build()
            .unwrap();
        assert!(run(&scenario, 2).delivered_messages < 3);
    }

    #[test]
    fn energy_accounting_reflects_miller_chipping() {
        let scenario = ScenarioBuilder::paper_uplink(2, 9).build().unwrap();
        let out = run(&scenario, 1);
        // Each tag replies once: 37 bits at the uplink rate, with 37 bits *
        // 8 transitions/bit = 296 transitions, under the Moo energy model.
        let expected = TransmissionProfile {
            active_time_s: 37.0 / PAPER_TIMING.uplink_bps,
            transitions: 296,
        }
        .reply_energy_j(scenario.config().starting_voltage_v);
        assert_eq!(out.per_tag_energy_j, vec![expected; 2]);
    }
}
