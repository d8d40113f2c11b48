//! Synchronous CDMA baseline with Walsh spreading codes.
//!
//! All K tags transmit concurrently.  Tag `i` spreads every framed bit over a
//! Walsh code of length `SF = next_power_of_two(K)` chips, transmitted by
//! ON-OFF keying at the same 80 k chips/s symbol rate as Buzz (§9).  The
//! reader despreads by correlating the received chip stream with each tag's
//! code and slicing the sign of the correlation after removing the code-set's
//! common (DC) component.
//!
//! Two physical effects — both measured in §8.1 — limit CDMA on backscatter
//! hardware and are modelled here:
//!
//! * each tag starts with a sub-microsecond trigger offset and keeps a small
//!   residual clock drift even after correction, so its chip boundaries are
//!   misaligned by a fraction of a chip that grows over the (long, `SF×`)
//!   spread transmission;
//! * misaligned chips leak energy between code channels, and the leakage is
//!   proportional to the *interferer's* channel strength — which is exactly
//!   the near-far problem: a weak tag drowns under the residual leakage of
//!   strong tags, no matter how long the code is.

use backscatter_codes::message::Message;
use backscatter_codes::walsh::WalshCode;
use backscatter_gen2::timing::PAPER_TIMING;
use backscatter_phy::complex::Complex;
use backscatter_phy::sync::DriftCorrection;
use backscatter_sim::energy::TransmissionProfile;
use backscatter_sim::medium::Medium;
use backscatter_sim::scenario::Scenario;
use buzz::session::{Protocol, SessionOutcome, SessionResult};

use crate::session::{scheme_error, transfer_outcome};
use crate::{BaselineError, BaselineResult};

/// The synchronous-CDMA baseline as a [`Protocol`].  The chip rate is
/// [`PAPER_TIMING`]'s uplink rate, and every tag applies the reader-assisted
/// drift correction of §8.1, as in the paper's experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct CdmaProtocol;

impl CdmaProtocol {
    /// One CDMA round: all tags transmit their spread frames concurrently;
    /// the reader despreads each tag with its Walsh code and its known
    /// channel.
    fn spread(scenario: &Scenario, medium: &mut Medium) -> BaselineResult<SessionOutcome> {
        let tags = scenario.tags();
        let k = tags.len();
        let walsh = WalshCode::for_tags(k)?;
        let sf = walsh.spreading_factor();
        let chip_rate = PAPER_TIMING.uplink_bps;
        let chip_us = 1e6 / chip_rate;

        let framed: Vec<Vec<bool>> = tags.iter().map(|t| t.message.framed()).collect();
        let framed_bits = framed[0].len();
        if framed.iter().any(|f| f.len() != framed_bits) {
            return Err(BaselineError::InvalidParameter(
                "all tags must use the same message length",
            ));
        }
        let total_chips = framed_bits * sf;

        // Per-tag ON-OFF chip streams: a backscatter tag cannot transmit a
        // negative chip, so data is carried by code presence — a "1" bit
        // transmits the tag's Walsh code (mapped +1 → reflect, −1 → silent)
        // and a "0" bit stays silent for the whole code period.  Tags use
        // codes 0..K−1 of the set (the paper assigns one Walsh code per tag);
        // code 0 is the all-ones row, whose user is only separable through the
        // reader's DC-estimation step below — one of OOK-CDMA's weaknesses.
        let mut chip_streams: Vec<Vec<bool>> = Vec::with_capacity(k);
        for (i, frame) in framed.iter().enumerate() {
            let code = walsh.chips(i)?;
            let mut chips = Vec::with_capacity(total_chips);
            for &bit in frame {
                for &c in &code {
                    chips.push(bit && c > 0);
                }
            }
            chip_streams.push(chips);
        }

        // Per-tag chip misalignment: initial trigger offset plus residual
        // clock drift accumulated over the (long) spread transmission.
        let residual_ppm: Vec<f64> = tags
            .iter()
            .map(|t| {
                DriftCorrection::calibrate(t.clock, 10_000.0, 1.0e6)
                    .map(|c| c.residual_ppm(t.clock))
                    .unwrap_or(t.clock.drift_ppm)
            })
            .collect();

        // Receive the superposed chip stream.  Faults index bit periods: a
        // reset tag goes silent for the rest of the frame, frame noise scales
        // that period's chips, an erased period is captured but unusable at
        // the reader, and a reader restart mid-frame loses the whole
        // despreading buffer (CDMA has no per-period feedback, so
        // `feedback_lost` does not apply).
        let mut received = Vec::with_capacity(total_chips);
        let mut erased_periods = vec![false; framed_bits];
        let mut restart_lost = false;
        let mut period_noise_factor = 1.0;
        for chip_idx in 0..total_chips {
            // Each bit period (one code length) is one "slot" for scenario
            // dynamics (no-op on static media).
            if chip_idx % sf == 0 {
                let period = (chip_idx / sf) as u64;
                medium.begin_slot(period);
                period_noise_factor = 1.0;
                if let Some(f) = medium.slot_faults(period) {
                    for &t in &f.tags_reset {
                        if t < k {
                            for chip in &mut chip_streams[t][chip_idx..] {
                                *chip = false;
                            }
                        }
                    }
                    erased_periods[chip_idx / sf] = f.collision_erased;
                    period_noise_factor = f.noise_power_factor;
                    if f.reader_restart {
                        restart_lost = true;
                    }
                }
            }
            let elapsed_us = chip_idx as f64 * chip_us;
            let weights: Vec<f64> = (0..k)
                .map(|i| {
                    let misalign_us =
                        tags[i].initial_offset_us + (residual_ppm[i] * 1e-6 * elapsed_us).abs();
                    let f = (misalign_us / chip_us).clamp(0.0, 1.0);
                    let current = f64::from(u8::from(chip_streams[i][chip_idx]));
                    let previous = if chip_idx == 0 {
                        0.0
                    } else {
                        f64::from(u8::from(chip_streams[i][chip_idx - 1]))
                    };
                    ((1.0 - f) * current + f * previous).clamp(0.0, 1.0)
                })
                .collect();
            received
                .push(medium.observe_fractional_with_noise_factor(&weights, period_noise_factor)?);
        }

        // The OOK mapping leaves a data-dependent common term on every chip
        // (the sum of the reflecting tags' channels over the +1 chips).  The
        // reader estimates the average baseline over the whole stream and
        // removes it before despreading, as a practical carrier-cancellation
        // stage would; the estimate is only approximate, which is one of the
        // reasons OOK-CDMA underperforms textbook antipodal CDMA.
        // Erased periods never reach the despreader, so they are excluded
        // from the baseline estimate too.
        let usable_chips: Vec<usize> = (0..total_chips)
            .filter(|&c| !erased_periods[c / sf])
            .collect();
        let dc_estimate: Complex = if usable_chips.is_empty() {
            Complex::ZERO
        } else {
            usable_chips.iter().map(|&c| received[c]).sum::<Complex>() / usable_chips.len() as f64
        };

        // Despread each tag: correlate with its Walsh code per bit period.
        // A "1" bit yields a correlation of ≈ h·SF/2; a "0" bit yields ≈ 0, so
        // the standard decoder thresholds the projection onto the (known)
        // channel at the midpoint |h|²·SF/4.
        let mut delivered = vec![false; k];
        if !restart_lost {
            for (i, tag) in tags.iter().enumerate() {
                let code = walsh.chips(i)?;
                let h = tag.channel.coefficient;
                let threshold = h.norm_sqr() * sf as f64 / 4.0;
                let mut decoded = Vec::with_capacity(framed_bits);
                for bit_idx in 0..framed_bits {
                    if erased_periods[bit_idx] {
                        // No usable chips for this bit: the correlation is
                        // zero and the threshold test fails.
                        decoded.push(false);
                        continue;
                    }
                    let start = bit_idx * sf;
                    let correlation: Complex = (0..sf)
                        .map(|c| (received[start + c] - dc_estimate) * f64::from(code[c]))
                        .sum();
                    let projected = (correlation * h.conj()).re;
                    decoded.push(projected > threshold);
                }
                if let Ok(Some(message)) = Message::verify(&decoded) {
                    delivered[i] = message.payload() == tag.message.payload();
                }
            }
        }

        let duration_s = total_chips as f64 / chip_rate;
        // Every chip boundary can toggle the antenna: ≈ 1 transition/chip.
        let profile = TransmissionProfile {
            active_time_s: duration_s,
            transitions: total_chips as u64,
        };
        Ok(transfer_outcome(
            "cdma",
            delivered,
            (duration_s + PAPER_TIMING.t2_s) * 1e3,
            1, // all tags share one concurrent spread frame
            &vec![profile; k],
            scenario.config().starting_voltage_v,
        ))
    }
}

impl Protocol for CdmaProtocol {
    fn name(&self) -> &str {
        "cdma"
    }

    fn run(&self, scenario: &mut Scenario, seed: u64) -> SessionResult<SessionOutcome> {
        let mut medium = scenario.medium(seed)?;
        Self::spread(scenario, &mut medium).map_err(|e| scheme_error("cdma", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TdmaProtocol;
    use backscatter_sim::scenario::ScenarioBuilder;

    fn run(scenario: &Scenario, seed: u64) -> SessionOutcome {
        CdmaProtocol.run(&mut scenario.clone(), seed).unwrap()
    }

    fn tdma_lost(scenario: &Scenario, seed: u64) -> usize {
        TdmaProtocol::paper_default()
            .unwrap()
            .run(&mut scenario.clone(), seed)
            .unwrap()
            .lost_messages
    }

    #[test]
    fn delivers_most_messages_in_good_channels() {
        let scenario = ScenarioBuilder::paper_uplink(4, 11).build().unwrap();
        let out = run(&scenario, 2);
        assert!(
            out.delivered_messages >= 3,
            "delivered {}",
            out.delivered_messages
        );
    }

    #[test]
    fn transfer_time_scales_with_spreading_factor() {
        // 16 tags => SF 16 => 37*16/80k ≈ 7.4 ms, same order as TDMA.
        let time =
            |k: usize| run(&ScenarioBuilder::paper_uplink(k, 3).build().unwrap(), 1).wall_time_ms;
        let t16 = time(16);
        assert!(t16 > 7.0 && t16 < 9.0, "t16 = {t16}");
        // 12 tags also need SF 16 (no length-12 Walsh code exists).
        assert_eq!(time(12), t16);
        // 4 tags spread each of the 37 bits over 4 chips.
        let t4 = (37.0 * 4.0 / PAPER_TIMING.uplink_bps + PAPER_TIMING.t2_s) * 1e3;
        assert!((time(4) - t4).abs() < 1e-9);
    }

    #[test]
    fn less_reliable_than_tdma_across_populations() {
        // Fig. 11's ordering: CDMA is the least reliable scheme even in
        // ordinary channel conditions, while TDMA (Miller-4) loses little.
        let mut cdma_lost = 0usize;
        let mut tdma_lost_total = 0usize;
        let mut total = 0usize;
        for &k in &[4usize, 8, 12, 16] {
            for seed in 0..3u64 {
                let scenario = ScenarioBuilder::paper_uplink(k, 200 + seed)
                    .build()
                    .unwrap();
                cdma_lost += run(&scenario, seed).lost_messages;
                tdma_lost_total += tdma_lost(&scenario, seed);
                total += k;
            }
        }
        assert!(
            cdma_lost > tdma_lost_total,
            "CDMA lost {cdma_lost}/{total}, TDMA lost {tdma_lost_total}/{total}"
        );
    }

    #[test]
    fn loses_at_least_as_much_as_tdma_in_challenging_channels() {
        // Fig. 12's companion observation: in channels where TDMA starts
        // losing messages, CDMA is no better (the paper measured 100 % CDMA
        // loss where TDMA lost 50 %).
        let mut cdma_lost = 0usize;
        let mut tdma_lost_total = 0usize;
        let mut total = 0usize;
        for seed in 0..8 {
            let scenario = ScenarioBuilder::challenging(4, 300 + seed, 3.0)
                .build()
                .unwrap();
            cdma_lost += run(&scenario, seed).lost_messages;
            tdma_lost_total += tdma_lost(&scenario, seed);
            total += 4;
        }
        assert!(
            cdma_lost >= tdma_lost_total,
            "CDMA lost {cdma_lost}/{total} but TDMA lost {tdma_lost_total}/{total}"
        );
        assert!(cdma_lost > 0, "CDMA lost nothing even at 3 dB median SNR");
    }

    #[test]
    fn faults_corrupt_the_shared_frame() {
        use backscatter_sim::faults::{ReaderRestart, SlotErasure, TagDropout};

        // Zero-rate fault plan: byte-identical to the fault-free run.
        let clean = |faulted: bool| {
            let mut builder = ScenarioBuilder::paper_uplink(4, 17);
            if faulted {
                builder = builder.fault(SlotErasure::new(0.0).unwrap());
            }
            run(&builder.build().unwrap(), 3)
        };
        assert_eq!(clean(false), clean(true));

        // A reader restart mid-frame loses the whole despreading buffer.
        let scenario = ScenarioBuilder::paper_uplink(4, 17)
            .fault(ReaderRestart::new(10))
            .build()
            .unwrap();
        assert_eq!(run(&scenario, 3).delivered_messages, 0);

        // Total erasure: every bit period is unusable, nothing delivers.
        let scenario = ScenarioBuilder::paper_uplink(4, 17)
            .fault(SlotErasure::new(1.0).unwrap())
            .build()
            .unwrap();
        assert_eq!(run(&scenario, 3).delivered_messages, 0);

        // A certain early dropout silences every tag's remaining chips.
        let scenario = ScenarioBuilder::paper_uplink(4, 17)
            .fault(TagDropout::new(1.0, 1).unwrap())
            .build()
            .unwrap();
        assert_eq!(run(&scenario, 3).delivered_messages, 0);
    }

    #[test]
    fn energy_accounting_reflects_continuous_chipping() {
        let scenario = ScenarioBuilder::paper_uplink(8, 13).build().unwrap();
        let out = run(&scenario, 2);
        // 37 bits * SF 8 = 296 chips of active transmission for every tag —
        // 3.7 ms, much longer than a single TDMA reply — with ≈ 1 transition
        // per chip, under the Moo energy model.
        let expected = TransmissionProfile {
            active_time_s: 296.0 / PAPER_TIMING.uplink_bps,
            transitions: 296,
        }
        .reply_energy_j(scenario.config().starting_voltage_v);
        assert_eq!(out.per_tag_energy_j, vec![expected; 8]);
    }
}
