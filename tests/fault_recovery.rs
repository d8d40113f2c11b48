//! Cross-crate contracts of the fault-injection harness and the recovery
//! layer.
//!
//! * Operating points: fault grids where the plain protocol delivers
//!   **zero** while `buzz+r` recovers at least what TDMA manages — the two
//!   pinned points of the resilience figure, re-checked here at the
//!   integration level through `&dyn Protocol`.
//! * Fault-free equivalence: a scenario carrying only zero-rate faults must
//!   be byte-identical to one with no faults at all, for every scheme on
//!   the panel.
//! * One noise path: frame noise scales a slot's noise exactly as an
//!   interference burst does, for every scheme and through identification.
//! * Dark tags and saturated identification: a tag reset at any slot of
//!   `buzz+r`'s stall handling stays dark through the fallback polls, and
//!   noise that leaves no estimation slot empty is a typed error.
//! * Conservation (property): under arbitrary fault sets no protocol
//!   panics, and every session accounts for the full offered load —
//!   `delivered + lost == K`.

use buzz_suite::baselines::{CdmaProtocol, TdmaProtocol};
use buzz_suite::protocol::protocol::{BuzzConfig, BuzzProtocol};
use buzz_suite::protocol::recovery::{RecoveryConfig, ResilientBuzzProtocol};
use buzz_suite::protocol::session::{Protocol, SessionOutcome};
use buzz_suite::protocol::BuzzError;
use buzz_suite::sim::dynamics::BurstyInterference;
use buzz_suite::sim::faults::{
    BurstSlotLoss, FeedbackLoss, FrameNoise, ReaderRestart, SlotErasure, TagDropout,
};
use buzz_suite::sim::scenario::ScenarioBuilder;
use proptest::prelude::*;

fn periodic_config() -> BuzzConfig {
    BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    }
}

/// Runs one protocol on a freshly built scenario.
fn run_one(protocol: &dyn Protocol, builder: ScenarioBuilder, noise_seed: u64) -> SessionOutcome {
    let mut scenario = builder.build().unwrap();
    protocol.run_after(&mut scenario, noise_seed, &[]).unwrap()
}

#[test]
fn reader_restart_operating_point_across_the_panel() {
    // Operating point A: a mid-session reader restart wipes the plain
    // decoder (zero delivered); buzz+r restores its checkpoint and finishes,
    // doing at least as well as TDMA's re-polled worklist.  As in the
    // figure, the restart comes at slot 3 of a 5-slot session and buzz+r
    // snapshots every 2 data slots, so it resumes at data slot 2.
    let build = || ScenarioBuilder::paper_uplink(8, 310).fault(ReaderRestart::new(3));
    let plain = BuzzProtocol::new(periodic_config()).unwrap();
    let resilient = ResilientBuzzProtocol::new(
        periodic_config(),
        RecoveryConfig {
            checkpoint_interval: 2,
        },
    )
    .unwrap();
    let tdma = TdmaProtocol::paper_default().unwrap();

    let dead = run_one(&plain, build(), 6);
    let alive = run_one(&resilient, build(), 6);
    let polled = run_one(&tdma, build(), 6);
    assert_eq!(dead.delivered_messages, 0);
    assert_eq!(alive.delivered_messages, 8);
    assert!(alive.delivered_messages >= polled.delivered_messages);
    let diag = alive.diagnostics.unwrap().recovery.unwrap();
    assert_eq!(diag.checkpoint_restores, 1);
    assert_eq!(diag.wasted_slots, 1);
}

#[test]
fn total_erasure_operating_point_across_the_panel() {
    // Operating point B: every collision slot erased starves the rateless
    // decoder; buzz+r degrades to singleton TDMA polls (which need no
    // collision frame sync) and still delivers everything, like TDMA itself.
    let build = || ScenarioBuilder::paper_uplink(6, 320).fault(SlotErasure::new(1.0).unwrap());
    let plain = BuzzProtocol::new(periodic_config()).unwrap();
    let resilient =
        ResilientBuzzProtocol::new(periodic_config(), RecoveryConfig::default()).unwrap();
    let tdma = TdmaProtocol::paper_default().unwrap();

    let dead = run_one(&plain, build(), 9);
    let alive = run_one(&resilient, build(), 9);
    let polled = run_one(&tdma, build(), 9);
    assert_eq!(dead.delivered_messages, 0);
    assert_eq!(alive.delivered_messages, 6);
    assert!(alive.delivered_messages >= polled.delivered_messages);
    let diag = alive.diagnostics.unwrap().recovery.unwrap();
    assert!(diag.fallback_delivered >= 1);
}

#[test]
fn restored_locks_are_delivered_when_no_decode_follows_the_restore() {
    // The reader restarts at slot 4 and restores a checkpoint that holds 7
    // of the 8 locks.  The burst's erased slots then plateau the residual
    // into a stall, all four extra-slot requests are lost, and the session
    // ends before another decode.  The payloads must come from the restored
    // decoder, so its 7 locks are delivered and only the eighth column is
    // polled (the feedback loss drops both polls).  A record of the latest
    // decode, which the restore resets, would send all 8 columns to the
    // fallback (16 polls) and deliver none.
    let resilient = ResilientBuzzProtocol::new(
        periodic_config(),
        RecoveryConfig {
            checkpoint_interval: 2,
        },
    )
    .unwrap();
    let build = ScenarioBuilder::paper_uplink(8, 901)
        .fault(BurstSlotLoss::new(48, 20).unwrap())
        .fault(ReaderRestart::new(4))
        .fault(FeedbackLoss::new(1.0).unwrap());
    let out = run_one(&resilient, build, 8);
    let diag = out.diagnostics.unwrap().recovery.unwrap();
    assert_eq!(diag.checkpoint_restores, 1);
    assert_eq!(diag.stalls_detected, 1);
    assert_eq!(diag.extra_slot_requests, 4);
    assert_eq!(diag.feedback_retries, 4);
    assert_eq!(out.delivered_messages, 7);
    assert_eq!(diag.fallback_polls, 2);
    assert_eq!(diag.fallback_delivered, 0);
}

#[test]
fn zero_rate_fault_plan_is_byte_identical_to_no_plan() {
    // Faults that can never fire must leave every scheme's noise-draw
    // stream untouched: same outcome bytes as a scenario with no faults.
    let with_plan = || {
        ScenarioBuilder::paper_uplink(5, 808)
            .fault(SlotErasure::new(0.0).unwrap())
            .fault(FeedbackLoss::new(0.0).unwrap())
            .fault(TagDropout::new(0.0, 40).unwrap())
    };
    let without_plan = || ScenarioBuilder::paper_uplink(5, 808);

    let buzz = BuzzProtocol::new(periodic_config()).unwrap();
    let resilient =
        ResilientBuzzProtocol::new(periodic_config(), RecoveryConfig::default()).unwrap();
    let tdma = TdmaProtocol::paper_default().unwrap();
    let cdma = CdmaProtocol;
    let panel: [&dyn Protocol; 4] = [&buzz, &resilient, &tdma, &cdma];

    for protocol in panel {
        let faulted = run_one(protocol, with_plan(), 3);
        let clean = run_one(protocol, without_plan(), 3);
        assert_eq!(
            faulted,
            clean,
            "{} diverged under a zero-rate plan",
            protocol.name()
        );
    }
}

#[test]
fn frame_noise_and_burst_interference_are_one_noise_path() {
    // Frame noise that fires in every slot and an interference burst that
    // covers every slot scale each slot's noise by the same factor, so each
    // scheme must see the same session — the full pipeline's
    // identification slots included.  The full pipeline runs at 1.25x: from
    // about 1.6x every identification slot reads occupied, and the session
    // fails (`identification_under_saturating_noise_is_a_typed_error`).
    let buzz = BuzzProtocol::new(periodic_config()).unwrap();
    let resilient =
        ResilientBuzzProtocol::new(periodic_config(), RecoveryConfig::default()).unwrap();
    let tdma = TdmaProtocol::paper_default().unwrap();
    let cdma = CdmaProtocol;
    let full = BuzzProtocol::new(BuzzConfig::default()).unwrap();
    let panel: [(&dyn Protocol, f64); 5] = [
        (&buzz, 4.0),
        (&resilient, 4.0),
        (&tdma, 4.0),
        (&cdma, 4.0),
        (&full, 1.25),
    ];
    let build = || ScenarioBuilder::paper_uplink(6, 830);
    for (protocol, noisy) in panel {
        for factor in [1.0, noisy] {
            let noise = build().fault(FrameNoise::new(1.0, factor).unwrap());
            let burst = build().dynamics(BurstyInterference::new(1, 1, factor).unwrap());
            assert_eq!(
                run_one(protocol, noise, 5),
                run_one(protocol, burst, 5),
                "{} at {factor}x noise",
                protocol.name()
            );
        }
    }
    // The scaled noise does reach identification.
    let noisy = build().fault(FrameNoise::new(1.0, 1.25).unwrap());
    assert_ne!(run_one(&full, noisy, 5), run_one(&full, build(), 5));
}

#[test]
fn dropped_tags_stay_dark_through_requests_backoff_and_fallback() {
    // Every collision slot erased and every tag browned out by slot 12:
    // `buzz+r` stalls, spends request and backoff slots, then polls.  A
    // reset drawn at a request or backoff slot darkens its tag too, so by
    // the fallback every tag is dark and no poll is answered.
    let resilient =
        ResilientBuzzProtocol::new(periodic_config(), RecoveryConfig::default()).unwrap();
    let delivered: Vec<usize> = (0..10)
        .map(|s| {
            let build = ScenarioBuilder::paper_uplink(6, 700 + s)
                .fault(SlotErasure::new(1.0).unwrap())
                .fault(TagDropout::new(1.0, 12).unwrap());
            run_one(&resilient, build, 3).delivered_messages
        })
        .collect();
    assert_eq!(delivered, [0; 10]);
}

#[test]
fn identification_under_saturating_noise_is_a_typed_error() {
    // At 4x the base noise every estimation slot reads occupied, so stage 1
    // runs out of steps: the session fails with a typed error instead of
    // sizing its buckets from a runaway estimate.
    let full = BuzzProtocol::new(BuzzConfig::default()).unwrap();
    let mut scenario = ScenarioBuilder::paper_uplink(6, 830)
        .fault(FrameNoise::new(1.0, 4.0).unwrap())
        .build()
        .unwrap();
    assert_eq!(
        full.run(&mut scenario, 5),
        Err(BuzzError::IdentificationFailed)
    );
}

proptest! {
    /// Conservation under arbitrary fault sets: no protocol panics, and
    /// every session accounts for the whole offered load.
    #[test]
    fn faulted_sessions_conserve_the_offered_load(
        k in 2usize..5,
        seed in 0u64..1_000,
        noise_seed in 0u64..16,
        erase_p in 0.0f64..1.0,
        feedback_p in 0.0f64..1.0,
        dropout_p in 0.0f64..0.6,
        noise_p in 0.0f64..0.5,
        noise_factor in 1.0f64..8.0,
        burst_period in 4u64..12,
        restart_at in 0u64..12,
    ) {
        let build = || {
            let mut builder = ScenarioBuilder::paper_uplink(k, 40_000 + seed)
                .fault(SlotErasure::new(erase_p).unwrap())
                .fault(FeedbackLoss::new(feedback_p).unwrap())
                .fault(TagDropout::new(dropout_p, 30).unwrap())
                .fault(FrameNoise::new(noise_p, noise_factor).unwrap())
                .fault(BurstSlotLoss::new(burst_period, burst_period / 2).unwrap());
            if restart_at > 0 {
                builder = builder.fault(ReaderRestart::new(restart_at));
            }
            builder
        };
        let buzz = BuzzProtocol::new(periodic_config()).unwrap();
        let resilient =
            ResilientBuzzProtocol::new(periodic_config(), RecoveryConfig::default()).unwrap();
        let tdma = TdmaProtocol::paper_default().unwrap();
        let cdma = CdmaProtocol;
        let panel: [&dyn Protocol; 4] = [&buzz, &resilient, &tdma, &cdma];

        for protocol in panel {
            let outcome = run_one(protocol, build(), noise_seed);
            prop_assert_eq!(
                outcome.delivered_messages + outcome.lost_messages,
                k,
                "{} leaked offered load", protocol.name()
            );
        }
    }
}
