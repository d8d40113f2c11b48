//! Cross-crate contracts of the fault-injection harness and the recovery
//! layer.
//!
//! * Operating points: fault grids where the plain protocol delivers
//!   **zero** while `buzz+r` recovers at least what TDMA manages — the two
//!   pinned points of the resilience figure, re-checked here at the
//!   integration level through `&dyn Protocol`.
//! * Fault-free equivalence: a scenario carrying only zero-rate injectors
//!   must be byte-identical to one with no fault plan at all, for every
//!   scheme on the panel.
//! * Conservation (property): under arbitrary fault plans no protocol
//!   panics, and every session accounts for the full offered load —
//!   `delivered + lost == K`.

use buzz_suite::baselines::{CdmaProtocol, TdmaProtocol};
use buzz_suite::protocol::protocol::{BuzzConfig, BuzzProtocol};
use buzz_suite::protocol::recovery::{RecoveryConfig, ResilientBuzzProtocol};
use buzz_suite::protocol::session::{Protocol, SessionOutcome};
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
fn zero_rate_fault_plan_is_byte_identical_to_no_plan() {
    // Injectors that can never fire must leave every scheme's noise-draw
    // stream untouched: same outcome bytes as a scenario with no plan.
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

proptest! {
    /// Conservation under arbitrary fault plans: no protocol panics, and
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
