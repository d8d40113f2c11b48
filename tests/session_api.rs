//! Cross-crate contracts of the unified session API.
//!
//! * Determinism: the same `(ScenarioConfig, seed)` pair must produce a
//!   **bit-identical** [`SessionOutcome`] for every scheme, driven through
//!   `&dyn Protocol` — the `BuzzOutcome` determinism contract of
//!   `tests/manifest_integrity.rs` extended across the whole panel.
//! * Builder equivalence: a hand-assembled `Scenario::builder(...)` reaches
//!   the same scenario as the preset it spells out.
//! * Dynamics: scenarios carrying dynamics stay deterministic end-to-end and
//!   actually change what the protocols experience.

use buzz_suite::baselines::{CdmaProtocol, FsaIdentification, FsaWithEstimatedK, TdmaProtocol};
use buzz_suite::protocol::protocol::{BuzzConfig, BuzzProtocol};
use buzz_suite::protocol::session::{run_panel, Protocol, SessionOutcome};
use buzz_suite::sim::dynamics::{BurstyInterference, HeterogeneousTagPower, Mobility};
use buzz_suite::sim::scenario::{Placement, Scenario, ScenarioBuilder, SnrProfile};

/// Runs the full four-scheme panel (plus FSA+K̂) over a fresh scenario built
/// from `builder`, returning every outcome in panel order.
fn run_full_panel(builder: ScenarioBuilder, seed: u64) -> Vec<SessionOutcome> {
    let buzz = BuzzProtocol::new(BuzzConfig::default()).unwrap();
    let tdma = TdmaProtocol::paper_default().unwrap();
    let cdma = CdmaProtocol;
    let fsa = FsaIdentification;
    let fsa_k = FsaWithEstimatedK;
    let panel: [&dyn Protocol; 5] = [&buzz, &tdma, &cdma, &fsa, &fsa_k];

    let mut scenario = builder.build().unwrap();
    let outcomes = run_panel(&panel, &mut scenario, seed).unwrap();
    for (outcome, protocol) in outcomes.iter().zip(panel) {
        assert_eq!(outcome.scheme, protocol.name());
    }
    outcomes
}

#[test]
fn same_config_and_seed_is_bit_identical_for_every_protocol() {
    let config = ScenarioBuilder::paper_uplink(6, 2024);
    let first = run_full_panel(config.clone(), 5);
    let second = run_full_panel(config.clone(), 5);
    // SessionOutcome's PartialEq compares every field, floats exactly.
    assert_eq!(first, second);

    // And a different noise seed is a genuinely different realization for at
    // least one scheme (same channels, fresh noise).
    let third = run_full_panel(config, 6);
    assert_ne!(first, third);
}

#[test]
fn every_scheme_reports_through_the_common_shape() {
    let outcomes = run_full_panel(ScenarioBuilder::paper_uplink(5, 77), 1);
    for outcome in &outcomes {
        assert_eq!(outcome.total_messages(), 5, "{}", outcome.scheme);
        assert!(outcome.wall_time_ms > 0.0, "{}", outcome.scheme);
        assert!(outcome.slots_used > 0, "{}", outcome.scheme);
    }
    // Buzz fills diagnostics; the identification baselines do not.
    assert!(outcomes[0].diagnostics.is_some());
    assert!(outcomes[3].diagnostics.is_none());
}

#[test]
fn hand_assembled_builder_matches_the_preset() {
    let preset = ScenarioBuilder::challenging(4, 3, 6.0).build().unwrap();
    let manual = Scenario::builder(4)
        .seed(3)
        .snr_profile(SnrProfile::MedianDb(6.0))
        .placement(Placement::Cart { distance_m: 0.9 })
        .build()
        .unwrap();
    assert_eq!(manual.config(), preset.config());
    assert_eq!(manual.noise_power(), preset.noise_power());
    for (a, b) in manual.tags().iter().zip(preset.tags()) {
        assert_eq!(a.global_id, b.global_id);
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.message, b.message);
        assert_eq!(a.initial_offset_us, b.initial_offset_us);
    }
}

#[test]
fn dynamic_scenarios_are_deterministic_and_change_outcomes() {
    let build = || {
        Scenario::builder(5)
            .seed(31)
            .dynamics(Mobility::new(0.05, 0.05).unwrap())
            .dynamics(BurstyInterference::new(8, 3, 50.0).unwrap())
            .dynamics(HeterogeneousTagPower::new(9.0).unwrap())
            .build()
            .unwrap()
    };
    let buzz = BuzzProtocol::new(BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    })
    .unwrap();
    let protocol: &dyn Protocol = &buzz;

    // Bit-identical across rebuilds of the same dynamic scenario.
    let a = protocol.run(&mut build(), 2).unwrap();
    let b = protocol.run(&mut build(), 2).unwrap();
    assert_eq!(a, b);

    // The dynamics must actually bite: the same location without dynamics
    // runs a different session (slots, time, or delivery differ).
    let mut static_scenario = Scenario::builder(5).seed(31).build().unwrap();
    let static_outcome = protocol.run(&mut static_scenario, 2).unwrap();
    assert_ne!(a, static_outcome);
    // And everything still gets through in this mild configuration.
    assert_eq!(a.delivered_messages + a.lost_messages, 5);
}

#[test]
fn full_buzz_identification_runs_under_dynamics() {
    // The identification stages drive the dynamics slot clock too (not just
    // the data phase): a mildly dynamic scenario must still complete the
    // full event-driven pipeline deterministically.
    let build = || {
        Scenario::builder(4)
            .seed(55)
            .dynamics(Mobility::new(0.002, 0.01).unwrap())
            .build()
            .unwrap()
    };
    let buzz = BuzzProtocol::new(BuzzConfig::default()).unwrap();
    let protocol: &dyn Protocol = &buzz;
    let a = protocol.run(&mut build(), 1).unwrap();
    let b = protocol.run(&mut build(), 1).unwrap();
    assert_eq!(a, b);
    assert!(a
        .diagnostics
        .as_ref()
        .unwrap()
        .identification_time_ms
        .is_some());
    assert!(
        a.delivered_messages >= 3,
        "delivered only {} of 4 under mild mobility",
        a.delivered_messages
    );

    // And the identification phase itself must drive the dynamics clock: a
    // counting dynamics attached to the scenario must be applied for every
    // identification slot, not just the data phase.
    use buzz_suite::sim::dynamics::{ScenarioDynamics, SlotView};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[derive(Debug, Default)]
    struct CountingDynamics(AtomicUsize);
    impl ScenarioDynamics for CountingDynamics {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn apply(&self, _view: &mut SlotView<'_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    let counter = Arc::new(CountingDynamics::default());
    let mut counted = Scenario::builder(4)
        .seed(55)
        .dynamics_arc(counter.clone())
        .build()
        .unwrap();
    let outcome = protocol.run(&mut counted, 1).unwrap();
    // One begin_slot per identification slot (estimation + bucket +
    // compressive) and one per data-phase collision slot.
    assert_eq!(counter.0.load(Ordering::Relaxed), outcome.slots_used);
}

#[test]
fn tdma_and_cdma_feel_scenario_dynamics() {
    // A violent jammer must cost the fixed-rate schemes messages relative to
    // their quiet-band runs over the same scenarios.
    let tdma = TdmaProtocol::paper_default().unwrap();
    let cdma = CdmaProtocol;
    let mut quiet_delivered = 0usize;
    let mut jammed_delivered = 0usize;
    for seed in 0..4u64 {
        for protocol in [&tdma as &dyn Protocol, &cdma] {
            let mut quiet = Scenario::builder(4).seed(100 + seed).build().unwrap();
            quiet_delivered += protocol.run(&mut quiet, seed).unwrap().delivered_messages;
            let mut jammed = Scenario::builder(4)
                .seed(100 + seed)
                .dynamics(BurstyInterference::new(6, 3, 500.0).unwrap())
                .build()
                .unwrap();
            jammed_delivered += protocol.run(&mut jammed, seed).unwrap().delivered_messages;
        }
    }
    assert!(
        jammed_delivered < quiet_delivered,
        "jammer delivered {jammed_delivered} vs quiet {quiet_delivered}"
    );
}
