//! Cross-crate integration tests: the full Buzz pipeline against the
//! simulator, compared with the baselines, over shared scenarios.

use buzz_suite::baselines::cdma::CdmaTransfer;
use buzz_suite::baselines::identification::{fsa_identification, fsa_with_known_k};
use buzz_suite::baselines::tdma::TdmaTransfer;
use buzz_suite::protocol::identification::{DiscoveredTag, Identifier};
use buzz_suite::protocol::protocol::{BuzzConfig, BuzzProtocol};
use buzz_suite::protocol::transfer::{score_against_truth, DataTransfer};
use buzz_suite::sim::scenario::ScenarioBuilder;

/// The headline end-to-end property: in ordinary channel conditions Buzz
/// identifies every tag and delivers every message, at an aggregate rate above
/// 1 bit/symbol.
#[test]
fn buzz_end_to_end_is_lossless_and_faster_than_one_bit_per_symbol() {
    for &k in &[4usize, 8, 12] {
        let mut scenario = ScenarioBuilder::paper_uplink(k, 9_000 + k as u64)
            .build()
            .unwrap();
        let outcome = BuzzProtocol::new(BuzzConfig::default())
            .unwrap()
            .run(&mut scenario, 5)
            .unwrap();
        assert_eq!(outcome.correct_messages, k, "k = {k}");
        assert_eq!(outcome.message_loss_rate(), 0.0, "k = {k}");
        assert!(
            outcome.transfer.bits_per_symbol() >= 1.0,
            "k = {k}: rate = {}",
            outcome.transfer.bits_per_symbol()
        );
    }
}

/// Fig. 10's shape: Buzz completes the data transfer in roughly half the time
/// of the fixed-rate baselines (averaged over a few locations).
#[test]
fn buzz_transfer_time_beats_tdma_and_cdma() {
    let k = 8;
    let trials = 4u64;
    let mut buzz_total = 0.0;
    let mut tdma_total = 0.0;
    let mut cdma_total = 0.0;
    for trial in 0..trials {
        let mut scenario = ScenarioBuilder::paper_uplink(k, 7_100 + trial)
            .build()
            .unwrap();
        let buzz = BuzzProtocol::new(BuzzConfig {
            periodic_mode: true,
            ..BuzzConfig::default()
        })
        .unwrap();
        buzz_total += buzz.run(&mut scenario, trial).unwrap().transfer.time_ms;

        let tdma = TdmaTransfer::new().unwrap();
        let mut medium = scenario.medium(trial).unwrap();
        tdma_total += tdma.run(scenario.tags(), &mut medium).unwrap().time_ms;

        let cdma = CdmaTransfer;
        let mut medium = scenario.medium(trial).unwrap();
        cdma_total += cdma.run(scenario.tags(), &mut medium).unwrap().time_ms;
    }
    assert!(
        buzz_total < tdma_total && buzz_total < cdma_total,
        "buzz {buzz_total:.2} ms vs tdma {tdma_total:.2} ms vs cdma {cdma_total:.2} ms"
    );
    // The gain should be material (the paper reports ≈2×; with the data-phase
    // trigger charged to Buzz and no polling overhead charged to TDMA the
    // simulated gain at K = 8 is a bit lower): require ≥1.2×.
    assert!(
        tdma_total / buzz_total > 1.2,
        "gain = {}",
        tdma_total / buzz_total
    );
}

/// Fig. 14's shape: Buzz's compressive-sensing identification is severalfold
/// faster than Framed Slotted Aloha, and the FSA-with-known-K variant sits in
/// between.
#[test]
fn buzz_identification_beats_fsa() {
    let k = 16;
    let trials = 4u64;
    let mut buzz_total = 0.0;
    let mut fsa_total = 0.0;
    let mut fsa_k_total = 0.0;
    for trial in 0..trials {
        let mut scenario = ScenarioBuilder::paper_uplink(k, 8_200 + trial)
            .build()
            .unwrap();
        let outcome = BuzzProtocol::new(BuzzConfig::default())
            .unwrap()
            .run(&mut scenario, trial)
            .unwrap();
        let ident = outcome.identification.unwrap();
        buzz_total += ident.time_ms;
        fsa_total += fsa_identification(&scenario, trial).unwrap().time_ms;
        fsa_k_total += fsa_with_known_k(&scenario, ident.k_estimate.k_rounded(), trial)
            .unwrap()
            .time_ms;
    }
    assert!(
        buzz_total < fsa_k_total && fsa_k_total < fsa_total,
        "buzz {buzz_total:.2} ms, fsa+k {fsa_k_total:.2} ms, fsa {fsa_total:.2} ms"
    );
    assert!(
        fsa_total / buzz_total > 2.0,
        "identification speed-up only {:.2}x",
        fsa_total / buzz_total
    );
}

/// Fig. 12's shape: in challenging channels the fixed-rate baselines lose
/// messages while Buzz adapts its rate downwards and still delivers.
#[test]
fn buzz_stays_reliable_where_baselines_fail() {
    let trials = 5u64;
    let mut buzz_lost = 0usize;
    let mut baseline_lost = 0usize;
    let mut buzz_rate = 0.0;
    for trial in 0..trials {
        let mut scenario = ScenarioBuilder::challenging(4, 6_300 + trial, 5.0)
            .build()
            .unwrap();
        let buzz = BuzzProtocol::new(BuzzConfig {
            periodic_mode: true,
            ..BuzzConfig::default()
        })
        .unwrap();
        let outcome = buzz.run(&mut scenario, trial).unwrap();
        buzz_lost += outcome.incorrect_messages;
        buzz_rate += outcome.transfer.bits_per_symbol();

        let tdma = TdmaTransfer::new().unwrap();
        let mut medium = scenario.medium(trial).unwrap();
        baseline_lost += tdma.run(scenario.tags(), &mut medium).unwrap().lost_count();
        let cdma = CdmaTransfer;
        let mut medium = scenario.medium(trial).unwrap();
        baseline_lost += cdma.run(scenario.tags(), &mut medium).unwrap().lost_count();
    }
    assert!(
        buzz_lost * 4 <= baseline_lost,
        "buzz lost {buzz_lost}, baselines lost {baseline_lost}"
    );
    assert!(
        baseline_lost > 0,
        "baselines lost nothing at 5 dB median SNR"
    );
    // Buzz adapts: the average rate in these conditions is near or below
    // 1 bit/symbol rather than the ≥2 bits/symbol of good channels.
    assert!(buzz_rate / (trials as f64) < 2.0);
}

/// Smoke test: every baseline completes without error on small shared-seed
/// scenarios. The headline comparisons above can stay green while a baseline
/// silently starts erroring on some seeds; this pins plain completion, so
/// baseline regressions are caught even when the Buzz-vs-baseline assertions
/// pass.
#[test]
fn all_baselines_complete_on_shared_seeds() {
    for seed in [1u64, 2, 3] {
        let scenario = ScenarioBuilder::paper_uplink(4, seed).build().unwrap();

        let tdma = TdmaTransfer::new().unwrap();
        let mut medium = scenario.medium(seed).unwrap();
        let tdma_out = tdma
            .run(scenario.tags(), &mut medium)
            .unwrap_or_else(|e| panic!("TDMA failed on seed {seed}: {e}"));
        assert_eq!(tdma_out.per_tag_transitions.len(), 4, "seed {seed}");

        let cdma = CdmaTransfer;
        let mut medium = scenario.medium(seed).unwrap();
        let cdma_out = cdma
            .run(scenario.tags(), &mut medium)
            .unwrap_or_else(|e| panic!("CDMA failed on seed {seed}: {e}"));
        assert_eq!(cdma_out.per_tag_transitions.len(), 4, "seed {seed}");

        let fsa_out = fsa_identification(&scenario, seed)
            .unwrap_or_else(|e| panic!("FSA failed on seed {seed}: {e}"));
        assert!(fsa_out.time_ms > 0.0, "seed {seed}");
    }
}

/// Energy (Fig. 13's shape): Buzz costs about as much per delivered message
/// set as TDMA and far less than CDMA.
#[test]
fn buzz_energy_is_comparable_to_tdma_and_below_cdma() {
    use buzz_suite::sim::energy::TransmissionProfile;
    let k = 8;
    let mut scenario = ScenarioBuilder::paper_uplink(k, 4_400).build().unwrap();

    let buzz = BuzzProtocol::new(BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    })
    .unwrap();
    let buzz_energy = buzz.run(&mut scenario, 1).unwrap().mean_energy_j();

    let tdma = TdmaTransfer::new().unwrap();
    let mut medium = scenario.medium(1).unwrap();
    let tdma_out = tdma.run(scenario.tags(), &mut medium).unwrap();
    let tdma_energy: f64 = tdma_out
        .per_tag_transitions
        .iter()
        .zip(&tdma_out.per_tag_active_s)
        .map(|(&tr, &s)| {
            TransmissionProfile {
                active_time_s: s,
                transitions: tr,
            }
            .reply_energy_j(3.0)
        })
        .sum::<f64>()
        / k as f64;

    let cdma = CdmaTransfer;
    let mut medium = scenario.medium(1).unwrap();
    let cdma_out = cdma.run(scenario.tags(), &mut medium).unwrap();
    let cdma_energy: f64 = cdma_out
        .per_tag_transitions
        .iter()
        .zip(&cdma_out.per_tag_active_s)
        .map(|(&tr, &s)| {
            TransmissionProfile {
                active_time_s: s,
                transitions: tr,
            }
            .reply_energy_j(3.0)
        })
        .sum::<f64>()
        / k as f64;

    assert!(
        buzz_energy < cdma_energy,
        "buzz {buzz_energy:.2e} J vs cdma {cdma_energy:.2e} J"
    );
    assert!(
        buzz_energy < tdma_energy * 2.0,
        "buzz {buzz_energy:.2e} J vs tdma {tdma_energy:.2e} J"
    );
}

/// The session recomposes from its public layers: the discovery step (ids
/// 0..K in periodic mode, `Identifier::run` otherwise), `DataTransfer::run`
/// and `score_against_truth`, run by hand on one medium, reproduce
/// `BuzzProtocol::run` exactly.  The benchmark's traced pass times a session
/// this way and is only valid while this holds.
#[test]
fn public_layers_recompose_the_protocol_session() {
    let cases = [
        (true, 8, 3.5),
        (true, 16, 3.5),
        (true, 32, 4.0),
        (false, 4, 3.5),
        (false, 8, 3.5),
        (false, 16, 3.5),
    ];
    for (i, (periodic_mode, k, target)) in cases.into_iter().enumerate() {
        let mut config = BuzzConfig {
            periodic_mode,
            ..BuzzConfig::default()
        };
        config.transfer.target_collision_size = target;
        let (seed, noise_seed) = (7_000 + i as u64, 70 + i as u64);
        let build = || ScenarioBuilder::paper_uplink(k, seed).build().unwrap();
        let expected = BuzzProtocol::new(config)
            .unwrap()
            .run(&mut build(), noise_seed)
            .unwrap();

        let mut scenario = build();
        let mut medium = scenario.medium(noise_seed).unwrap();
        let (identification, discovered) = if periodic_mode {
            let discovered: Vec<DiscoveredTag> = scenario
                .tags_mut()
                .iter_mut()
                .enumerate()
                .map(|(id, tag)| {
                    tag.assign_temporary_id(id as u64);
                    DiscoveredTag {
                        temporary_id: id as u64,
                        channel_estimate: tag.channel.coefficient,
                    }
                })
                .collect();
            (None, discovered)
        } else {
            let outcome = Identifier::new(config.identification)
                .unwrap()
                .run(&mut scenario, &mut medium)
                .unwrap();
            let discovered = outcome.discovered.clone();
            (Some(outcome), discovered)
        };
        let transfer = DataTransfer::new(config.transfer)
            .unwrap()
            .run(scenario.tags(), &discovered, &mut medium)
            .unwrap();
        let score = score_against_truth(&transfer, &discovered, scenario.tags());

        let label = format!("periodic = {periodic_mode}, K = {k}");
        assert_eq!(identification, expected.identification, "{label}");
        assert_eq!(transfer, expected.transfer, "{label}");
        assert_eq!(
            score,
            (expected.correct_messages, expected.incorrect_messages),
            "{label}"
        );
    }
}
