//! Recovery-layer benchmark: [`buzz::recovery::ResilientBuzzProtocol`]
//! end-to-end sessions under the fault regimes it exists for, next to the
//! fault-free path (which must cost essentially what the plain protocol
//! does: in periodic mode epoch 0 is the plain participation stream and no
//! recovery machinery fires).
//!
//! A reference measurement lives in
//! `benches/decoders_recovery.baseline.json`; rerun with
//! `cargo bench -p backscatter_bench --bench decoders_recovery` and compare
//! against it when touching the recovery loop, the stall detector, or the
//! TDMA fallback.
//!
//! # Smoke mode
//!
//! Setting `BENCH_SMOKE=1` trims every entry to a single iteration (each
//! iteration is a full session either way), which is how CI runs the suite
//! before gating on `crates/bench/src/bin/perf_gate.rs`.

use backscatter_sim::faults::{ReaderRestart, SlotErasure};
use backscatter_sim::scenario::{Scenario, ScenarioBuilder};
use buzz::protocol::BuzzConfig;
use buzz::recovery::{RecoveryConfig, ResilientBuzzProtocol};
use buzz::session::Protocol;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Periodic-mode config (genie identification), so the entries measure the
/// transfer + recovery loop rather than the identification phase.
fn periodic_config() -> BuzzConfig {
    BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    }
}

/// One full resilient session on a freshly built scenario.
fn run_session(protocol: &ResilientBuzzProtocol, mut scenario: Scenario, noise_seed: u64) -> u64 {
    let outcome = Protocol::run(protocol, &mut scenario, noise_seed).unwrap();
    outcome.delivered_messages as u64
}

fn bench_decoders_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("decoders_recovery");
    group.sample_size(buzz_bench::samples(3));

    let protocol =
        ResilientBuzzProtocol::new(periodic_config(), RecoveryConfig::default()).unwrap();
    // The restart comes at slot 3, before these sessions decode (5 slots at
    // K = 8, 7 at K = 16), so snapshots every 2 data slots give it a
    // checkpoint to resume from (the default 4 would not).
    let snapshotting = ResilientBuzzProtocol::new(
        periodic_config(),
        RecoveryConfig {
            checkpoint_interval: 2,
        },
    )
    .unwrap();

    for &k in &[8usize, 16] {
        // Fault-free: the recovery layer idling — decode cost plus the
        // residual-window bookkeeping, nothing else.
        group.bench_with_input(BenchmarkId::new("session_clean", k), &k, |b, &k| {
            b.iter(|| {
                let scenario = ScenarioBuilder::paper_uplink(k, 310).build().unwrap();
                run_session(&protocol, scenario, 6)
            });
        });

        // Total slot erasure: every collision frame lost, so the session
        // burns its stall/retry budget and degrades to per-tag TDMA polls —
        // the most recovery work a session can do.
        group.bench_with_input(
            BenchmarkId::new("session_erase_fallback", k),
            &k,
            |b, &k| {
                b.iter(|| {
                    let scenario = ScenarioBuilder::paper_uplink(k, 320)
                        .fault(SlotErasure::new(1.0).unwrap())
                        .build()
                        .unwrap();
                    run_session(&protocol, scenario, 9)
                });
            },
        );

        // Mid-session reader restart: checkpoint restore at data slot 2
        // plus the slot replayed between the snapshot and the restart.
        group.bench_with_input(
            BenchmarkId::new("session_restart_resume", k),
            &k,
            |b, &k| {
                b.iter(|| {
                    let scenario = ScenarioBuilder::paper_uplink(k, 310)
                        .fault(ReaderRestart::new(3))
                        .build()
                        .unwrap();
                    run_session(&snapshotting, scenario, 6)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_decoders_recovery);
criterion_main!(benches);
