//! Fleet-layer benchmark: end-to-end [`backscatter_fleet::run_fleet`] runs —
//! the epoch planner, the executor, and the session physics
//! together — at a small and a medium operating point, serial and with four
//! workers.  The `serial`/`threads4` pair is the number to watch when
//! touching the executor: the parallel entry must scale, and both must stay
//! byte-identical in output (the determinism tests pin that; this pins the
//! cost).
//!
//! A reference measurement lives in
//! `benches/fleet_throughput.baseline.json`; rerun with
//! `cargo bench -p backscatter_bench --bench fleet_throughput` and compare
//! against it when touching the fleet crate.
//!
//! # Smoke mode
//!
//! Setting `BENCH_SMOKE=1` trims every entry to a single iteration (each
//! iteration is a full fleet run either way), which is how CI runs the suite
//! before gating on `crates/bench/src/bin/perf_gate.rs`.

use backscatter_fleet::{run_fleet, FleetConfig};
use buzz::protocol::{BuzzConfig, BuzzProtocol};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// The benched operating point: `readers` staggered readers over a shared
/// population five cells deep per reader, two epochs.
fn config(readers: usize) -> FleetConfig {
    FleetConfig {
        readers,
        population: readers * 80,
        seed: 2012,
        ..FleetConfig::default()
    }
}

fn bench_fleet_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_throughput");
    group.sample_size(buzz_bench::samples(3));

    let protocol = BuzzProtocol::new(BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    })
    .unwrap();

    for &readers in &[10usize, 40] {
        group.bench_with_input(BenchmarkId::new("serial", readers), &readers, |b, &r| {
            b.iter(|| run_fleet(&protocol, &config(r), 1).unwrap().delivered as u64);
        });
        group.bench_with_input(BenchmarkId::new("threads4", readers), &readers, |b, &r| {
            b.iter(|| run_fleet(&protocol, &config(r), 4).unwrap().delivered as u64);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fleet_throughput);
criterion_main!(benches);
