//! Fig. 10 as a Criterion bench: one full data-transfer round for Buzz, TDMA
//! and CDMA over identical scenarios.

use backscatter_baselines::{CdmaProtocol, TdmaProtocol};
use backscatter_sim::scenario::ScenarioBuilder;
use buzz::protocol::{BuzzConfig, BuzzProtocol};
use buzz::session::Protocol;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_transfer(c: &mut Criterion) {
    let mut group = c.benchmark_group("data_transfer");
    group.sample_size(10);
    for &k in &[4usize, 8] {
        group.bench_with_input(BenchmarkId::new("buzz", k), &k, |b, &k| {
            b.iter(|| {
                let mut scenario = ScenarioBuilder::paper_uplink(k, 2000 + k as u64)
                    .build()
                    .unwrap();
                BuzzProtocol::new(BuzzConfig {
                    periodic_mode: true,
                    ..BuzzConfig::default()
                })
                .unwrap()
                .run(&mut scenario, 3)
                .unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("tdma", k), &k, |b, &k| {
            b.iter(|| {
                let mut scenario = ScenarioBuilder::paper_uplink(k, 2000 + k as u64)
                    .build()
                    .unwrap();
                TdmaProtocol::paper_default()
                    .unwrap()
                    .run(&mut scenario, 3)
                    .unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("cdma", k), &k, |b, &k| {
            b.iter(|| {
                let mut scenario = ScenarioBuilder::paper_uplink(k, 2000 + k as u64)
                    .build()
                    .unwrap();
                CdmaProtocol.run(&mut scenario, 3).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_transfer);
criterion_main!(benches);
