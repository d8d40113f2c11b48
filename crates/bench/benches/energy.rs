//! Fig. 13 as a Criterion bench: one query-response cycle per scheme at
//! a 3 V supply (the energy numbers themselves come from the `reproduce`
//! binary; this bench tracks the simulation cost of the energy experiment).

use backscatter_baselines::{CdmaProtocol, TdmaProtocol};
use backscatter_sim::scenario::ScenarioBuilder;
use buzz::protocol::{BuzzConfig, BuzzProtocol};
use buzz::session::Protocol;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_energy_experiment(c: &mut Criterion) {
    let mut group = c.benchmark_group("energy_query");
    group.sample_size(10);
    let k = 8usize;

    group.bench_function("buzz", |b| {
        b.iter(|| {
            let mut scenario = ScenarioBuilder::paper_uplink(k, 3000).build().unwrap();
            BuzzProtocol::new(BuzzConfig {
                periodic_mode: true,
                ..BuzzConfig::default()
            })
            .unwrap()
            .run(&mut scenario, 1)
            .unwrap()
            .mean_energy_j()
        });
    });
    group.bench_function("tdma", |b| {
        b.iter(|| {
            let mut scenario = ScenarioBuilder::paper_uplink(k, 3000).build().unwrap();
            TdmaProtocol::paper_default()
                .unwrap()
                .run(&mut scenario, 1)
                .unwrap()
        });
    });
    group.bench_function("cdma", |b| {
        b.iter(|| {
            let mut scenario = ScenarioBuilder::paper_uplink(k, 3000).build().unwrap();
            CdmaProtocol.run(&mut scenario, 1).unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_energy_experiment);
criterion_main!(benches);
