//! Fig. 13 as a Criterion bench: one query-response cycle per scheme at
//! a 3 V supply (the energy numbers themselves come from the `reproduce`
//! binary; this bench tracks the simulation cost of the energy experiment).

use backscatter_baselines::cdma::CdmaTransfer;
use backscatter_baselines::tdma::TdmaTransfer;
use backscatter_sim::scenario::ScenarioBuilder;
use buzz::protocol::{BuzzConfig, BuzzProtocol};
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
            let scenario = ScenarioBuilder::paper_uplink(k, 3000).build().unwrap();
            let mut medium = scenario.medium(1).unwrap();
            TdmaTransfer::new()
                .unwrap()
                .run(scenario.tags(), &mut medium)
                .unwrap()
        });
    });
    group.bench_function("cdma", |b| {
        b.iter(|| {
            let scenario = ScenarioBuilder::paper_uplink(k, 3000).build().unwrap();
            let mut medium = scenario.medium(1).unwrap();
            CdmaTransfer.run(scenario.tags(), &mut medium).unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_energy_experiment);
criterion_main!(benches);
