//! Fig. 14 as a Criterion bench: identification latency (wall-clock of the
//! simulated protocol run, which is dominated by the reader-side decoding the
//! paper worries about in §5.1) for Buzz vs Framed Slotted Aloha, plus the
//! stage-3 sensing-matrix build on its own.

use backscatter_baselines::FsaIdentification;
use backscatter_prng::NodeSeed;
use backscatter_sim::scenario::ScenarioBuilder;
use buzz::identification::{IdentificationConfig, Identifier};
use buzz::session::Protocol;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparse_recovery::sensing::SensingMatrix;

fn bench_identification(c: &mut Criterion) {
    let mut group = c.benchmark_group("identification");
    group.sample_size(10);
    for &k in &[4usize, 16] {
        group.bench_with_input(BenchmarkId::new("buzz", k), &k, |b, &k| {
            b.iter(|| {
                let mut scenario = ScenarioBuilder::paper_uplink(k, 1000 + k as u64)
                    .build()
                    .unwrap();
                let mut medium = scenario.medium(7).unwrap();
                Identifier::new(IdentificationConfig::default())
                    .unwrap()
                    .run(&mut scenario, &mut medium)
                    .unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("fsa", k), &k, |b, &k| {
            b.iter(|| {
                let mut scenario = ScenarioBuilder::paper_uplink(k, 1000 + k as u64)
                    .build()
                    .unwrap();
                FsaIdentification.run(&mut scenario, 7).unwrap()
            });
        });
    }
    // The reader's reduced sensing matrix A′, labelled `<candidate ids> x
    // <slots>`.  128×96 is about the median stage-3 shape of the `paper_mix`
    // benchmark workload (108 × 88 on seed 3001), 905×483 about the shape of
    // `buzz/16`'s session above (904 × 482).
    for &(ids, slots) in &[(128usize, 96usize), (905, 483)] {
        let seeds: Vec<NodeSeed> = (0..ids as u64).map(|i| NodeSeed(31 * i + 5)).collect();
        group.bench_with_input(
            BenchmarkId::new("sensing_matrix", format!("{ids}x{slots}")),
            &seeds,
            |b, seeds| b.iter(|| SensingMatrix::from_seeds(slots, seeds, 0.5)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_identification);
criterion_main!(benches);
