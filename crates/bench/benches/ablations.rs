//! Ablation benches for two design choices:
//!
//! * participation-code density (how many tags share each slot),
//! * bucket pruning on/off (solve over the full temporary-id space instead).

use backscatter_phy::complex::Complex;
use backscatter_prng::{NodeSeed, Rng64, Xoshiro256};
use backscatter_sim::scenario::ScenarioBuilder;
use buzz::protocol::{BuzzConfig, BuzzProtocol};
use buzz::transfer::TransferConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparse_recovery::omp;
use sparse_recovery::sensing::SensingMatrix;

/// Sweep the target collision size of the rateless code (the paper only says
/// the density is "related to K"; this shows the trade-off).
fn bench_collision_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_collision_density");
    group.sample_size(10);
    for &target in &[2.0f64, 3.5, 6.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("target_{target}")),
            &target,
            |b, &target| {
                b.iter(|| {
                    let mut scenario = ScenarioBuilder::paper_uplink(8, 4321).build().unwrap();
                    let config = BuzzConfig {
                        periodic_mode: true,
                        transfer: TransferConfig {
                            target_collision_size: target,
                            ..TransferConfig::default()
                        },
                        ..BuzzConfig::default()
                    };
                    BuzzProtocol::new(config)
                        .unwrap()
                        .run(&mut scenario, 1)
                        .unwrap()
                        .transfer
                        .slots_used
                });
            },
        );
    }
    group.finish();
}

/// Solve the same sparse-recovery instance with and without the bucket-stage
/// pruning (i.e. over the reduced candidate set vs the whole id space).
fn bench_bucket_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bucket_pruning");
    group.sample_size(10);

    let k = 8usize;
    let full_space = 640usize; // a·c·K with a = K, c = 10
    let pruned_space = 64usize; // ≈ a·K after discarding empty buckets
    let m = 2 * k * 7;
    let mut rng = Xoshiro256::seed_from_u64(11);
    let actives: Vec<usize> = (0..k)
        .map(|_| rng.next_bounded(pruned_space as u64) as usize)
        .collect();

    let build = |n: usize| -> (SensingMatrix, Vec<Complex>) {
        let seeds: Vec<NodeSeed> = (0..n as u64).map(|i| NodeSeed(9_000 + i)).collect();
        let a = SensingMatrix::from_seeds(m, &seeds, 0.5);
        let mut y = vec![Complex::ZERO; m];
        for (rank, &col) in actives.iter().enumerate() {
            let h = Complex::from_polar(0.5 + rank as f64 * 0.1, rank as f64);
            for r in a.column_rows(col) {
                y[r] += h;
            }
        }
        (a, y)
    };

    for (label, n) in [("pruned", pruned_space), ("full_space", full_space)] {
        group.bench_function(label, |b| {
            let (a, y) = build(n);
            // 50 % head-room over the true sparsity.
            b.iter(|| omp::solve(&a, &y, k + k / 2).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_collision_density, bench_bucket_pruning);
criterion_main!(benches);
