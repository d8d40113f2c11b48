//! Micro-benchmarks of the decoding kernels: the belief-propagation
//! bit-flipping decoder (§6c) and the OMP sparse-recovery solver (§5.1-C).

use backscatter_codes::message::Message;
use backscatter_phy::complex::Complex;
use backscatter_prng::{NodeSeed, Rng64, Xoshiro256};
use buzz::bp::BitFlippingDecoder;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparse_recovery::omp;
use sparse_recovery::sensing::SensingMatrix;

/// Builds a ready-to-decode collision problem with `k` nodes and `slots`
/// slots.
fn build_bp_problem(k: usize, slots: usize) -> BitFlippingDecoder {
    let mut rng = Xoshiro256::seed_from_u64(99);
    let channels: Vec<Complex> = (0..k)
        .map(|_| {
            Complex::from_polar(
                0.4 + rng.next_f64(),
                rng.next_f64() * core::f64::consts::TAU,
            )
        })
        .collect();
    let frames: Vec<Vec<bool>> = (0..k)
        .map(|i| Message::standard_32bit(500 + i as u64).unwrap().framed())
        .collect();
    let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(3_000 + i)).collect();
    let mut decoder = BitFlippingDecoder::new(channels.clone(), frames[0].len(), 1e-4).unwrap();
    for slot in 0..slots as u64 {
        let participants: Vec<bool> = seeds
            .iter()
            .map(|s| s.participates_in_slot(slot, 0.4))
            .collect();
        let symbols: Vec<Complex> = (0..frames[0].len())
            .map(|pos| {
                let mut y = Complex::ZERO;
                for i in 0..k {
                    if participants[i] && frames[i][pos] {
                        y += channels[i];
                    }
                }
                y
            })
            .collect();
        decoder.add_slot(&participants, symbols).unwrap();
    }
    decoder
}

/// Builds a compressive-sensing problem with `n` candidate columns and `k`
/// active ones.
fn build_cs_problem(n: usize, k: usize, m: usize) -> (SensingMatrix, Vec<Complex>) {
    let seeds: Vec<NodeSeed> = (0..n as u64).map(|i| NodeSeed(7_000 + i)).collect();
    let a = SensingMatrix::from_seeds(m, &seeds, 0.5);
    let mut rng = Xoshiro256::seed_from_u64(5);
    let mut y = vec![Complex::ZERO; m];
    for _ in 0..k {
        let col = rng.next_bounded(n as u64) as usize;
        let h = Complex::from_polar(0.5 + rng.next_f64(), rng.next_f64());
        for r in a.column_rows(col) {
            y[r] += h;
        }
    }
    (a, y)
}

fn bench_decoders(c: &mut Criterion) {
    let mut group = c.benchmark_group("decoders");
    group.sample_size(10);

    for &k in &[8usize, 16] {
        group.bench_with_input(BenchmarkId::new("bit_flipping", k), &k, |b, &k| {
            let decoder = build_bp_problem(k, 2 * k);
            b.iter(|| decoder.clone().decode().unwrap());
        });
    }

    for &(n, k) in &[(160usize, 8usize), (640, 16)] {
        let m = 2 * k * 8;
        group.bench_with_input(
            BenchmarkId::new("omp", format!("{n}x{k}")),
            &(n, k),
            |b, _| {
                let (a, y) = build_cs_problem(n, k, m);
                // 50 % head-room over the true sparsity.
                b.iter(|| omp::solve(&a, &y, k + k / 2).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_decoders);
criterion_main!(benches);
