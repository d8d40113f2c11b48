//! Large-population decoding benchmark: the bit-flipping decoder at
//! K = 32 and K = 64 with sparse participation (the paper's Fig. 11 regime is
//! K ≫ 16; this suite is the stepping stone the ROADMAP's K = 100+ workload
//! builds on).
//!
//! Most entries hold participation at ~4 expected colliders per slot
//! regardless of K (`p = 4/K`), so they isolate how decode cost scales with
//! the *population* rather than with collision density.  That is not what
//! the protocol runs at large K: its participation rule (stated in the `buzz`
//! crate's `participation` module) floors `p` at 0.15, so a target of 4
//! colliders gives `0.15·K` per slot from K = 27 up (15 at K = 100, 22.5 at
//! K = 150, 30 at K = 200).  The `session_worklist_dense` entries measure
//! that regime.
//!
//! A reference measurement for this suite lives in
//! `benches/decoders_large_k.baseline.json`; rerun with
//! `cargo bench -p backscatter_bench --bench decoders_large_k` and compare
//! against it when touching the decode hot path.
//!
//! # Smoke mode
//!
//! Setting `BENCH_SMOKE=1` trims every entry to a single iteration.  The
//! per-iteration means stay comparable to the checked-in baseline (each
//! iteration is a full decode/session either way); only the averaging
//! shrinks.  CI runs the suite in smoke mode and gates on
//! `crates/bench/src/bin/perf_gate.rs` comparing the output against the
//! baseline.

use backscatter_codes::message::Message;
use backscatter_phy::complex::Complex;
use backscatter_prng::{NodeSeed, Rng64, Xoshiro256};
use buzz::bp::BitFlippingDecoder;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Builds a ready-to-decode collision problem with `k` nodes, `slots` slots,
/// and ~`expected_colliders` participants per slot.
fn build_sparse_problem(k: usize, slots: usize, expected_colliders: f64) -> BitFlippingDecoder {
    let p = (expected_colliders / k as f64).min(1.0);
    let mut rng = Xoshiro256::seed_from_u64(2_026);
    let channels: Vec<Complex> = (0..k)
        .map(|_| {
            Complex::from_polar(
                0.4 + rng.next_f64(),
                rng.next_f64() * core::f64::consts::TAU,
            )
        })
        .collect();
    let frames: Vec<Vec<bool>> = (0..k)
        .map(|i| Message::standard_32bit(9_000 + i as u64).unwrap().framed())
        .collect();
    let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(40_000 + i)).collect();
    // One cold decode of the whole slot set: the worklist builds a state
    // per position and descends each once from the all-zeros start.
    let mut decoder = BitFlippingDecoder::new(channels.clone(), frames[0].len(), 1e-4).unwrap();
    for slot in 0..slots as u64 {
        let participants: Vec<bool> = seeds
            .iter()
            .map(|s| s.participates_in_slot(slot, p))
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

/// Pre-generates the slot stream of a rateless session: participants and
/// noiseless symbols per slot.
#[allow(clippy::type_complexity)]
fn build_slot_stream(
    k: usize,
    slots: usize,
    expected_colliders: f64,
) -> (Vec<Complex>, usize, Vec<(Vec<bool>, Vec<Complex>)>) {
    let p = (expected_colliders / k as f64).min(1.0);
    let mut rng = Xoshiro256::seed_from_u64(2_026);
    let channels: Vec<Complex> = (0..k)
        .map(|_| {
            Complex::from_polar(
                0.4 + rng.next_f64(),
                rng.next_f64() * core::f64::consts::TAU,
            )
        })
        .collect();
    let frames: Vec<Vec<bool>> = (0..k)
        .map(|i| Message::standard_32bit(9_000 + i as u64).unwrap().framed())
        .collect();
    let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(40_000 + i)).collect();
    let stream = (0..slots as u64)
        .map(|slot| {
            let participants: Vec<bool> = seeds
                .iter()
                .map(|s| s.participates_in_slot(slot, p))
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
            (participants, symbols)
        })
        .collect();
    (channels, frames[0].len(), stream)
}

/// Replays the rateless protocol loop — add a slot, re-decode, stop when
/// everything locked — the workload `decode` actually faces in a session.
fn run_session(
    channels: &[Complex],
    message_bits: usize,
    stream: &[(Vec<bool>, Vec<Complex>)],
) -> usize {
    let mut decoder = BitFlippingDecoder::new(channels.to_vec(), message_bits, 1e-4).unwrap();
    for (slot, (participants, symbols)) in stream.iter().enumerate() {
        decoder.add_slot(participants, symbols.clone()).unwrap();
        let state = decoder.decode().unwrap();
        if state.all_decoded() {
            return slot + 1;
        }
    }
    stream.len()
}

fn bench_decoders_large_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("decoders_large_k");
    group.sample_size(buzz_bench::samples(5));

    for &k in &[32usize, 64] {
        group.bench_with_input(BenchmarkId::new("bit_flipping_sparse", k), &k, |b, &k| {
            // 3K slots give the sparse code enough redundancy to converge
            // at ~4 colliders per slot.
            let decoder = build_sparse_problem(k, 3 * k, 4.0);
            // One untimed decode first.  Every timed call still starts from
            // a fresh clone with no worklist and builds and descends a state
            // per position, but without this the states (~150 KB at K = 32)
            // land on pages the process has never touched, and in smoke
            // mode's single iteration those first-touch page faults cost
            // about as much as the decode itself.
            decoder.clone().decode().unwrap();
            b.iter(|| decoder.clone().decode().unwrap());
        });
    }

    // The Fig. 11 regime measurement: a whole rateless session per
    // iteration, in which every decode call's sweep descends each bit
    // position from its persistent state.
    group.sample_size(buzz_bench::samples(3));
    for &k in &[32usize, 64, 100, 150] {
        let (channels, bits, stream) = build_slot_stream(k, 3 * k, 4.0);
        group.bench_with_input(BenchmarkId::new("session_worklist", k), &k, |b, _| {
            b.iter(|| run_session(&channels, bits, &stream));
        });
    }
    // The regime the protocol actually runs at K ≥ 27: the participation
    // floor holds p at 0.15, so 15, 22.5 and 30 nodes share each slot.
    // Every flip touches most gains, the pair scan runs flat, and the
    // sweep's parallel gate engages.  K = 200 is the benchmark's largest
    // population.
    for &k in &[100usize, 150, 200] {
        let (channels, bits, stream) = build_slot_stream(k, 3 * k, 0.15 * k as f64);
        group.bench_with_input(BenchmarkId::new("session_worklist_dense", k), &k, |b, _| {
            b.iter(|| run_session(&channels, bits, &stream));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decoders_large_k);
criterion_main!(benches);
