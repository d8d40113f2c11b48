//! Message-passing decoder benchmark: the soft-decision schedule
//! ([`DecodeSchedule::MessagePassing`]) on static rateless sessions next to
//! the bit-flipping worklist, plus the workload it exists for — a session
//! whose channels rotate away from the decoder's slot-0 estimates while the
//! soft refit tracks them.
//!
//! A reference measurement lives in
//! `benches/decoders_message_passing.baseline.json`; rerun with
//! `cargo bench -p backscatter_bench --bench decoders_message_passing` and
//! compare against it when touching the soft decode or refit paths.
//!
//! # Smoke mode
//!
//! Setting `BENCH_SMOKE=1` trims every entry to a single iteration (each
//! iteration is a full session either way), which is how CI runs the suite
//! before gating on `crates/bench/src/bin/perf_gate.rs`.

use backscatter_codes::message::Message;
use backscatter_phy::complex::Complex;
use backscatter_prng::{NodeSeed, Rng64, Xoshiro256};
use buzz::bp::{BitFlippingDecoder, DecodeSchedule};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Per-slot scatter rotation rate (rad/slot) of the fading workload — fast
/// enough that the slot-0 estimates decorrelate mid-session, the regime
/// where hard bit-flipping stops locking anything.
const FADING_RATE: f64 = 0.08;

/// Line-of-sight fraction of the fading workload (the stable channel
/// component; the rest rotates), mirroring the `fig_fading` deep-fade rows.
const FADING_LOS: f64 = 0.35;

/// Pre-generates the slot stream of a rateless session: participants and
/// noiseless symbols per slot.  With `fading` set, every tag's channel keeps
/// a [`FADING_LOS`] line-of-sight component while the rest rotates at a
/// tag-specific fraction of [`FADING_RATE`] per slot (the decoder still
/// starts from the slot-0 channels, so decoding past the coherence time
/// requires tracking).
#[allow(clippy::type_complexity)]
fn build_slot_stream(
    k: usize,
    slots: usize,
    expected_colliders: f64,
    fading: bool,
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
                            let h = if fading {
                                let rate = FADING_RATE * (0.5 + i as f64 / k as f64);
                                let scatter =
                                    Complex::from_polar(1.0 - FADING_LOS, rate * slot as f64);
                                channels[i] * (Complex::new(FADING_LOS, 0.0) + scatter)
                            } else {
                                channels[i]
                            };
                            y += h;
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
/// everything locked.
fn run_session(
    channels: &[Complex],
    message_bits: usize,
    stream: &[(Vec<bool>, Vec<Complex>)],
    schedule: DecodeSchedule,
) -> usize {
    let mut decoder = BitFlippingDecoder::new(channels.to_vec(), message_bits, 1e-4)
        .unwrap()
        .with_schedule(schedule);
    for (slot, (participants, symbols)) in stream.iter().enumerate() {
        decoder.add_slot(participants, symbols.clone()).unwrap();
        let state = decoder.decode().unwrap();
        if state.all_decoded() {
            return slot + 1;
        }
    }
    stream.len()
}

fn bench_decoders_message_passing(c: &mut Criterion) {
    let mut group = c.benchmark_group("decoders_message_passing");
    group.sample_size(buzz_bench::samples(3));

    // Static sessions: the apples-to-apples cost of the soft schedule next
    // to the worklist bit-flipper on the workloads both decode.
    for &k in &[8usize, 16, 32] {
        let (channels, bits, stream) = build_slot_stream(k, 3 * k.max(8), 4.0, false);
        group.bench_with_input(
            BenchmarkId::new("session_message_passing", k),
            &k,
            |b, _| {
                b.iter(|| run_session(&channels, bits, &stream, DecodeSchedule::MessagePassing));
            },
        );
        group.bench_with_input(BenchmarkId::new("session_worklist", k), &k, |b, _| {
            b.iter(|| run_session(&channels, bits, &stream, DecodeSchedule::Worklist));
        });
    }

    // The fading workload: the scatter component rotates away from the
    // slot-0 estimates, so making progress at all requires the soft refit to
    // track the channels.  These sessions typically run their whole slot
    // stream (deep fading keeps a straggler or two unresolved), so the entry
    // measures the *sustained* per-slot cost of soft sweeps plus channel
    // refits — the steady state a fading deployment pays.  (The bit-flipping
    // schedules lock nothing at all here; they would measure the slot
    // budget, not the decoder.)
    for &k in &[8usize, 16] {
        let (channels, bits, stream) = build_slot_stream(k, 10 * k, 4.0, true);
        group.bench_with_input(
            BenchmarkId::new("session_message_passing_fading", k),
            &k,
            |b, _| {
                b.iter(|| run_session(&channels, bits, &stream, DecodeSchedule::MessagePassing));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_decoders_message_passing);
criterion_main!(benches);
