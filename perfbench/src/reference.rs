//! The host-speed reference: a fixed slice of floating-point work, timed
//! next to every timed step, that scales host times to a nominal host.
//!
//! The benchmark was built on a 2-core virtual machine whose physical host
//! other tenants share.  Its speed swings: the same code on the same inputs
//! ran 10.2 sessions/s in one 40 s run and 17.1 in another a few minutes
//! later, and single sessions slowed by up to 1.8× for a few seconds at a
//! time.  Neither a longer run nor a robust statistic removes swings that
//! last minutes.  The reference slice slows with them: over 320 timed
//! K = 16 `paper_mix` sessions (two 40 s runs), the log of a session's
//! slowdown against its own median followed the log of the slowdown of the
//! slices beside it with slope 0.96 and correlation 0.73.  So each step's
//! host time is scaled by
//! [`NOMINAL_MS`] ÷ the mean of the slices run just before and just after
//! it: the time the step would take on a host where one slice takes
//! [`NOMINAL_MS`].  The slice is the benchmark's own code, so no change to
//! the program moves it.

use std::hint::black_box;
use std::time::Instant;

/// Milliseconds one reference slice takes on the nominal host.  On the
/// host the benchmark was built on, a slice took 1.1–1.2 ms when it ran
/// undisturbed.
pub const NOMINAL_MS: f64 = 1.0;

/// Rows and columns of the slice's matrix, and orthogonalisations per slice.
const ROWS: usize = 64;
const COLS: usize = 32;
const ROUNDS: usize = 24;

/// Modified Gram–Schmidt on a pseudo-random 64 × 32 matrix, `rounds` times
/// over (16 KiB of data on the stack, about 0.1 million flops a round).
/// Returns a checksum so the work cannot be optimised away.
fn orthogonalise(rounds: usize) -> f64 {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut a = [0.0f64; ROWS * COLS];
    let mut checksum = 0.0;
    for _ in 0..rounds {
        for x in &mut a {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *x = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
        for j in 0..COLS {
            let norm = (0..ROWS)
                .map(|i| a[i * COLS + j] * a[i * COLS + j])
                .sum::<f64>()
                .sqrt()
                .max(1e-12);
            for i in 0..ROWS {
                a[i * COLS + j] /= norm;
            }
            for k in j + 1..COLS {
                let dot: f64 = (0..ROWS).map(|i| a[i * COLS + j] * a[i * COLS + k]).sum();
                for i in 0..ROWS {
                    a[i * COLS + k] -= dot * a[i * COLS + j];
                }
            }
        }
        checksum += a[ROWS * COLS - 1];
    }
    checksum
}

/// Runs one reference slice and returns how long it took, in ms.  One
/// untimed round first brings the slice's code and data back into cache, so
/// that what the program left in the caches does not move the slice.
#[must_use]
pub fn slice_ms() -> f64 {
    black_box(orthogonalise(1));
    let start = Instant::now();
    black_box(orthogonalise(ROUNDS));
    start.elapsed().as_secs_f64() * 1e3
}

/// The host time of one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostTime {
    /// Wall milliseconds as measured.
    pub raw_ms: f64,
    /// [`NOMINAL_MS`] ÷ the mean reference slice around the step.
    pub factor: f64,
}

impl HostTime {
    /// Milliseconds scaled to the nominal host.
    #[must_use]
    pub fn ms(&self) -> f64 {
        self.raw_ms * self.factor
    }
}

/// Times steps run one after another, with a reference slice between each
/// two, so that every step is scaled by the slices just before and after it.
#[derive(Debug)]
pub struct Stopwatch {
    before_ms: f64,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Stopwatch {
    /// Runs the first reference slice.
    #[must_use]
    pub fn new() -> Self {
        Self {
            before_ms: slice_ms(),
        }
    }

    /// Runs `f` and times it from now.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, HostTime) {
        self.time_from(Instant::now(), f)
    }

    /// Runs `f` and times it from `start`, then runs the next slice.
    pub fn time_from<R>(&mut self, start: Instant, f: impl FnOnce() -> R) -> (R, HostTime) {
        let result = f();
        let raw_ms = start.elapsed().as_secs_f64() * 1e3;
        let after_ms = slice_ms();
        let factor = NOMINAL_MS / ((self.before_ms + after_ms) / 2.0);
        self.before_ms = after_ms;
        (result, HostTime { raw_ms, factor })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slice_is_deterministic_work() {
        let checksum = orthogonalise(ROUNDS);
        assert_eq!(checksum.to_bits(), orthogonalise(ROUNDS).to_bits());
        assert!(checksum.is_finite());
    }

    #[test]
    fn steps_are_scaled_by_the_slices_around_them() {
        let mut watch = Stopwatch::new();
        let before = watch.before_ms;
        let (value, t) = watch.time(|| 7);
        assert_eq!(value, 7);
        let after = watch.before_ms;
        assert!((t.factor - NOMINAL_MS * 2.0 / (before + after)).abs() < 1e-12);
        assert!((t.ms() - t.raw_ms * t.factor).abs() < 1e-12);
    }
}
