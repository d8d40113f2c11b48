//! Experiment harness reproducing every table and figure of the Buzz paper.
//!
//! Each function in [`experiments`] corresponds to one experiment of the
//! evaluation (§8–§10) and returns an [`ExperimentReport`] — a small table
//! of rows the `reproduce` binary prints.  The Criterion benches under
//! `benches/` reuse the same entry points to measure decoder throughput and
//! end-to-end latency.
//!
//! | Function                      | Artefact |
//! |-------------------------------|----------|
//! | [`experiments::table12`]      | Tables 1–2 (§3.2 toy example) |
//! | [`experiments::fig2_3`]       | Fig. 2 (collision waveforms) and Fig. 3 (constellations) |
//! | [`experiments::fig7`]         | Fig. 7 (sync-offset CDF) |
//! | [`experiments::fig8`]         | Fig. 8 (clock drift) |
//! | [`experiments::fig9`]         | Fig. 9 (decoding progress, 14 tags) |
//! | [`experiments::fig10`]        | Fig. 10 (transfer time) |
//! | [`experiments::fig11`]        | Fig. 11 (undecoded tags) |
//! | [`experiments::fig11_large`]  | Beyond-paper: full pipeline at K = 25…300 |
//! | [`experiments::fig12`]        | Fig. 12 (challenging channels) |
//! | [`experiments::fig_fading`]   | Beyond-paper: correlated multipath fading sweep |
//! | [`experiments::fig_resilience`] | Beyond-paper: fault injection + session recovery |
//! | [`experiments::fig13`]        | Fig. 13 (energy per query) |
//! | [`experiments::fig14`]        | Fig. 14 (identification time) |
//! | [`experiments::lemma51`]      | Lemma 5.1 (K-estimation accuracy, analytical) |
//! | [`experiments::headline`]     | §1/§10 headline: overall 3.5× efficiency gain |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod experiments;
pub mod orchestrate;
pub mod report;

pub use compare::{compare, ComparisonCell};
pub use report::ExperimentReport;

/// Iterations per bench entry: `full`, or one when `BENCH_SMOKE` is set
/// (CI's perf-gate mode).
#[must_use]
pub fn samples(full: usize) -> usize {
    if std::env::var_os("BENCH_SMOKE").is_some() {
        1
    } else {
        full
    }
}
