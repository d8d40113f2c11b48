//! Correlated fading: all four schemes through deep multipath fades.
//!
//! Builds scenarios with the `CorrelatedFading` dynamics attached — a
//! sum-of-sinusoids (Jakes-style) channel that drifts smoothly from slot to
//! slot and fades *through* nulls, unlike `Mobility`'s pure phase drift —
//! and drives Buzz, TDMA, CDMA, and Gen-2 FSA through the unified
//! `&[&dyn Protocol]` session API.  The sweep exposes a real limit of
//! coherent collision decoding: Buzz shrugs off slow fading (its estimates
//! stay roughly aligned over a session), but fast, deep fading decoheres
//! the channel estimates its interference cancellation depends on and its
//! delivery degrades sharply — while the one-message-per-slot baselines
//! only lose whatever lands inside a null.
//!
//! Run with: `cargo run --release --example correlated_fading`

use backscatter_baselines::{CdmaProtocol, FsaIdentification, TdmaProtocol};
use backscatter_sim::dynamics::CorrelatedFading;
use backscatter_sim::scenario::Scenario;
use buzz::protocol::{BuzzConfig, BuzzProtocol};
use buzz::session::{run_panel, Protocol};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let buzz = BuzzProtocol::new(BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    })?;
    let tdma = TdmaProtocol::paper_default()?;
    let cdma = CdmaProtocol;
    let fsa = FsaIdentification;
    let panel: [&dyn Protocol; 4] = [&buzz, &tdma, &cdma, &fsa];

    let environments: [(&str, f64, f64); 3] = [
        ("open aisle", 0.01, 0.8),
        ("indoor clutter", 0.05, 0.5),
        ("dense racking", 0.08, 0.35),
    ];
    let trials = 3u64;
    let k = 6usize;

    println!(
        "{:<15} {:>8} {:>12} {:>10} {:>8} {:>12}",
        "environment", "scheme", "delivered", "loss %", "ms", "slots"
    );
    println!("{}", "-".repeat(71));

    for (label, doppler, los) in environments {
        let mut sums: Vec<(f64, f64, f64, f64)> = vec![(0.0, 0.0, 0.0, 0.0); panel.len()];
        for trial in 0..trials {
            let mut scenario = Scenario::builder(k)
                .seed(4600 + trial)
                .dynamics(CorrelatedFading::new(doppler, los)?)
                .build()?;
            let outcomes = run_panel(&panel, &mut scenario, trial)?;
            for (sum, outcome) in sums.iter_mut().zip(&outcomes) {
                sum.0 += outcome.delivered_messages as f64;
                sum.1 += outcome.loss_rate();
                sum.2 += outcome.wall_time_ms;
                sum.3 += outcome.slots_used as f64;
            }
        }
        for (protocol, sum) in panel.iter().zip(&sums) {
            let t = trials as f64;
            println!(
                "{:<15} {:>8} {:>12.1} {:>10.1} {:>8.2} {:>12.1}",
                label,
                protocol.name(),
                sum.0 / t,
                sum.1 / t * 100.0,
                sum.2 / t,
                sum.3 / t
            );
        }
        println!();
    }
    Ok(())
}
