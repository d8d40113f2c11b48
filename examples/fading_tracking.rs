//! Fading tracking: the two decoding paradigms either side of the regime
//! boundary.
//!
//! Runs the *same* Buzz protocol twice through `CorrelatedFading` scenarios —
//! once on the default bit-flipping worklist, once on the soft-decision
//! message-passing schedule (`DecodeSchedule::MessagePassing`) — plus TDMA as
//! the one-message-per-slot yardstick.  In slow fading the two Buzz columns
//! agree (and the worklist is cheaper, which is why it stays the default).
//! Past the coherence boundary the slot-0 channel estimates decorrelate
//! mid-session: whatever hard bit-flipping has not locked by then stalls,
//! while the soft schedule's confidence-weighted channel refit keeps
//! tracking the fade and continues to deliver.  The worklist locks most tags
//! within a few slots, so the two Buzz columns part only in deep fading.
//!
//! Run with: `cargo run --release --example fading_tracking`

use backscatter_baselines::TdmaProtocol;
use backscatter_sim::dynamics::CorrelatedFading;
use backscatter_sim::scenario::Scenario;
use buzz::bp::DecodeSchedule;
use buzz::protocol::{BuzzConfig, BuzzProtocol};
use buzz::session::{run_panel, Protocol};
use buzz::transfer::TransferConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let buzz = BuzzProtocol::new(BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    })?;
    let buzz_mp = BuzzProtocol::new(BuzzConfig {
        periodic_mode: true,
        transfer: TransferConfig {
            decode_schedule: DecodeSchedule::MessagePassing,
            ..TransferConfig::default()
        },
        ..BuzzConfig::default()
    })?;
    let tdma = TdmaProtocol::paper_default()?;
    let panel: [&dyn Protocol; 3] = [&buzz, &buzz_mp, &tdma];

    // Doppler rate and line-of-sight fraction straddle the boundary: the
    // first two rows are inside the coherence time, the last two beyond it.
    let severities: [(&str, f64, f64); 4] = [
        ("slow fade", 0.01, 0.8),
        ("boundary", 0.05, 0.5),
        ("past boundary", 0.08, 0.35),
        ("deep fade", 0.12, 0.25),
    ];
    let trials = 3u64;
    let k = 8usize;

    println!(
        "{:<15} {:>10} {:>12} {:>10} {:>12}",
        "regime", "scheme", "delivered", "loss %", "slots"
    );
    println!("{}", "-".repeat(63));

    for (label, doppler, los) in severities {
        let mut sums: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); panel.len()];
        for trial in 0..trials {
            let mut scenario = Scenario::builder(k)
                .seed(6_800 + trial)
                .dynamics(CorrelatedFading::new(doppler, 8, los)?)
                .build()?;
            let outcomes = run_panel(&panel, &mut scenario, trial)?;
            for (sum, outcome) in sums.iter_mut().zip(&outcomes) {
                sum.0 += outcome.delivered_messages as f64;
                sum.1 += outcome.loss_rate();
                sum.2 += outcome.slots_used as f64;
            }
        }
        for (name, sum) in ["buzz", "buzz-mp", "tdma"].iter().zip(&sums) {
            let t = trials as f64;
            println!(
                "{:<15} {:>10} {:>12.1} {:>10.1} {:>12.1}",
                label,
                name,
                sum.0 / t,
                sum.1 / t * 100.0,
                sum.2 / t
            );
        }
        println!();
    }
    Ok(())
}
