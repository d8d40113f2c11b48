//! Bursty interference: all four schemes under an on/off jammer.
//!
//! Attaches the `BurstyInterference` dynamics (a duty-cycled co-located
//! radio multiplying the noise floor during bursts) to builder scenarios and
//! compares Buzz, TDMA, CDMA, and Gen-2 FSA through the unified
//! `&[&dyn Protocol]` session API.  Buzz's rateless code rides out the
//! bursts by collecting more collision slots; the fixed-rate baselines have
//! no such lever and drop messages hit by a burst.
//!
//! Run with: `cargo run --release --example bursty_interference`

use backscatter_baselines::session::{CdmaProtocol, FsaIdentification, TdmaProtocol};
use backscatter_sim::dynamics::BurstyInterference;
use backscatter_sim::scenario::Scenario;
use buzz::protocol::{BuzzConfig, BuzzProtocol};
use buzz::session::{run_panel, Protocol};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let buzz = BuzzProtocol::new(BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    })?;
    let tdma = TdmaProtocol::paper_default()?;
    let cdma = CdmaProtocol::paper_default()?;
    let fsa = FsaIdentification;
    let panel: [&dyn Protocol; 4] = [&buzz, &tdma, &cdma, &fsa];

    // (label, period, burst length, noise multiplier); bursts of a third of
    // the airtime at increasing intensity.
    let jammers: [(&str, u64, u64, f64); 3] = [
        ("quiet band", 10, 0, 1.0),
        ("wifi-like", 10, 3, 20.0),
        ("heavy jammer", 10, 3, 200.0),
    ];
    let trials = 3u64;
    let k = 6usize;

    println!(
        "{:<14} {:>8} {:>12} {:>10} {:>8} {:>12}",
        "interference", "scheme", "delivered", "loss %", "ms", "slots"
    );
    println!("{}", "-".repeat(70));

    for (label, period, burst, multiplier) in jammers {
        let mut sums: Vec<(f64, f64, f64, f64)> = vec![(0.0, 0.0, 0.0, 0.0); panel.len()];
        for trial in 0..trials {
            let mut scenario = Scenario::builder(k)
                .seed(7000 + trial)
                .dynamics(BurstyInterference::new(period, burst, multiplier)?)
                .build()?;
            let outcomes = run_panel(&panel, &mut scenario, trial)?;
            for (sum, outcome) in sums.iter_mut().zip(&outcomes) {
                sum.0 += outcome.delivered_messages as f64;
                sum.1 += outcome.loss_rate();
                sum.2 += outcome.wall_time_ms;
                sum.3 += outcome.slots_used as f64;
            }
        }
        let n = trials as f64;
        for (protocol, sum) in panel.iter().zip(&sums) {
            println!(
                "{:<14} {:>8} {:>9.1}/{:<2} {:>10.0} {:>8.2} {:>12.1}",
                label,
                protocol.name(),
                sum.0 / n,
                k,
                sum.1 / n * 100.0,
                sum.2 / n,
                sum.3 / n
            );
        }
        println!("{}", "-".repeat(70));
    }

    println!(
        "During bursts the per-slot noise floor jumps by the configured\n\
         multiplier. Buzz keeps collecting collisions until CRCs pass, so its\n\
         slot count absorbs the jammer; the 1 bit/symbol schemes cannot adapt.\n\
         FSA's analytic inventory model has no PHY, so its rows are an\n\
         unaffected control. Bursts are indexed by each scheme's own slot\n\
         clock (Buzz symbol slots, TDMA polling rounds, CDMA bit periods)."
    );
    Ok(())
}
