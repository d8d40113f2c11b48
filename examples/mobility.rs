//! Mobility: all four schemes over a moving cart, through one panel.
//!
//! Builds scenarios with the `Mobility` dynamics attached (per-slot channel
//! drift plus a small fading wobble) and drives Buzz, TDMA, CDMA, and Gen-2
//! FSA through the unified `&[&dyn Protocol]` session API.  The point of the
//! exercise: the comparison loop below never names a scheme — adding a fifth
//! protocol to the panel is one array element.
//!
//! Run with: `cargo run --release --example mobility`

use backscatter_baselines::{CdmaProtocol, FsaIdentification, TdmaProtocol};
use backscatter_sim::dynamics::Mobility;
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

    let paces: [(&str, f64); 3] = [
        ("static cart", 0.0),
        ("walking pace", 0.02),
        ("jogging pace", 0.06),
    ];
    let trials = 3u64;
    let k = 6usize;

    println!(
        "{:<14} {:>8} {:>12} {:>10} {:>8} {:>12}",
        "mobility", "scheme", "delivered", "loss %", "ms", "slots"
    );
    println!("{}", "-".repeat(70));

    for (label, drift) in paces {
        // Accumulate per-scheme means over a few locations.
        let mut sums: Vec<(f64, f64, f64, f64)> = vec![(0.0, 0.0, 0.0, 0.0); panel.len()];
        for trial in 0..trials {
            let mut scenario = Scenario::builder(k)
                .seed(4000 + trial)
                .dynamics(Mobility::new(drift, 0.05)?)
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
        "Drifting channels decorrelate the reader's channel estimates: the\n\
         fixed-rate schemes start losing messages while Buzz spends extra\n\
         collision slots (watch its slot count grow) to keep delivering.\n\
         FSA's analytic inventory model has no PHY, so its rows are an\n\
         unaffected control. Slot clocks are protocol-local (symbol slots\n\
         for Buzz, polling rounds for TDMA), so read drift rates per scheme."
    );
    Ok(())
}
