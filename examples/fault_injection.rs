//! Fault injection and session recovery: Buzz with and without the
//! recovery layer under control-plane faults.
//!
//! Attaches seeded `FaultInjector`s from `backscatter_sim::faults` to a
//! shelf scenario — slot erasures that starve the collision decoder, lost
//! downlink feedback, tag dropouts, a mid-session reader restart — and
//! drives the plain protocol, the resilient wrapper
//! (`buzz::recovery::ResilientBuzzProtocol`), and the TDMA baseline through
//! the unified `&[&dyn Protocol]` session API.  The plain session delivers
//! zero when the decoder starves or the reader loses state; `buzz+r`
//! detects the stall, reseeds participation epochs, restores its decoder
//! checkpoint, and — when all else fails — degrades to polling only the
//! unresolved tags, Gen-2 style.
//!
//! Run with: `cargo run --release --example fault_injection`

use backscatter_baselines::TdmaProtocol;
use backscatter_sim::faults::{FeedbackLoss, ReaderRestart, SlotErasure, TagDropout};
use backscatter_sim::scenario::{Scenario, ScenarioBuilder};
use buzz::protocol::{BuzzConfig, BuzzProtocol};
use buzz::recovery::{RecoveryConfig, ResilientBuzzProtocol};
use buzz::session::{Protocol, SessionOutcome};

/// Builds the scenario for one (fault regime, trial) cell.  Every injector
/// draws from its own seeded stream, so reruns are byte-identical.
fn build_scenario(
    fault: &str,
    k: usize,
    seed: u64,
) -> Result<Scenario, Box<dyn std::error::Error>> {
    let builder = ScenarioBuilder::paper_uplink(k, seed);
    Ok(match fault {
        "clean" => builder.build()?,
        "erase 100%" => builder.fault(SlotErasure::new(1.0)?).build()?,
        "erase+fb 50%" => builder
            .fault(SlotErasure::new(0.5)?)
            .fault(FeedbackLoss::new(0.5)?)
            .build()?,
        "dropout 25%" => builder.fault(TagDropout::new(0.25, 40)?).build()?,
        "restart @3" => builder.fault(ReaderRestart::new(3)).build()?,
        other => return Err(format!("unknown fault regime {other}").into()),
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    };
    let plain = BuzzProtocol::new(config)?;
    // A K = 8 session decodes in about 5 slots: snapshot every 2 data slots
    // so the slot-3 restart has a checkpoint to resume from.
    let resilient = ResilientBuzzProtocol::new(
        config,
        RecoveryConfig {
            checkpoint_interval: 2,
        },
    )?;
    let tdma = TdmaProtocol::paper_default()?;
    let panel: [&dyn Protocol; 3] = [&plain, &resilient, &tdma];

    let regimes = [
        "clean",
        "erase 100%",
        "erase+fb 50%",
        "dropout 25%",
        "restart @3",
    ];
    let trials = 3u64;
    let k = 8usize;

    println!(
        "{:<14} {:>8} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "fault", "scheme", "delivered", "requests", "restores", "polls", "wasted"
    );
    println!("{}", "-".repeat(74));

    // Per regime, each scheme's per-trial means of the printed columns:
    // delivered, requests, restores, polls, wasted.
    let mut means: Vec<Vec<[f64; 5]>> = Vec::with_capacity(regimes.len());
    for regime in regimes {
        let mut sums: Vec<[f64; 5]> = vec![[0.0; 5]; panel.len()];
        for trial in 0..trials {
            let mut outcomes: Vec<SessionOutcome> = Vec::with_capacity(panel.len());
            for protocol in panel {
                let mut scenario = build_scenario(regime, k, 7_700 + trial * 13)?;
                let outcome = protocol.run_after(&mut scenario, trial, &outcomes)?;
                outcomes.push(outcome);
            }
            for (sum, outcome) in sums.iter_mut().zip(&outcomes) {
                sum[0] += outcome.delivered_messages as f64;
                if let Some(r) = outcome
                    .diagnostics
                    .as_ref()
                    .and_then(|d| d.recovery.as_ref())
                {
                    sum[1] += r.extra_slot_requests as f64;
                    sum[2] += r.checkpoint_restores as f64;
                    sum[3] += r.fallback_polls as f64;
                    sum[4] += r.wasted_slots as f64;
                }
            }
        }
        let n = trials as f64;
        let mean: Vec<[f64; 5]> = sums.iter().map(|sum| sum.map(|v| v / n)).collect();
        for (protocol, m) in panel.iter().zip(&mean) {
            println!(
                "{:<14} {:>8} {:>7.1}/{:<2} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                regime,
                protocol.name(),
                m[0],
                k,
                m[1],
                m[2],
                m[3],
                m[4]
            );
        }
        println!("{}", "-".repeat(74));
        means.push(mean);
    }

    // The closing lines restate the rows above: panel[0] is plain Buzz and
    // panel[1] is buzz+r.
    let of = |regime: &str| {
        &means[regimes
            .iter()
            .position(|r| *r == regime)
            .expect("a printed regime")]
    };
    let erase = of("erase 100%");
    println!(
        "Total slot erasure: plain Buzz delivered {:.1}/{k}; buzz+r delivered\n\
         {:.1}/{k} after {:.1} extra-slot requests and {:.1} TDMA fallback polls.",
        erase[0][0], erase[1][0], erase[1][1], erase[1][3]
    );
    let restart = of("restart @3");
    println!(
        "Reader restart at slot 3: plain Buzz delivered {:.1}/{k}; buzz+r delivered\n\
         {:.1}/{k} after {:.1} checkpoint restores that threw away {:.1} decoder rows.",
        restart[0][0], restart[1][0], restart[1][2], restart[1][4]
    );
    let clean = of("clean");
    if clean[1][1..].iter().all(|&v| v == 0.0) && clean[1][0] == clean[0][0] {
        println!(
            "With no faults attached, recovery never fired and buzz+r delivered\n\
             what plain Buzz delivered ({:.1}/{k}).",
            clean[0][0]
        );
    } else {
        println!(
            "With no faults attached, buzz+r delivered {:.1}/{k} against plain Buzz's\n\
             {:.1}/{k}, after {:.1} extra-slot requests.",
            clean[1][0], clean[0][0], clean[1][1]
        );
    }
    Ok(())
}
