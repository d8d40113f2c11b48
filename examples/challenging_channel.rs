//! Reliability under worsening channels (the Fig. 12 experiment).
//!
//! Four tags are moved farther and farther from the reader.  TDMA and CDMA
//! transmit at a fixed 1 bit/symbol and start losing messages; Buzz's rateless
//! code takes more collision slots instead, dropping its aggregate rate below
//! 1 bit/symbol.  The closing lines are read off the printed rows: how far
//! down Buzz delivered every message, and what it lost below that.
//!
//! Run with: `cargo run --release --example challenging_channel`

use backscatter_baselines::{CdmaProtocol, TdmaProtocol};
use backscatter_sim::scenario::ScenarioBuilder;
use buzz::protocol::{BuzzConfig, BuzzProtocol};
use buzz::session::Protocol;

/// One printed row: the mean over a row's trials, losses in percent.
#[derive(Clone, Copy)]
struct Row {
    snr_db: f64,
    buzz_rate: f64,
    buzz_loss: f64,
    tdma_loss: f64,
    cdma_loss: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let snr_points = [22.0, 15.0, 10.0, 6.0, 4.0];
    println!(
        "{:>12} | {:>22} | {:>18} | {:>18}",
        "median SNR", "Buzz (rate, loss)", "TDMA loss", "CDMA loss"
    );
    println!("{}", "-".repeat(80));

    let tdma = TdmaProtocol::paper_default()?;
    let mut rows = Vec::new();
    for (i, &snr_db) in snr_points.iter().enumerate() {
        let mut buzz_rate = 0.0;
        let mut buzz_loss = 0.0;
        let mut tdma_loss = 0.0;
        let mut cdma_loss = 0.0;
        let trials = 5u64;

        for trial in 0..trials {
            let seed = 500 + i as u64 * 10 + trial;
            let mut scenario = ScenarioBuilder::challenging(4, seed, snr_db).build()?;

            // Buzz in periodic mode: isolates the data-phase rate adaptation,
            // like §9's uplink experiments which assume identification is done.
            let buzz = BuzzProtocol::new(BuzzConfig {
                periodic_mode: true,
                ..BuzzConfig::default()
            })?;
            let outcome = buzz.run(&mut scenario, trial)?;
            buzz_rate += outcome.transfer.bits_per_symbol();
            buzz_loss += outcome.message_loss_rate();

            tdma_loss += tdma.run(&mut scenario, trial)?.loss_rate();
            cdma_loss += CdmaProtocol.run(&mut scenario, trial)?.loss_rate();
        }

        let n = trials as f64;
        let row = Row {
            snr_db,
            buzz_rate: buzz_rate / n,
            buzz_loss: buzz_loss / n * 100.0,
            tdma_loss: tdma_loss / n * 100.0,
            cdma_loss: cdma_loss / n * 100.0,
        };
        println!(
            "{:>9.0} dB | {:>10.2} b/s, {:>4.0} % | {:>16.0} % | {:>16.0} %",
            row.snr_db, row.buzz_rate, row.buzz_loss, row.tdma_loss, row.cdma_loss
        );
        rows.push(row);
    }

    // Rows run from the best channel to the worst, so Buzz delivered every
    // message down to the last row of the leading lossless run.
    let lossless = rows.iter().take_while(|r| r.buzz_loss == 0.0).count();
    println!();
    match lossless.checked_sub(1).map(|last| rows[last]) {
        Some(r) => println!(
            "Buzz delivered every message down to {:.0} dB by letting its rate fall\n\
             to {:.2} bit/symbol; there TDMA lost {:.0} % and CDMA {:.0} %.",
            r.snr_db, r.buzz_rate, r.tdma_loss, r.cdma_loss
        ),
        None => println!("Buzz lost messages at every SNR tested."),
    }
    for r in &rows[lossless..] {
        println!(
            "At {:.0} dB Buzz lost {:.0} % of its messages (TDMA {:.0} %, CDMA {:.0} %).",
            r.snr_db, r.buzz_loss, r.tdma_loss, r.cdma_loss
        );
    }
    Ok(())
}
