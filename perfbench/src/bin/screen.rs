//! `screen <k> <index>`: runs catalogue candidate `index` at `k` tags through
//! the default-config Buzz pipeline and prints `k index milliseconds`.
//!
//! `screen.py` runs it once per candidate under a time limit and prints the
//! exclusion list for `src/catalogue.rs`.

use std::process::ExitCode;
use std::time::Instant;

use buzz_suite::protocol::{BuzzConfig, BuzzProtocol};
use buzz_suite::ScenarioBuilder;
use perfbench::catalogue::candidate;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(k), Some(index)) = (
        args.first().and_then(|a| a.parse::<usize>().ok()),
        args.get(1).and_then(|a| a.parse::<u64>().ok()),
    ) else {
        eprintln!("usage: screen <k> <index>");
        return ExitCode::from(2);
    };
    let (scenario_seed, noise_seed) = candidate(k, index);
    let start = Instant::now();
    let outcome = ScenarioBuilder::paper_uplink(k, scenario_seed)
        .build()
        .map_err(|e| e.to_string())
        .and_then(|mut scenario| {
            BuzzProtocol::new(BuzzConfig::default())
                .and_then(|buzz| buzz.run(&mut scenario, noise_seed))
                .map_err(|e| e.to_string())
        });
    match outcome {
        Ok(_) => {
            println!("{k} {index} {:.1}", start.elapsed().as_secs_f64() * 1e3);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("screen: k = {k}, index = {index}: {e}");
            ExitCode::FAILURE
        }
    }
}
