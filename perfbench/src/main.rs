//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`).  Exits non-zero when any output check fails.

use std::process::ExitCode;
use std::time::Instant;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::{run, RunOptions, Scale, Workload};

const USAGE: &str =
    "usage: perfbench --workload <paper_mix|large_k|fleet_k16> --seed <n> [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<RunOptions, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: not a duration: {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunOptions {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        scale: Scale::full(workload),
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = options.workload.name();
    println!(
        "perfbench {name} seed {} ({} s, trace {}, {} threads)",
        options.seed,
        options.seconds,
        u8::from(options.trace),
        options.threads
    );
    let mut output = run(&options, process_start);
    for note in &output.report.notes {
        println!("  {note}");
    }
    if let Some(trace) = &output.trace {
        print!("{}", trace.table());
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{name}-{}.json", options.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace.to_json(name, options.seed)));
        match written {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let catalogue = if options.trace { PER_LAYER } else { END_TO_END };
    let line = output.report.result_line(catalogue);
    for failure in output.report.failures() {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{line}");
    if output.report.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse(&args("--workload large_k --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(o.workload, Workload::LargeK);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 12.0, true));
        assert_eq!(o.scale, Scale::full(Workload::LargeK));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--seed 1",
            "--workload nope --seed 1",
            "--workload large_k",
            "--workload large_k --seed x",
            "--workload large_k --seed 1 --trace 2",
            "--workload large_k --seed 1 --seconds -1",
            "--workload large_k --seed 1 --extra 3",
            "--workload large_k --seed",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
