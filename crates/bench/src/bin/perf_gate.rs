//! `perf_gate` — the CI performance-regression gate.
//!
//! Compares a bench run's output (the criterion shim's
//! `bench <suite>/<id>: N iters, mean X ms/iter` lines) against a
//! checked-in `*.baseline.json`, failing when any shared entry regressed by
//! more than the allowed factor.  Usage:
//!
//! ```text
//! cargo bench -p backscatter_bench --bench decoders_large_k | tee bench.out
//! cargo run --release -p backscatter_bench --bin perf_gate -- \
//!     --baseline crates/bench/benches/decoders_large_k.baseline.json \
//!     --bench-output bench.out [--factor 1.5] [--floor-ms 0.05] \
//!     [--summary summary.md]
//! ```
//!
//! An entry regresses when `measured > baseline * factor + floor`.  The
//! absolute floor (default 0.05 ms) keeps microsecond-scale entries — pure
//! scheduler/timer noise on shared CI runners — from flaking a purely
//! relative gate, while leaving millisecond-scale regressions fully gated.
//!
//! The gate prints a markdown table (and appends it to `--summary` when
//! given — CI passes `$GITHUB_STEP_SUMMARY`), then exits non-zero if any
//! entry regressed.  Entries present on only one side also fail the gate:
//! a baseline entry missing from the bench output means a benchmark was
//! silently dropped (which would disarm the gate for good), and a measured
//! entry missing from the baseline means a new benchmark landed without a
//! recorded reference — re-record the baseline to admit it.  A malformed
//! command line exits 2 with the usage message: an unknown flag, a missing
//! or unparsable value, a factor that is not finite and positive, or a
//! floor that is not finite and non-negative.

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

/// One measured or recorded entry: id → mean milliseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Benchmark id, e.g. `decoders_large_k/session_worklist/100`.
    pub id: String,
    /// Mean wall-clock milliseconds per iteration.
    pub mean_ms: f64,
}

/// Extracts the entries of a `*.baseline.json` file.
///
/// The baselines are written by hand in a fixed shape (see
/// `crates/bench/benches/*.baseline.json`); this is a purpose-built scan
/// for that shape — `"id"` and `"mean_ms_per_iter"` key/value pairs inside
/// the `results` array — not a general JSON parser (the workspace has no
/// serde offline).
fn parse_baseline(text: &str) -> Vec<Entry> {
    let mut entries = Vec::new();
    for line in text.lines() {
        let Some(id_at) = line.find("\"id\"") else {
            continue;
        };
        let Some(mean_at) = line.find("\"mean_ms_per_iter\"") else {
            continue;
        };
        let id = line[id_at + 4..]
            .split('"')
            .nth(1)
            .unwrap_or_default()
            .to_string();
        let mean = line[mean_at + 18..]
            .trim_start_matches([':', ' '])
            .trim_end_matches(['}', ',', ' '])
            .trim()
            .parse::<f64>();
        if let (false, Ok(mean_ms)) = (id.is_empty(), mean) {
            entries.push(Entry { id, mean_ms });
        }
    }
    entries
}

/// Extracts the entries of a bench run's stdout (the criterion shim's
/// report lines: `bench <id>: <n> iters, mean <x> ms/iter`).
fn parse_bench_output(text: &str) -> Vec<Entry> {
    let mut entries = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("bench ") else {
            continue;
        };
        let Some((id, tail)) = rest.split_once(": ") else {
            continue;
        };
        let Some(mean_part) = tail.split("mean ").nth(1) else {
            continue;
        };
        let Some(value) = mean_part.split_whitespace().next() else {
            continue;
        };
        if let Ok(mean_ms) = value.parse::<f64>() {
            entries.push(Entry {
                id: id.to_string(),
                mean_ms,
            });
        }
    }
    entries
}

/// The verdict for one baseline entry.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Within the allowed factor of the baseline.
    Ok(f64),
    /// Slower than `factor ×` baseline.
    Regressed(f64),
    /// Present in the baseline but absent from the bench output.
    Missing,
}

/// Gates `measured` against `baseline`: per baseline entry, the measured
/// mean must stay under `factor ×` the recorded mean plus the absolute
/// `floor_ms` grace (which is what keeps microsecond entries gateable).
fn gate(
    baseline: &[Entry],
    measured: &[Entry],
    factor: f64,
    floor_ms: f64,
) -> Vec<(String, f64, Verdict)> {
    baseline
        .iter()
        .map(|b| {
            let verdict = match measured.iter().find(|m| m.id == b.id) {
                None => Verdict::Missing,
                Some(m) => {
                    let ratio = m.mean_ms / b.mean_ms.max(1e-12);
                    if m.mean_ms > b.mean_ms * factor + floor_ms {
                        Verdict::Regressed(ratio)
                    } else {
                        Verdict::Ok(ratio)
                    }
                }
            };
            (b.id.clone(), b.mean_ms, verdict)
        })
        .collect()
}

/// Renders the gate results as a markdown table plus a one-line verdict.
fn render_markdown(
    rows: &[(String, f64, Verdict)],
    measured: &[Entry],
    factor: f64,
) -> (String, bool) {
    let mut out = String::new();
    let mut failed = false;
    let _ = writeln!(out, "### Bench regression gate (allowed: {factor:.2}x)\n");
    let _ = writeln!(
        out,
        "| benchmark | baseline (ms) | measured (ms) | ratio | verdict |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (id, base_ms, verdict) in rows {
        let measured_ms = measured
            .iter()
            .find(|m| &m.id == id)
            .map(|m| format!("{:.3}", m.mean_ms))
            .unwrap_or_else(|| "—".into());
        let (ratio, emoji) = match verdict {
            Verdict::Ok(r) => (format!("{r:.2}x"), "✅"),
            Verdict::Regressed(r) => {
                failed = true;
                (format!("{r:.2}x"), "❌ regressed")
            }
            Verdict::Missing => {
                failed = true;
                ("—".into(), "❌ missing from bench output")
            }
        };
        let _ = writeln!(
            out,
            "| `{id}` | {base_ms:.3} | {measured_ms} | {ratio} | {emoji} |"
        );
    }
    for m in measured {
        if !rows.iter().any(|(id, _, _)| id == &m.id) {
            failed = true;
            let _ = writeln!(
                out,
                "| `{}` | — | {:.3} | — | ❌ not in baseline (re-record it) |",
                m.id, m.mean_ms
            );
        }
    }
    let _ = writeln!(
        out,
        "\n{}",
        if failed {
            "**FAIL** — at least one benchmark regressed past the gate."
        } else {
            "**PASS** — every benchmark within the gate."
        }
    );
    (out, failed)
}

const USAGE: &str = "usage: perf_gate --baseline <json> --bench-output <file> \
                     [--factor 1.5] [--floor-ms 0.05] [--summary <md>]";

/// The gate's command line.
#[derive(Debug, PartialEq)]
struct Options {
    baseline_path: String,
    bench_output_path: String,
    factor: f64,
    floor_ms: f64,
    summary_path: Option<String>,
}

/// Parses the command line.  A missing or unparsable value, a factor that is
/// not finite and positive, a floor that is not finite and non-negative, an
/// unknown flag and a missing `--baseline` or `--bench-output` are errors:
/// a gate that silently fell back to a default, or compared against `NaN`
/// or infinity, would pass every run.
fn parse_args(args: &[String]) -> Result<Options, String> {
    fn number(flag: &str, value: &str, ok: fn(f64) -> bool) -> Result<f64, String> {
        match value.parse::<f64>() {
            Ok(v) if v.is_finite() && ok(v) => Ok(v),
            _ => Err(format!("invalid value {value:?} for {flag}")),
        }
    }
    let mut options = Options {
        baseline_path: String::new(),
        bench_output_path: String::new(),
        factor: 1.5,
        floor_ms: 0.05,
        summary_path: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--baseline" => options.baseline_path = value()?.clone(),
            "--bench-output" => options.bench_output_path = value()?.clone(),
            "--factor" => options.factor = number(flag, value()?, |f| f > 0.0)?,
            "--floor-ms" => options.floor_ms = number(flag, value()?, |f| f >= 0.0)?,
            "--summary" => options.summary_path = Some(value()?.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if options.baseline_path.is_empty() || options.bench_output_path.is_empty() {
        return Err("--baseline and --bench-output are required".into());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        baseline_path,
        bench_output_path,
        factor,
        floor_ms,
        summary_path,
    } = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let bench_text = match std::fs::read_to_string(&bench_output_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {bench_output_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline = parse_baseline(&baseline_text);
    let measured = parse_bench_output(&bench_text);
    if baseline.is_empty() {
        eprintln!("no entries parsed from {baseline_path}; refusing to pass an empty gate");
        return ExitCode::from(2);
    }
    let rows = gate(&baseline, &measured, factor, floor_ms);
    let (markdown, failed) = render_markdown(&rows, &measured, factor);
    println!("{markdown}");
    if let Some(path) = summary_path {
        if let Err(e) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(markdown.as_bytes()))
        {
            eprintln!("failed to append summary to {path}: {e}");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "results": [
    { "id": "decoders_large_k/session_worklist_dense/100", "iters": 3, "mean_ms_per_iter": 127.705 },
    { "id": "decoders_large_k/session_worklist/64", "iters": 3, "mean_ms_per_iter": 24.613 }
  ]
}"#;

    #[test]
    fn parses_baseline_and_bench_output() {
        let baseline = parse_baseline(BASELINE);
        assert_eq!(baseline.len(), 2);
        assert_eq!(
            baseline[0].id,
            "decoders_large_k/session_worklist_dense/100"
        );
        assert!((baseline[1].mean_ms - 24.613).abs() < 1e-9);

        let bench = "\
warming up\n\
bench decoders_large_k/session_worklist_dense/100: 3 iters, mean 130.001 ms/iter\n\
bench decoders_large_k/session_worklist/64: 3 iters, mean 20.100 ms/iter\n";
        let measured = parse_bench_output(bench);
        assert_eq!(measured.len(), 2);
        assert!((measured[0].mean_ms - 130.001).abs() < 1e-9);
    }

    #[test]
    fn within_factor_passes_and_faster_is_fine() {
        let baseline = parse_baseline(BASELINE);
        let measured = vec![
            Entry {
                id: "decoders_large_k/session_worklist_dense/100".into(),
                mean_ms: 150.0, // 1.17x: within 1.5x
            },
            Entry {
                id: "decoders_large_k/session_worklist/64".into(),
                mean_ms: 5.0, // faster
            },
        ];
        let rows = gate(&baseline, &measured, 1.5, 0.05);
        assert!(rows
            .iter()
            .all(|(_, _, verdict)| matches!(verdict, Verdict::Ok(_))));
        let (markdown, failed) = render_markdown(&rows, &measured, 1.5);
        assert!(!failed);
        assert!(markdown.contains("**PASS**"));
    }

    #[test]
    fn simulated_two_x_slowdown_fails_the_gate() {
        // The acceptance check: perturb one entry to 2x its baseline and the
        // gate must fail.
        let baseline = parse_baseline(BASELINE);
        let measured = vec![
            Entry {
                id: "decoders_large_k/session_worklist_dense/100".into(),
                mean_ms: 127.705,
            },
            Entry {
                id: "decoders_large_k/session_worklist/64".into(),
                mean_ms: 24.613 * 2.0,
            },
        ];
        let rows = gate(&baseline, &measured, 1.5, 0.05);
        let (markdown, failed) = render_markdown(&rows, &measured, 1.5);
        assert!(failed);
        assert!(markdown.contains("❌ regressed"));
        assert!(matches!(rows[1].2, Verdict::Regressed(r) if (r - 2.0).abs() < 1e-9));
    }

    #[test]
    fn absolute_floor_shields_microsecond_entries_only() {
        let baseline = vec![
            Entry {
                id: "suite/tiny".into(),
                mean_ms: 0.008,
            },
            Entry {
                id: "suite/big".into(),
                mean_ms: 100.0,
            },
        ];
        // The tiny entry doubles (timer noise) but stays under the floor;
        // the big entry doubles and must still fail.
        let measured = vec![
            Entry {
                id: "suite/tiny".into(),
                mean_ms: 0.016,
            },
            Entry {
                id: "suite/big".into(),
                mean_ms: 200.0,
            },
        ];
        let rows = gate(&baseline, &measured, 1.5, 0.05);
        assert!(matches!(rows[0].2, Verdict::Ok(_)));
        assert!(matches!(rows[1].2, Verdict::Regressed(_)));
        // With no floor, the tiny entry's 2x ratio fails as before.
        let rows = gate(&baseline, &measured, 1.5, 0.0);
        assert!(matches!(rows[0].2, Verdict::Regressed(_)));
    }

    #[test]
    fn missing_baseline_entry_fails_and_new_entry_fails() {
        let baseline = parse_baseline(BASELINE);
        let measured = vec![Entry {
            id: "decoders_large_k/brand_new/32".into(),
            mean_ms: 1.0,
        }];
        let rows = gate(&baseline, &measured, 1.5, 0.05);
        assert!(rows.iter().all(|(_, _, v)| *v == Verdict::Missing));
        let (markdown, failed) = render_markdown(&rows, &measured, 1.5);
        assert!(failed);
        assert!(markdown.contains("missing from bench output"));
        assert!(markdown.contains("❌ not in baseline"));
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn command_line_defaults_and_overrides_parse() {
        let required = ["--baseline", "b.json", "--bench-output", "o.txt"];
        let options = parse_args(&args(&required)).unwrap();
        assert_eq!(
            options,
            Options {
                baseline_path: "b.json".into(),
                bench_output_path: "o.txt".into(),
                factor: 1.5,
                floor_ms: 0.05,
                summary_path: None,
            }
        );
        let mut all = required.to_vec();
        all.extend(["--factor", "2", "--floor-ms", "0", "--summary", "s.md"]);
        let options = parse_args(&args(&all)).unwrap();
        assert_eq!((options.factor, options.floor_ms), (2.0, 0.0));
        assert_eq!(options.summary_path.as_deref(), Some("s.md"));
    }

    #[test]
    fn values_that_would_disarm_the_gate_are_usage_errors() {
        // Each of these once passed a bench output whose every row read far
        // past its ceiling (`NaN`, an infinite factor or floor), silently
        // kept a default (`abc`), or was only warned about (unknown flags).
        let required = ["--baseline", "b.json", "--bench-output", "o.txt"];
        let bad: [&[&str]; 16] = [
            &["--factor", "NaN"],
            &["--factor", "inf"],
            &["--factor", "-inf"],
            &["--factor", "abc"],
            &["--factor", "0"],
            &["--factor", "-1.5"],
            &["--factor"],
            &["--floor-ms", "NaN"],
            &["--floor-ms", "inf"],
            &["--floor-ms", "-0.01"],
            &["--floor-ms", "abc"],
            &["--floor-ms"],
            &["--summary"],
            &["--bench-output"],
            &["--facto", "2"],
            &["--verbose"],
        ];
        for extra in bad {
            let mut list = required.to_vec();
            list.extend(extra);
            assert!(parse_args(&args(&list)).is_err(), "{extra:?} was accepted");
        }
        assert!(parse_args(&args(&["--baseline", "b.json"])).is_err());
        assert!(parse_args(&args(&["--bench-output", "o.txt"])).is_err());
        assert!(parse_args(&args(&["--baseline", "", "--bench-output", "o.txt"])).is_err());
    }

    #[test]
    fn unrecorded_measured_entry_alone_fails_the_gate() {
        // Even when every baseline entry is within the gate, a measured
        // entry with no recorded reference must fail until re-recorded.
        let baseline = parse_baseline(BASELINE);
        let mut measured = vec![
            Entry {
                id: "decoders_large_k/session_worklist_dense/100".into(),
                mean_ms: 127.705,
            },
            Entry {
                id: "decoders_large_k/session_worklist/64".into(),
                mean_ms: 24.613,
            },
        ];
        let rows = gate(&baseline, &measured, 1.5, 0.05);
        let (_, failed) = render_markdown(&rows, &measured, 1.5);
        assert!(!failed);

        measured.push(Entry {
            id: "decoders_large_k/brand_new/32".into(),
            mean_ms: 1.0,
        });
        let rows = gate(&baseline, &measured, 1.5, 0.05);
        assert!(rows.iter().all(|(_, _, v)| matches!(v, Verdict::Ok(_))));
        let (markdown, failed) = render_markdown(&rows, &measured, 1.5);
        assert!(failed);
        assert!(markdown.contains("❌ not in baseline"));
        assert!(markdown.contains("**FAIL**"));
    }
}
