//! `perf_gate` — the CI performance-regression gate.
//!
//! Compares the output of one or more passes of a bench suite (the
//! criterion shim's `bench <suite>/<id>: N iters, mean X ms/iter` lines)
//! against a checked-in `*.baseline.json`, failing when any shared entry
//! regressed by more than the allowed factor.  Usage:
//!
//! ```text
//! for pass in 1 2 3; do
//!     BENCH_SMOKE=1 cargo bench -p backscatter_bench --bench decoders_large_k | tee bench-$pass.out
//! done
//! cargo run --release -p backscatter_bench --bin perf_gate -- \
//!     --baseline crates/bench/benches/decoders_large_k.baseline.json \
//!     --bench-output bench-1.out --bench-output bench-2.out --bench-output bench-3.out \
//!     [--factor 1.5] [--floor-ms 0.05] [--summary summary.md]
//! ```
//!
//! Each `--bench-output` is one pass, and the gate reads each entry's
//! median over the passes (CI runs three): one slow pass on a noisy host
//! then fails nothing, while code that is slower in most passes still
//! fails.  An entry regresses when `median > baseline * factor + floor`.  The
//! absolute floor (default 0.05 ms) keeps microsecond-scale entries — pure
//! scheduler/timer noise on shared CI runners — from flaking a purely
//! relative gate, while leaving millisecond-scale regressions fully gated.
//!
//! The gate prints a markdown table (and appends it to `--summary` when
//! given — CI passes `$GITHUB_STEP_SUMMARY`), then exits non-zero if any
//! entry regressed.  Entries present on only one side also fail the gate:
//! a baseline entry missing from any pass means a benchmark was silently
//! dropped (which would disarm the gate for good), and a measured entry
//! missing from the baseline means a new benchmark landed without a
//! recorded reference — re-record the baseline to admit it.  A malformed
//! command line exits 2 with the usage message: an unknown flag, a missing
//! or unparsable value, a factor that is not finite and positive, or a
//! floor that is not finite and non-negative.  A baseline that is not valid
//! JSON, or that records no entry, also exits 2.

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

use buzz_bench::orchestrate::CanonicalJson;

/// One measured or recorded entry: id → mean milliseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Benchmark id, e.g. `decoders_large_k/session_worklist/100`.
    pub id: String,
    /// Mean wall-clock milliseconds per iteration.
    pub mean_ms: f64,
}

/// Extracts the entries of a `*.baseline.json` file (see
/// `crates/bench/benches/*.baseline.json`): the `id` and the integer or
/// float `mean_ms_per_iter` of each object in the `results` array.
///
/// # Errors
///
/// Returns the parse error of a file that is not valid JSON.
fn parse_baseline(text: &str) -> Result<Vec<Entry>, String> {
    let json = CanonicalJson::parse(text)?;
    let results = json
        .get("results")
        .and_then(CanonicalJson::as_array)
        .unwrap_or_default();
    Ok(results
        .iter()
        .filter_map(|result| {
            let id = result.get("id")?.as_str()?;
            let mean_ms = match result.get("mean_ms_per_iter")? {
                CanonicalJson::Int(ms) => *ms as f64,
                CanonicalJson::Float(ms) => *ms,
                _ => return None,
            };
            (!id.is_empty()).then(|| Entry {
                id: id.to_string(),
                mean_ms,
            })
        })
        .collect())
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
    /// Present in the baseline but absent from at least one pass.
    Missing,
}

/// The median of `id`'s means over `passes` (the mean of the middle two
/// for an even count), or `None` when any pass lacks it.
fn median_ms(passes: &[Vec<Entry>], id: &str) -> Option<f64> {
    let mut means = passes
        .iter()
        .map(|pass| pass.iter().find(|m| m.id == id).map(|m| m.mean_ms))
        .collect::<Option<Vec<f64>>>()?;
    means.sort_by(f64::total_cmp);
    let mid = means.len() / 2;
    match means.len() {
        0 => None,
        n if n % 2 == 1 => Some(means[mid]),
        _ => Some((means[mid - 1] + means[mid]) / 2.0),
    }
}

/// Gates the bench `passes` against `baseline`: per baseline entry, the
/// median of its measured means must stay under `factor ×` the recorded
/// mean plus the absolute `floor_ms` grace (which is what keeps
/// microsecond entries gateable).
fn gate(
    baseline: &[Entry],
    passes: &[Vec<Entry>],
    factor: f64,
    floor_ms: f64,
) -> Vec<(String, f64, Verdict)> {
    baseline
        .iter()
        .map(|b| {
            let verdict = match median_ms(passes, &b.id) {
                None => Verdict::Missing,
                Some(measured_ms) => {
                    let ratio = measured_ms / b.mean_ms.max(1e-12);
                    if measured_ms > b.mean_ms * factor + floor_ms {
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
    passes: &[Vec<Entry>],
    factor: f64,
) -> (String, bool) {
    let mut out = String::new();
    let mut failed = false;
    let _ = writeln!(
        out,
        "### Bench regression gate (allowed: {factor:.2}x, median of {} passes)\n",
        passes.len()
    );
    let _ = writeln!(
        out,
        "| benchmark | baseline (ms) | measured (ms) | ratio | verdict |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (id, base_ms, verdict) in rows {
        let measured_ms = median_ms(passes, id).map_or_else(|| "—".into(), |ms| format!("{ms:.3}"));
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
    let mut unrecorded: Vec<&str> = Vec::new();
    for m in passes.iter().flatten() {
        if !rows.iter().any(|(id, _, _)| id == &m.id) && !unrecorded.contains(&m.id.as_str()) {
            unrecorded.push(&m.id);
        }
    }
    for id in unrecorded {
        failed = true;
        let measured_ms = median_ms(passes, id).map_or_else(|| "—".into(), |ms| format!("{ms:.3}"));
        let _ = writeln!(
            out,
            "| `{id}` | — | {measured_ms} | — | ❌ not in baseline (re-record it) |"
        );
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
                     [--bench-output <file> ...] [--factor 1.5] [--floor-ms 0.05] \
                     [--summary <md>]";

/// The gate's command line.
#[derive(Debug, PartialEq)]
struct Options {
    baseline_path: String,
    /// One bench output per pass.
    bench_output_paths: Vec<String>,
    factor: f64,
    floor_ms: f64,
    summary_path: Option<String>,
}

/// Parses the command line; `--bench-output` repeats, once per pass.  A
/// missing or unparsable value, a factor that is not finite and positive, a
/// floor that is not finite and non-negative, an unknown flag and a missing
/// `--baseline` or `--bench-output` are errors:
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
        bench_output_paths: Vec::new(),
        factor: 1.5,
        floor_ms: 0.05,
        summary_path: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--baseline" => options.baseline_path = value()?.clone(),
            "--bench-output" => options.bench_output_paths.push(value()?.clone()),
            "--factor" => options.factor = number(flag, value()?, |f| f > 0.0)?,
            "--floor-ms" => options.floor_ms = number(flag, value()?, |f| f >= 0.0)?,
            "--summary" => options.summary_path = Some(value()?.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if options.baseline_path.is_empty()
        || options.bench_output_paths.is_empty()
        || options.bench_output_paths.iter().any(String::is_empty)
    {
        return Err("--baseline and --bench-output are required".into());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        baseline_path,
        bench_output_paths,
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
    let mut passes = Vec::new();
    for path in &bench_output_paths {
        match std::fs::read_to_string(path) {
            Ok(text) => passes.push(parse_bench_output(&text)),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let baseline = match parse_baseline(&baseline_text) {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("cannot parse {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    if baseline.is_empty() {
        eprintln!("no entries parsed from {baseline_path}; refusing to pass an empty gate");
        return ExitCode::from(2);
    }
    let rows = gate(&baseline, &passes, factor, floor_ms);
    let (markdown, failed) = render_markdown(&rows, &passes, factor);
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
    use std::slice;

    const BASELINE: &str = r#"{
  "results": [
    { "id": "decoders_large_k/session_worklist_dense/100", "iters": 3, "mean_ms_per_iter": 127.705 },
    { "id": "decoders_large_k/session_worklist/64", "iters": 3, "mean_ms_per_iter": 24.613 }
  ]
}"#;

    #[test]
    fn parses_baseline_and_bench_output() {
        let baseline = parse_baseline(BASELINE).unwrap();
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
    fn baselines_parse_as_json() {
        // Integer means count, entries outside `results` do not, and a file
        // that is not JSON is an error rather than an empty gate.
        let text = r#"{"results": [{"id": "suite/a", "mean_ms_per_iter": 2}],
                       "note": {"id": "suite/b", "mean_ms_per_iter": 1.0}}"#;
        let entries = parse_baseline(text).unwrap();
        assert_eq!(
            entries,
            vec![Entry {
                id: "suite/a".into(),
                mean_ms: 2.0
            }]
        );
        let truncated = &BASELINE[..BASELINE.len() - 3];
        assert!(parse_baseline(truncated).is_err());
        assert!(parse_baseline("{\"id\": \"suite/a\", \"mean_ms_per_iter\": 1.0},").is_err());
    }

    #[test]
    fn within_factor_passes_and_faster_is_fine() {
        let baseline = parse_baseline(BASELINE).unwrap();
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
        let rows = gate(&baseline, slice::from_ref(&measured), 1.5, 0.05);
        assert!(rows
            .iter()
            .all(|(_, _, verdict)| matches!(verdict, Verdict::Ok(_))));
        let (markdown, failed) = render_markdown(&rows, slice::from_ref(&measured), 1.5);
        assert!(!failed);
        assert!(markdown.contains("**PASS**"));
    }

    #[test]
    fn simulated_two_x_slowdown_fails_the_gate() {
        // The acceptance check: perturb one entry to 2x its baseline and the
        // gate must fail.
        let baseline = parse_baseline(BASELINE).unwrap();
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
        let rows = gate(&baseline, slice::from_ref(&measured), 1.5, 0.05);
        let (markdown, failed) = render_markdown(&rows, slice::from_ref(&measured), 1.5);
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
        let rows = gate(&baseline, slice::from_ref(&measured), 1.5, 0.05);
        assert!(matches!(rows[0].2, Verdict::Ok(_)));
        assert!(matches!(rows[1].2, Verdict::Regressed(_)));
        // With no floor, the tiny entry's 2x ratio fails as before.
        let rows = gate(&baseline, slice::from_ref(&measured), 1.5, 0.0);
        assert!(matches!(rows[0].2, Verdict::Regressed(_)));
    }

    #[test]
    fn missing_baseline_entry_fails_and_new_entry_fails() {
        let baseline = parse_baseline(BASELINE).unwrap();
        let measured = vec![Entry {
            id: "decoders_large_k/brand_new/32".into(),
            mean_ms: 1.0,
        }];
        let rows = gate(&baseline, slice::from_ref(&measured), 1.5, 0.05);
        assert!(rows.iter().all(|(_, _, v)| *v == Verdict::Missing));
        let (markdown, failed) = render_markdown(&rows, slice::from_ref(&measured), 1.5);
        assert!(failed);
        assert!(markdown.contains("missing from bench output"));
        assert!(markdown.contains("❌ not in baseline"));
    }

    /// One pass of the two `BASELINE` entries at the given means.
    fn pass(dense_ms: f64, sparse_ms: f64) -> Vec<Entry> {
        vec![
            Entry {
                id: "decoders_large_k/session_worklist_dense/100".into(),
                mean_ms: dense_ms,
            },
            Entry {
                id: "decoders_large_k/session_worklist/64".into(),
                mean_ms: sparse_ms,
            },
        ]
    }

    #[test]
    fn the_gate_reads_each_entrys_median_over_the_passes() {
        // One slow pass in three is host noise, and its median passes; slow
        // in two passes of three is a regression.
        let baseline = parse_baseline(BASELINE).unwrap();
        let one_spike = [
            pass(127.705, 24.613),
            pass(127.705 * 3.0, 24.613),
            pass(120.0, 24.613 * 3.0),
        ];
        let rows = gate(&baseline, &one_spike, 1.5, 0.05);
        assert_eq!(rows[0].2, Verdict::Ok(1.0));
        assert_eq!(rows[1].2, Verdict::Ok(1.0));
        let (markdown, failed) = render_markdown(&rows, &one_spike, 1.5);
        assert!(!failed);
        assert!(markdown.contains("median of 3 passes"));
        assert!(markdown.contains("| 127.705 | 1.00x |"));

        let two_slow = [
            pass(127.705 * 2.0, 24.613),
            pass(127.705, 24.613),
            pass(127.705 * 2.0, 24.613),
        ];
        let rows = gate(&baseline, &two_slow, 1.5, 0.05);
        assert!(matches!(rows[0].2, Verdict::Regressed(r) if (r - 2.0).abs() < 1e-9));
        assert_eq!(rows[1].2, Verdict::Ok(1.0));
        let (markdown, failed) = render_markdown(&rows, &two_slow, 1.5);
        assert!(failed);
        assert!(markdown.contains("❌ regressed"));

        // An even count reads the mean of the middle two.
        let id = "decoders_large_k/session_worklist/64";
        let even = [
            pass(0.0, 4.0),
            pass(0.0, 1.0),
            pass(0.0, 2.0),
            pass(0.0, 9.0),
        ];
        assert_eq!(median_ms(&even, id), Some(3.0));
    }

    #[test]
    fn an_entry_missing_from_one_pass_fails_the_gate() {
        // A baseline entry that one pass lacks is missing, whatever the
        // other passes read; an unrecorded entry in one pass fails too.
        let baseline = parse_baseline(BASELINE).unwrap();
        let mut partial = pass(127.705, 24.613);
        partial.pop();
        let passes = [pass(127.705, 24.613), partial, pass(127.705, 24.613)];
        let rows = gate(&baseline, &passes, 1.5, 0.05);
        assert_eq!(rows[0].2, Verdict::Ok(1.0));
        assert_eq!(rows[1].2, Verdict::Missing);
        let (markdown, failed) = render_markdown(&rows, &passes, 1.5);
        assert!(failed);
        assert!(markdown.contains("missing from bench output"));

        let mut extra = pass(127.705, 24.613);
        extra.push(Entry {
            id: "decoders_large_k/brand_new/32".into(),
            mean_ms: 1.0,
        });
        let passes = [pass(127.705, 24.613), extra, pass(127.705, 24.613)];
        let rows = gate(&baseline, &passes, 1.5, 0.05);
        assert!(rows.iter().all(|(_, _, v)| matches!(v, Verdict::Ok(_))));
        let (markdown, failed) = render_markdown(&rows, &passes, 1.5);
        assert!(failed);
        assert!(
            markdown.contains("| `decoders_large_k/brand_new/32` | — | — | — | ❌ not in baseline")
        );
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
                bench_output_paths: vec!["o.txt".into()],
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
        // One `--bench-output` per pass, in order.
        let mut passes = required.to_vec();
        passes.extend(["--bench-output", "p2.txt", "--bench-output", "p3.txt"]);
        let options = parse_args(&args(&passes)).unwrap();
        assert_eq!(options.bench_output_paths, ["o.txt", "p2.txt", "p3.txt"]);
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
        let mut empty_pass = required.to_vec();
        empty_pass.extend(["--bench-output", ""]);
        assert!(parse_args(&args(&empty_pass)).is_err());
    }

    #[test]
    fn unrecorded_measured_entry_alone_fails_the_gate() {
        // Even when every baseline entry is within the gate, a measured
        // entry with no recorded reference must fail until re-recorded.
        let baseline = parse_baseline(BASELINE).unwrap();
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
        let rows = gate(&baseline, slice::from_ref(&measured), 1.5, 0.05);
        let (_, failed) = render_markdown(&rows, slice::from_ref(&measured), 1.5);
        assert!(!failed);

        measured.push(Entry {
            id: "decoders_large_k/brand_new/32".into(),
            mean_ms: 1.0,
        });
        let rows = gate(&baseline, slice::from_ref(&measured), 1.5, 0.05);
        assert!(rows.iter().all(|(_, _, v)| matches!(v, Verdict::Ok(_))));
        let (markdown, failed) = render_markdown(&rows, slice::from_ref(&measured), 1.5);
        assert!(failed);
        assert!(markdown.contains("❌ not in baseline"));
        assert!(markdown.contains("**FAIL**"));
    }
}
