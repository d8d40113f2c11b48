//! The benchmark's own checks: a small run of every workload passes, and the
//! benchmark's sources stay on the program surface that is meant to last.

use std::path::Path;
use std::time::Instant;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::{run, RunOptions, Scale, Workload};

fn small_run(workload: Workload, trace: bool) {
    let options = RunOptions {
        workload,
        seed: 1,
        seconds: 0.0,
        trace,
        scale: Scale::small(workload),
        threads: 2,
    };
    let mut output = run(&options, Instant::now());
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    let line = output.report.result_line(catalogue);
    assert_eq!(
        output.report.failed(),
        0,
        "{}: {:?}",
        workload.name(),
        output.report.failures()
    );
    assert!(output.report.attempted > 0);
    assert!(line.starts_with("{\"correct\": true,"), "{line}");
    for &(name, _) in catalogue {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
    }
    assert_eq!(output.trace.is_some(), trace);
}

#[test]
fn small_paper_mix_passes_its_checks() {
    small_run(Workload::PaperMix, false);
    small_run(Workload::PaperMix, true);
}

#[test]
fn small_large_k_passes_its_checks() {
    small_run(Workload::LargeK, false);
    small_run(Workload::LargeK, true);
}

#[test]
fn small_fleet_passes_its_checks() {
    small_run(Workload::FleetK16, false);
    small_run(Workload::FleetK16, true);
}

#[test]
fn traced_single_reader_runs_attribute_time_to_the_right_layers() {
    for (workload, identification_runs) in [(Workload::PaperMix, true), (Workload::LargeK, false)] {
        let options = RunOptions {
            workload,
            seed: 2,
            seconds: 0.0,
            trace: true,
            scale: Scale::small(workload),
            threads: 1,
        };
        let output = run(&options, Instant::now());
        let get = |name: &str| output.report.get(name).unwrap();
        let sessions = options.scale.ks.len() as f64;
        assert_eq!(get("scenario.builds"), sessions);
        assert_eq!(get("transfer.calls"), sessions);
        let expected = if identification_runs { sessions } else { 0.0 };
        assert_eq!(get("identification.calls"), expected);
        assert!(get("transfer.busy_ms") > 0.0);
        assert_eq!(output.trace.unwrap().overfull_spans(), 0);
    }
}

/// Names that later changes to the program delete or replace; the benchmark
/// must reach the program without them.
const RETIRING: &[&str] = &[
    "large_population",
    "DecodeSchedule",
    "OmpConfig",
    "compat_transfer",
    "run_all",
    "parallel_map",
    "work_steal_map",
    "worklist_position_visits",
    "worklist_pair_evaluations",
    "message_passing_sweeps",
    "RecoveryDiagnostics",
];

fn sources(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "py") {
            let text = std::fs::read_to_string(&path).expect("source file is readable");
            out.push((path.display().to_string(), text));
        }
    }
}

#[test]
fn sources_name_no_retiring_program_items() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    sources(&root.join("src"), &mut files);
    files.push((
        "screen.py".into(),
        std::fs::read_to_string(root.join("screen.py")).expect("screen.py is readable"),
    ));
    assert!(files.len() >= 6);
    for (path, text) in &files {
        for name in RETIRING {
            assert!(!text.contains(name), "{path} names {name}");
        }
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_command_prints() {
    let json =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}
