//! Experiment-service pins: canonical JSON properties, golden plan hashes,
//! plan input validation, and the thread/shard/merge byte-identity
//! contract — both in-process and through the `reproduce` binary exactly as
//! CI drives it.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use buzz_bench::experiments;
use buzz_bench::orchestrate::plan::MAX_LOCATIONS;
use buzz_bench::orchestrate::runner::run_shard;
use buzz_bench::orchestrate::{
    diff, figures_json, CanonicalJson, CliFlags, DiffOutcome, JobArtifact, Runbook, Shard,
    SweepPlan,
};
use proptest::prelude::*;

/// Golden hashes for the stock plans.  These pin the whole addressing
/// scheme — canonical spec serialization, FNV-1a/SplitMix64 hashing, and
/// plan expansion order.  If one of these moves, every runbook ever written
/// stops being comparable: bump them only for a deliberate, announced
/// format change.
#[test]
fn golden_plan_hashes_are_stable() {
    let all_default = SweepPlan::all(experiments::DEFAULT_LOCATIONS, 2012).unwrap();
    assert_eq!(all_default.plan_hash(), "96b017c38d06768c");

    let all_ci = SweepPlan::all(2, 2012).unwrap();
    assert_eq!(all_ci.plan_hash(), "dacc5d847eacf0be");
    assert_eq!(all_ci.jobs[0].id, "table12");
    assert_eq!(all_ci.jobs[0].hash, "468b0406040b601c");
}

#[test]
fn canonical_float_formatting_is_stable() {
    let cases = [
        (0.0_f64, "0.0"),
        (-0.0, "-0.0"),
        (1.0, "1.0"),
        (2.5, "2.5"),
        // Display never uses exponent notation: big floats expand fully
        // and pick up the `.0` float marker.
        (-1.0e21, "-1000000000000000000000.0"),
        (0.1, "0.1"),
        (1.0 / 3.0, "0.3333333333333333"),
    ];
    for (value, expected) in cases {
        assert_eq!(CanonicalJson::Float(value).serialize(), expected);
    }
}

/// A bounded random canonical-JSON value: scalars at depth 0, arrays and
/// objects above, so generation terminates.
struct JsonStrategy {
    depth: u32,
}

impl Strategy for JsonStrategy {
    type Value = CanonicalJson;
    fn generate(&self, rng: &mut TestRng) -> CanonicalJson {
        let scalar_only = self.depth == 0;
        let pick = rng.next_bounded(if scalar_only { 4 } else { 6 });
        let string = |rng: &mut TestRng| {
            let len = rng.next_bounded(6) as usize;
            (0..len)
                .map(|_| {
                    // Printable ASCII plus the characters the escaper handles.
                    let options = [b'a', b'Z', b'0', b' ', b'"', b'\\', b'\n', b'\t'];
                    options[rng.next_bounded(options.len() as u64) as usize] as char
                })
                .collect::<String>()
        };
        match pick {
            0 => CanonicalJson::Null,
            1 => CanonicalJson::Bool(rng.next_u64() & 1 == 1),
            2 => CanonicalJson::Int(rng.next_u64() as i64 >> 16),
            3 => {
                if rng.next_u64() & 1 == 1 {
                    CanonicalJson::Float((rng.next_f64() - 0.5) * 2e9)
                } else {
                    CanonicalJson::Str(string(rng))
                }
            }
            4 => {
                let child = JsonStrategy {
                    depth: self.depth - 1,
                };
                let len = rng.next_bounded(4) as usize;
                CanonicalJson::Array((0..len).map(|_| child.generate(rng)).collect())
            }
            _ => {
                let child = JsonStrategy {
                    depth: self.depth - 1,
                };
                let len = rng.next_bounded(4) as usize;
                CanonicalJson::object(
                    (0..len)
                        .map(|_| (string(rng), child.generate(rng)))
                        .collect::<Vec<_>>()
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.clone()))
                        .collect(),
                )
            }
        }
    }
}

proptest! {
    /// serialize → parse → serialize is the identity on canonical bytes.
    #[test]
    fn canonical_serialization_roundtrips(value in JsonStrategy { depth: 3 }) {
        let bytes = value.serialize();
        let reparsed = CanonicalJson::parse(&bytes)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e} on `{bytes}`")))?;
        prop_assert_eq!(reparsed.serialize(), bytes);
    }

    /// Object keys come out sorted regardless of insertion order.
    #[test]
    fn canonical_objects_sort_their_keys(value in JsonStrategy { depth: 2 }) {
        let shuffled = CanonicalJson::object(vec![
            ("zzz", value.clone()),
            ("aaa", CanonicalJson::Null),
            ("mmm", value.clone()),
        ]);
        let bytes = shuffled.serialize();
        let (a, m) = (bytes.find("\"aaa\"").unwrap(), bytes.find("\"mmm\"").unwrap());
        let z = bytes.find("\"zzz\"").unwrap();
        prop_assert!(a < m && m < z, "keys out of order in `{}`", bytes);
    }

    /// Finite floats survive the text round-trip bit-for-bit (shortest
    /// round-trip formatting), and whole floats keep their `.0` marker so
    /// they re-parse as floats, not ints.
    #[test]
    fn canonical_floats_roundtrip_exactly(x in any::<f64>()) {
        let bytes = CanonicalJson::Float(x).serialize();
        prop_assert!(bytes.contains('.') || bytes.contains('e') || bytes.contains('E'));
        match CanonicalJson::parse(&bytes) {
            Ok(CanonicalJson::Float(y)) => prop_assert_eq!(x.to_bits(), y.to_bits()),
            other => prop_assert!(false, "reparsed as {:?}", other),
        }
    }

    /// Job and plan hashes are stable across re-expansion and sensitive to
    /// the seed.
    #[test]
    fn plan_hashes_are_deterministic(seed in 0u64..1_000_000, locations in 1u64..6) {
        let a = SweepPlan::all(locations, seed).unwrap();
        let b = SweepPlan::all(locations, seed).unwrap();
        prop_assert_eq!(a.plan_hash(), b.plan_hash());
        let c = SweepPlan::all(locations, seed + 1).unwrap();
        prop_assert_ne!(a.plan_hash(), c.plan_hash());
    }
}

/// The real inputs the hostile-input property edits: a `table12` plan's
/// artifact, runbook and figure bytes, plus CLI strings.
struct HostileSeed {
    plan: SweepPlan,
    corpus: Vec<String>,
}

fn hostile_seed() -> &'static HostileSeed {
    static SEED: OnceLock<HostileSeed> = OnceLock::new();
    SEED.get_or_init(|| {
        let plan = SweepPlan::figure_list("table12", 1, 2012).unwrap();
        let artifacts = run_shard(&plan, Shard::full(), 1);
        let corpus = vec![
            artifacts[0].serialize(),
            Runbook::assemble(&plan, &artifacts, "seed")
                .unwrap()
                .serialize(),
            figures_json(&plan, &artifacts).unwrap(),
            "2/3".to_string(),
            "table12,fig8".to_string(),
            "table12,fig8 --locations 9999 --seed 7 --threads 2 --json out.json".to_string(),
            "--plan all --locations 40 --shard 2/3 --out shard2 --artifacts a,b --figures f.json"
                .to_string(),
        ];
        HostileSeed { plan, corpus }
    })
}

/// Hostile parser input: random bytes, or a real artifact, runbook, figure
/// array or CLI string with random edits (flipped bytes, truncations and
/// inserted JSON punctuation).
struct HostileText;

impl Strategy for HostileText {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let corpus = &hostile_seed().corpus;
        let mut bytes: Vec<u8> = if rng.next_bounded(4) == 0 {
            let len = rng.next_bounded(64);
            (0..len).map(|_| rng.next_u64() as u8).collect()
        } else {
            corpus[rng.next_bounded(corpus.len() as u64) as usize]
                .clone()
                .into_bytes()
        };
        const PUNCTUATION: &[u8] = b"{}[]\":,\\-.0e";
        for _ in 0..=rng.next_bounded(4) {
            let at = rng.next_bounded(bytes.len() as u64 + 1) as usize;
            match rng.next_bounded(3) {
                0 if at < bytes.len() => bytes[at] ^= 1 << rng.next_bounded(8),
                1 => bytes.truncate(at),
                _ => {
                    let mark = PUNCTUATION[rng.next_bounded(PUNCTUATION.len() as u64) as usize];
                    bytes.insert(at, mark);
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

proptest! {
    /// No parser of the experiment service panics on hostile input: every
    /// call returns `Ok` or `Err`.
    #[test]
    fn parsers_return_errors_on_hostile_input(text in HostileText) {
        let plan = &hostile_seed().plan;
        let _ = CanonicalJson::parse(&text);
        if let Ok(artifact) = JobArtifact::parse(&text) {
            let _ = artifact.report();
            let artifacts = [artifact];
            let _ = Runbook::assemble(plan, &artifacts, "hostile");
            let _ = figures_json(plan, &artifacts);
        }
        let _ = Runbook::parse(&text);
        let _ = Shard::parse(&text);
        let _ = SweepPlan::figure_list(&text, 1, 2012);
        let args: Vec<String> = text.split_whitespace().map(str::to_string).collect();
        if let Ok(flags) = CliFlags::parse(&args) {
            let _ = flags.build_plan();
        }
    }
}

/// `reproduce`'s flags parse to the values they name, and what does not
/// parse is an error.
#[test]
fn cli_flags_parse_and_reject_bad_values() {
    let args =
        |text: &str| -> Vec<String> { text.split_whitespace().map(str::to_string).collect() };
    let flags = CliFlags::parse(&args(
        "fig10 --locations 3 --seed 7 --threads 0 --shard 2/3 --json j --out o --figures f \
         --artifacts a,b",
    ))
    .unwrap();
    assert_eq!(flags.positional, ["fig10"]);
    assert_eq!((flags.locations, flags.seed, flags.threads), (3, 7, 1));
    assert_eq!((flags.shard.index, flags.shard.count), (2, 3));
    assert_eq!(flags.json_path.as_deref(), Some("j"));
    assert_eq!(flags.artifacts, ["a", "b"]);
    for bad in [
        "--locations",
        "--locations -1",
        "--locations 18446744073709551616",
        "--seed x",
        "--threads 1.5",
        "--shard 4/3",
        "--frobnicate 1",
    ] {
        assert!(CliFlags::parse(&args(bad)).is_err(), "`{bad}` parsed");
    }
    for gone in ["--ks 4,16", "--traces 2", "--dynamics static"] {
        let err = CliFlags::parse(&args(gone)).unwrap_err();
        assert!(err.starts_with("unknown flag"), "`{gone}`: {err}");
    }
}

/// A location count past the documented maximum is a plan error, so
/// `reproduce` exits 2 with a message instead of aborting on an
/// allocation.
#[test]
fn plans_reject_too_many_locations() {
    for name in ["all", "table12,fig10"] {
        for locations in [MAX_LOCATIONS + 1, 1 << 32, u64::MAX] {
            assert!(
                SweepPlan::from_name(name, locations, 2012).is_err(),
                "plan `{name}` at {locations} locations"
            );
        }
    }
    assert!(SweepPlan::all(MAX_LOCATIONS, 2012).is_ok());
    assert!(SweepPlan::figure_list("fig10", MAX_LOCATIONS, 2012).is_ok());

    let bin = env!("CARGO_BIN_EXE_reproduce");
    for args in [
        &["fig10", "--locations", "18446744073709551615"][..],
        &["fig10", "--locations", "4294967296"][..],
    ] {
        let output = Command::new(bin).args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "reproduce {args:?}");
        assert!(output.stdout.is_empty(), "reproduce {args:?}");
        assert!(!output.stderr.is_empty(), "reproduce {args:?}");
    }
}

#[test]
fn plans_reject_zero_locations() {
    for name in ["all", "table12,fig10"] {
        assert!(
            SweepPlan::from_name(name, 0, 2012).is_err(),
            "plan `{name}`"
        );
        assert!(SweepPlan::from_name(name, 1, 2012).is_ok());
    }
    assert!(SweepPlan::figure_list("fig10", 0, 2012).is_err());
    assert!(SweepPlan::all(0, 2012).is_err());
}

/// The thread-count determinism contract for every figure cheap enough for
/// the test profile (all but `fig11_large` and `fig_fleet`, which CI's
/// release-mode `reproduce-merge` job diffs across thread counts): one plan
/// at three base seeds must give the same runbook bytes at 1 and 4 threads.
#[test]
fn figure_plans_are_byte_identical_across_thread_counts() {
    let figures: Vec<&str> = experiments::FIGURES
        .iter()
        .map(|f| f.id)
        .filter(|id| !["fig11_large", "fig_fleet"].contains(id))
        .collect();
    assert_eq!(figures.len(), 14);
    // 2012 is the reproduce binary's base seed; the other two guard against
    // the contract holding for one seed's trajectories only.
    for base_seed in [2012u64, 7, 31_337] {
        let plan = SweepPlan::figure_list(&figures.join(","), 1, base_seed).unwrap();
        let runbook = |threads| {
            let artifacts = run_shard(&plan, Shard::full(), threads);
            Runbook::assemble(&plan, &artifacts, "test")
                .unwrap()
                .serialize()
        };
        assert_eq!(runbook(1), runbook(4), "base_seed = {base_seed}");
    }
}

/// A cheap four-figure plan for merge tests (sub-second figures only).
fn small_plan() -> SweepPlan {
    SweepPlan::figure_list("table12,fig8,fig9,lemma51", 1, 2012).unwrap()
}

#[test]
fn sharded_runs_merge_byte_identically_for_any_shard_count() {
    let plan = small_plan();
    let serial = run_shard(&plan, Shard::full(), 1);
    let reference = Runbook::assemble(&plan, &serial, "test").unwrap();
    let reference_figures = figures_json(&plan, &serial).unwrap();
    // The merged figures are the direct calls' reports, in plan order.
    let direct = CanonicalJson::Array(
        [
            experiments::table12(),
            experiments::fig8(),
            experiments::fig9(2012),
            experiments::lemma51(2012, 1),
        ]
        .iter()
        .map(|report| report.to_canonical())
        .collect(),
    );
    assert_eq!(reference_figures, direct.serialize());

    for count in 2..=5 {
        let mut pooled = Vec::new();
        for index in 1..=count {
            let shard = Shard { index, count };
            // Alternate thread counts across shards: artifacts must not care.
            pooled.extend(run_shard(&plan, shard, 1 + index % 2));
        }
        let merged = Runbook::assemble(&plan, &pooled, "test").unwrap();
        assert_eq!(merged.serialize(), reference.serialize(), "count {count}");
        assert!(diff(&reference, &merged).is_identical());
        assert_eq!(figures_json(&plan, &pooled).unwrap(), reference_figures);
    }
}

#[test]
fn diff_localizes_a_corrupted_job() {
    let plan = small_plan();
    let artifacts = run_shard(&plan, Shard::full(), 1);
    let clean = Runbook::assemble(&plan, &artifacts, "test").unwrap();
    let mut corrupt = clean.clone();
    corrupt.jobs[2].artifact_hash = "ffffffffffffffff".into();
    match diff(&clean, &corrupt) {
        DiffOutcome::Divergence { index, id, .. } => {
            assert_eq!(index, 2);
            assert_eq!(id, "fig9");
        }
        other => panic!("expected divergence, got {other:?}"),
    }
}

/// Drives the real binary the way CI does: three shards at two threads
/// merged against a serial single-process run, `diff` exit code checked,
/// and the merged figures byte-compared to the figure form's `--json`.
#[test]
fn reproduce_binary_shard_merge_diff_pipeline() {
    let bin = env!("CARGO_BIN_EXE_reproduce");
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("runbook-e2e");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let path = |name: &str| root.join(name).to_string_lossy().into_owned();
    let run = |args: &[&str]| {
        let output = Command::new(bin)
            .args(args)
            .env("RUNBOOK_COMMIT", "e2e")
            .output()
            .expect("spawn reproduce");
        assert!(
            output.status.success(),
            "reproduce {args:?} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        output
    };

    let plan_args = ["--plan", "table12,fig8,fig9,lemma51", "--locations", "1"];
    for (shard, dir) in [("1/3", "s1"), ("2/3", "s2"), ("3/3", "s3")] {
        let out = path(dir);
        let mut args = vec!["run"];
        args.extend_from_slice(&plan_args);
        args.extend_from_slice(&["--shard", shard, "--threads", "2", "--out", &out]);
        run(&args);
    }
    let serial_out = path("serial");
    let mut args = vec!["run"];
    args.extend_from_slice(&plan_args);
    args.extend_from_slice(&["--threads", "1", "--out", &serial_out]);
    run(&args);

    let sharded_dirs = format!("{},{},{}", path("s1"), path("s2"), path("s3"));
    for (dirs, book, figures) in [
        (sharded_dirs.clone(), "sharded.json", "figures-sharded.json"),
        (serial_out.clone(), "serial.json", "figures-serial.json"),
    ] {
        let (out, figs) = (path(book), path(figures));
        let mut args = vec!["merge"];
        args.extend_from_slice(&plan_args);
        args.extend_from_slice(&["--artifacts", &dirs, "--out", &out, "--figures", &figs]);
        run(&args);
    }

    let sharded = std::fs::read_to_string(path("sharded.json")).unwrap();
    let serial = std::fs::read_to_string(path("serial.json")).unwrap();
    assert_eq!(sharded, serial, "runbook bytes depend on sharding");

    let (sharded_book, serial_book) = (path("sharded.json"), path("serial.json"));
    let output = run(&["diff", &sharded_book, &serial_book]);
    assert!(String::from_utf8_lossy(&output.stdout).contains("identical"));

    // The figure form runs the same plan in one process: its `--json`
    // bytes are the merged figures' bytes.
    let direct_out = path("direct.json");
    run(&[plan_args[1], "--locations", "1", "--json", &direct_out]);
    let direct = std::fs::read_to_string(&direct_out).unwrap();
    let merged_figures = std::fs::read_to_string(path("figures-sharded.json")).unwrap();
    assert_eq!(direct, merged_figures);

    // `--plan` selects the figure form's figures too.
    let output = run(&["--plan", "fig8"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let titles: Vec<&str> = stdout.lines().filter(|l| l.starts_with("== ")).collect();
    assert!(
        titles.len() == 1 && titles[0].starts_with("== fig8 "),
        "{titles:?}"
    );

    // Unknown figures exit 2, list the registry and print nothing; `grid`
    // is no plan family, just an unknown figure, and its flags are unknown.
    for name in ["fig99", "grid"] {
        let output = Command::new(bin).arg(name).output().unwrap();
        assert_eq!(output.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(&format!("unknown figure `{name}`")));
        assert!(stderr.contains("fig11_large") && stderr.contains("headline"));
        assert!(output.stdout.is_empty());
    }
    let grid_out = path("grid-out");
    for args in [
        &["plan", "--plan", "grid"][..],
        &["run", "--plan", "grid", "--out", &grid_out][..],
        &["fig10", "--ks", "4"][..],
    ] {
        let output = Command::new(bin).args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "reproduce {args:?}");
        assert!(output.stdout.is_empty(), "reproduce {args:?}");
    }
    assert!(!Path::new(&grid_out).exists());

    // Zero locations would average over nothing: every form's plan rejects
    // them before running, exits 2, and writes nothing.
    let zero_out = path("zero-locations");
    for args in [
        &["headline", "--locations", "0"][..],
        &["fig10", "--locations", "0"][..],
        &[
            "run",
            "--plan",
            "all",
            "--locations",
            "0",
            "--out",
            &zero_out,
        ][..],
    ] {
        let output = Command::new(bin).args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "reproduce {args:?}");
        assert!(String::from_utf8_lossy(&output.stderr).contains("at least one location"));
        assert!(
            output.stdout.is_empty(),
            "reproduce {args:?} printed a table"
        );
    }
    assert!(!Path::new(&zero_out).exists());

    // A `--json` path that cannot be written fails the run: its parent is a
    // regular file, so exit 1 and no `wrote` line.
    let not_a_dir = path("not-a-dir");
    std::fs::write(&not_a_dir, "").unwrap();
    let json = format!("{not_a_dir}/r.json");
    let output = Command::new(bin)
        .args(["table12", "--json", &json])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&output.stdout).contains("wrote"));
    assert!(String::from_utf8_lossy(&output.stderr).contains("not-a-dir"));
}
