//! The command line: strict parsing, the hermetic environment, the
//! printed report, and the repeat/compare tooling.

use snoc_benchmark::json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_snoc-benchmark"));
    cmd.args(args).current_dir(scratch());
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("SNOC_") {
            cmd.env_remove(k);
        }
    }
    cmd
}

/// A per-test-binary scratch directory inside the build tree.
fn scratch() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
}

fn run(cmd: &mut Command) -> (Output, String, String) {
    let out = cmd.output().expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out, stdout, stderr)
}

#[test]
fn bad_command_lines_exit_2_before_simulating() {
    let cases: &[&[&str]] = &[
        &[],
        &["--workload"],
        &["--workload", "nope"],
        &["--workload", "mesh16", "--bogus"],
        &["--workload", "mesh16", "--seed", "abc"],
        &["--workload", "mesh16", "--seed", "-1"],
        &["--workload", "mesh16", "--seconds", "0"],
        &["--workload", "mesh16", "--trace", "2"],
        &["--workload", "mesh16", "--trace"],
        &["--workload", "mesh16", "--repeat", "x"],
        &["--compare", "a.json"],
        &["--compare", "a.json", "b.json", "--workload", "mesh16"],
    ];
    for args in cases {
        let (out, stdout, stderr) = run(&mut bench(args));
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn any_snoc_variable_refuses_to_start() {
    for var in ["SNOC_SHARDS", "SNOC_THREADS", "SNOC_ANYTHING"] {
        let (out, stdout, stderr) = run(bench(&["--workload", "mesh16"]).env(var, "1"));
        assert_eq!(out.status.code(), Some(2), "{var}: {stderr}");
        assert!(stdout.is_empty());
        assert!(stderr.contains(var), "{stderr}");
    }
}

fn last_json(stdout: &str) -> Json {
    Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON")
}

#[test]
fn a_run_prints_workers_metrics_and_a_checked_summary() {
    let json = scratch().join("quick.json");
    let (out, stdout, stderr) = run(&mut bench(&[
        "--workload",
        "fig6-quick-par",
        "--seconds",
        "1",
        "--json",
        json.to_str().unwrap(),
    ]));
    assert!(out.status.success(), "{stderr}");
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    assert!(
        stdout.contains(&format!("fig6-quick-par workers {workers} count\n")),
        "{stdout}"
    );
    assert!(
        stdout.contains("fig6-quick-par cells_failed 0 count\n"),
        "{stdout}"
    );

    let summary = last_json(&stdout);
    let keys: Vec<&str> = summary
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
    // Whole sweeps of 54 cells, plus the canary.
    let attempted = summary.get("attempted").and_then(Json::as_f64).unwrap() as u64;
    assert_eq!(attempted % 54, 1, "{attempted}");
    let metrics: Vec<&str> = summary
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        metrics,
        ["sweep_s", "sim_kcycles_per_s", "setup_s", "peak_rss_mb"]
    );

    let doc = Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let run = &doc.get("runs").and_then(Json::as_array).unwrap()[0];
    let digests = run.get("digests").and_then(Json::as_object).unwrap();
    assert_eq!(digests.len(), 54);
    assert_eq!(run.get("unverified").and_then(Json::as_f64), Some(0.0));
}

#[test]
fn an_unknown_seed_is_reported_unverified() {
    let (out, stdout, stderr) = run(&mut bench(&[
        "--workload",
        "fig6-quick-par",
        "--seconds",
        "1",
        "--seed",
        "99",
    ]));
    assert!(out.status.success(), "{stderr}");
    assert!(
        stdout.contains("fig6-quick-par cells_unverified 54 count\n"),
        "{stdout}"
    );
    assert_eq!(last_json(&stdout).get("correct"), Some(&Json::Bool(true)));
}

#[test]
fn repeat_reports_medians_and_quartiles() {
    let json = scratch().join("repeat.json");
    let (out, stdout, stderr) = run(&mut bench(&[
        "--workload",
        "fig6-quick-par",
        "--repeat",
        "2",
        "--seconds",
        "1",
        "--json",
        json.to_str().unwrap(),
    ]));
    assert!(out.status.success(), "{stderr}");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("median fig6-quick-par sweep_s "))
        .unwrap_or_else(|| panic!("{stdout}"));
    assert!(line.contains(" q1 ") && line.ends_with(" n 2"), "{line}");
    let doc = Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(doc.get("runs").and_then(Json::as_array).unwrap().len(), 2);
    let leftovers = std::fs::read_dir(scratch())
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with(".snoc-benchmark-")
        })
        .count();
    assert_eq!(leftovers, 0, "child result files are removed");
}

fn doc(sweeps: &[f64], failed: u64) -> String {
    let runs: Vec<String> = sweeps
        .iter()
        .map(|s| {
            format!(
                "{{\"workload\": \"mesh16\", \"trace\": false, \"failed\": {failed}, \"metrics\": {{\
                 \"sweep_s\": {{\"value\": {s}, \"unit\": \"s\"}}, \
                 \"sim_kcycles_per_s\": {{\"value\": 10, \"unit\": \"kcycles/s\"}}, \
                 \"setup_s\": {{\"value\": 0.15, \"unit\": \"s\"}}, \
                 \"peak_rss_mb\": {{\"value\": 1300, \"unit\": \"MB\"}}}}}}"
            )
        })
        .collect();
    format!("{{\"runs\": [{}]}}", runs.join(", "))
}

fn compare(name: &str, parent: &[f64], change: &[f64], failed: u64) -> (Option<i32>, String) {
    let (a, b) = (
        scratch().join(format!("{name}-a.json")),
        scratch().join(format!("{name}-b.json")),
    );
    std::fs::write(&a, doc(parent, 0)).unwrap();
    std::fs::write(&b, doc(change, failed)).unwrap();
    let (out, stdout, _) = run(&mut bench(&[
        "--compare",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]));
    let line = stdout
        .lines()
        .find(|l| l.starts_with("mesh16 sweep_s "))
        .unwrap_or_default()
        .to_string();
    (out.status.code(), format!("{line}\n{stdout}"))
}

#[test]
fn compare_applies_the_bounds() {
    let steady = [7.0, 7.01, 7.02, 6.99, 7.0];
    let (code, out) = compare("same", &steady, &steady, 0);
    assert_eq!(code, Some(0), "{out}");
    assert!(out.lines().next().unwrap().ends_with(" ok"), "{out}");

    let slower: Vec<f64> = steady.iter().map(|s| s * 1.5).collect();
    let (code, out) = compare("slower", &steady, &slower, 0);
    assert_eq!(code, Some(1), "{out}");
    assert!(out.lines().next().unwrap().ends_with(" regressed"), "{out}");

    let noisy = [5.0, 7.0, 9.0, 6.0, 8.0];
    let (code, out) = compare("noisy", &noisy, &noisy, 0);
    assert_eq!(code, Some(0), "{out}");
    assert!(
        out.lines().next().unwrap().ends_with(" unresolved"),
        "{out}"
    );

    let (code, out) = compare("failed", &steady, &steady, 1);
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("mesh16 cells_failed 5 regressed"), "{out}");
}
