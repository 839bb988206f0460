//! The `snoc` binary's edge: bad command lines and bad `SNOC_*`
//! variables exit 2 before anything runs or writes, and `snoc repro`
//! regenerates a checked-in result byte for byte.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, not yet created results directory for `tag`.
fn results_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("snoc-cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `snoc args` with no inherited `SNOC_*` variable, writing results
/// into `results`.
fn snoc(args: &[&str], vars: &[(&str, &str)], results: &Path) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_snoc"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("SNOC_") {
            cmd.env_remove(name);
        }
    }
    cmd.args(args)
        .envs(vars.iter().copied())
        .env("SNOC_RESULTS_DIR", results)
        .env("SNOC_PROGRESS", "0")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the snoc binary runs")
}

/// A named bad invocation: its arguments and extra variables.
type Case<'a> = (&'a str, &'a [&'a str], &'a [(&'a str, &'a str)]);

#[test]
fn bad_input_exits_2_and_writes_nothing() {
    let cases: [Case; 5] = [
        ("subcommand", &["reproduce", "table2"], &[]),
        ("flag", &["repro", "table2", "--qiuck"], &[]),
        ("experiment", &["repro", "fig99"], &[]),
        (
            "variable",
            &["repro", "fig3", "--quick"],
            &[("SNOC_AUIDT", "1")],
        ),
        (
            "faults",
            &["repro", "fig3", "--quick"],
            &[("SNOC_FAULTS", "tsb=often")],
        ),
    ];
    for (tag, args, vars) in cases {
        let dir = results_dir(tag);
        let out = snoc(args, vars, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
        assert!(out.stdout.is_empty(), "{tag} printed a report");
        assert!(stderr.contains("usage: snoc"), "{tag}: {stderr}");
        assert!(!dir.exists(), "{tag} created the results directory");
    }
}

#[test]
fn repro_table2_matches_the_checked_in_files() {
    let dir = results_dir("table2");
    let out = snoc(&["repro", "table2"], &[], &dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let checked_in = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for file in ["table2.txt", "table2.csv"] {
        let want = std::fs::read(checked_in.join(file)).expect("checked-in result");
        let got = std::fs::read(dir.join(file)).expect("regenerated result");
        assert!(got == want, "{file} differs from results/{file}");
    }
}
