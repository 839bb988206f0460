//! Benchmark harness for the STT-RAM NoC reproduction.
//!
//! One `repro-*` binary per table/figure regenerates the paper's
//! rows/series at full scale (pass `--quick` for a fast pass);
//! `repro-perf` and the `kernels` bench time the hot paths on the
//! dependency-free [`harness`].

pub mod harness;

use snoc_core::experiments::Scale;
use snoc_core::report::{self, Rows};
use std::fmt::Display;

/// Validates the process arguments against an allow-list and returns
/// the flags that were actually passed (deduplicated, in first-seen
/// order). Anything not in `allowed` — a misspelled `--qiuck`, a flag
/// meant for a different binary — aborts with exit code 2 *before* the
/// caller runs any experiment or writes any file, so a typo can never
/// silently run the wrong configuration over checked-in results.
pub fn strict_flags(allowed: &[&str]) -> Vec<String> {
    let mut seen: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if !allowed.contains(&arg.as_str()) {
            eprintln!("error: unrecognized argument `{arg}`");
            eprintln!("usage: {} [{}]", bin_name(), allowed.join("] ["));
            std::process::exit(2);
        }
        if !seen.contains(&arg) {
            seen.push(arg);
        }
    }
    seen
}

/// The executable name for usage messages, without the path.
pub fn bin_name() -> String {
    std::env::args()
        .next()
        .as_deref()
        .and_then(|p| {
            std::path::Path::new(p)
                .file_name()?
                .to_str()
                .map(String::from)
        })
        .unwrap_or_else(|| "repro".into())
}

/// Parses the experiment scale from the command line (`--quick` for
/// the reduced configuration; full scale otherwise). Any other
/// argument is rejected with a non-zero exit.
pub fn scale_from_args() -> Scale {
    if strict_flags(&["--quick"]).is_empty() {
        Scale::Full
    } else {
        Scale::Quick
    }
}

/// Prints an experiment result to stdout and dumps its text/CSV
/// renderings into the results directory (`SNOC_RESULTS_DIR`, default
/// `results/`). Diagnostics go to stderr so stdout stays a clean,
/// reproducible report.
pub fn emit<R: Rows + Display>(name: &str, result: &R) {
    println!("{result}");
    let dir = std::env::var("SNOC_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    match report::save(&dir, name, result) {
        Ok((txt, csv)) => eprintln!("wrote {} and {}", txt.display(), csv.display()),
        Err(e) => eprintln!("could not write results under {dir}: {e}"),
    }
}
