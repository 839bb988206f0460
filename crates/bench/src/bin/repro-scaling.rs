//! Scaling study: the paper's design points at a 16x16 / 256-bank mesh
//! and a 2-layer cache stack, anchored by the 8x8 point.
//!
//! Runs through the same SweepRunner/cell-cache machinery as every
//! figure (`SNOC_THREADS` and `SNOC_SWEEP_CACHE` apply). Results land under `<SNOC_RESULTS_DIR|results>/scaling/`.
//!
//! `--smoke` (or `--quick`) runs the Quick scale for CI.

use snoc_core::experiments::{scaling, Scale};
use snoc_core::report;

fn main() {
    let smoke = !snoc_bench::strict_flags(&["--smoke", "--quick"]).is_empty();
    let scale = if smoke { Scale::Quick } else { Scale::Full };
    let result = scaling::run(scale);
    println!("{result}");
    let base = std::env::var("SNOC_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let dir = format!("{base}/scaling");
    match report::save(&dir, "scaling_study", &result) {
        Ok((txt, csv)) => eprintln!("wrote {} and {}", txt.display(), csv.display()),
        Err(e) => {
            eprintln!("error: could not write results under {dir}: {e}");
            std::process::exit(1);
        }
    }
}
