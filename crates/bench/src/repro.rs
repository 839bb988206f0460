//! `snoc repro <experiment> [--quick]`: regenerates one experiment's
//! files under the results directory and prints its report to stdout.
//!
//! A registered sweep experiment writes `<results>/<name>.{txt,csv}`
//! (the scaling study `<results>/scaling/scaling_study.*`), `faults`
//! writes `<results>/faults/fault_campaign.*` and `telemetry` writes
//! `<results>/telemetry/*`. Sweeps run on `SNOC_THREADS` workers
//! through the cell cache; the report is identical for any worker
//! count and cache state.

use crate::cli::Edge;
use crate::{faults, save, telemetry};
use snoc_core::experiments::{self, Scale};
use snoc_core::observer::ProgressObserver;
use snoc_core::report::Rendered;
use snoc_core::sweep::SweepRunner;

/// Runs experiment `name` (checked by the parser) at full scale, or
/// quick scale when `quick`.
///
/// # Errors
///
/// A result file that could not be written.
pub fn run(name: &str, quick: bool, edge: &Edge) -> Result<(), String> {
    let dir = &edge.results_dir;
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let (dir, file, result) = match name {
        "telemetry" => return telemetry::deep_dive(&dir.join("telemetry"), &edge.noc),
        "faults" => (
            dir.join("faults"),
            "fault_campaign",
            Rendered::of(&faults::campaign(quick, &edge.noc)),
        ),
        _ => {
            let exp = experiments::by_name(name).expect("the parser checked the name");
            let grid = (exp.grid)(scale)
                .into_iter()
                .map(|spec| spec.resolve_env(&edge.noc))
                .collect();
            let result = (exp.run)(&runner(edge), scale, grid);
            match name {
                "scaling" => (dir.join("scaling"), "scaling_study", result),
                _ => (dir.clone(), name, result),
            }
        }
    };
    println!("{}", result.text);
    save(&dir, file, &result)
}

/// A sweep runner configured by the edge.
fn runner(edge: &Edge) -> SweepRunner {
    let mut runner = SweepRunner::new().threads(edge.threads).cache(edge.cache);
    if let Some(dir) = &edge.cache_dir {
        runner = runner.cache_dir(dir);
    }
    if edge.progress {
        runner = runner.observer(ProgressObserver::new());
    }
    runner
}
