//! Job construction and identity: turning a [`JobRequest`] into a
//! [`RunSpec`] grid, and fingerprinting that grid into the job key
//! that makes submission idempotent.

use super::protocol::{CellRequest, JobRequest};
use crate::experiments::Scale;
use crate::scenario::Scenario;
use crate::sweep::RunSpec;
use snoc_common::fingerprint::{Fingerprint, StableHasher};
use snoc_workload::table3;

/// Schema tag folded into every job key; bump if the key's coverage
/// changes so old and new servers never alias jobs.
const JOB_SCHEMA: &str = "snoc-job/1";

/// The grid of a checked-in experiment, by name.
pub fn experiment_grid(name: &str, scale: Scale) -> Option<Vec<RunSpec>> {
    crate::experiments::by_name(name).map(|e| (e.grid)(scale))
}

fn cell_spec(cell: &CellRequest) -> Result<RunSpec, String> {
    let scenario = Scenario::by_name(&cell.scenario)
        .ok_or_else(|| format!("unknown scenario '{}'", cell.scenario))?;
    let profile =
        table3::by_name(&cell.app).ok_or_else(|| format!("unknown app '{}'", cell.app))?;
    let (quick_warmup, quick_measure) = Scale::Quick.cycles();
    let mut cfg = scenario
        .config()
        .rebuild()
        .cycles(
            cell.warmup.unwrap_or(quick_warmup),
            cell.measure.unwrap_or(quick_measure),
        )
        .build();
    if let Some(regions) = cell.regions {
        // Deliberately unvalidated here: a nonsense value panics the
        // cell's worker at System construction, which the runner
        // isolates — the job completes with that cell marked failed.
        cfg.regions = regions;
    }
    let label = cell
        .label
        .clone()
        .unwrap_or_else(|| format!("{}/{}", scenario.name(), cell.app));
    Ok(RunSpec::homogeneous(label, cfg, profile))
}

/// Builds the grid a request describes, or a client-facing diagnostic.
pub fn build_grid(req: &JobRequest) -> Result<(String, Vec<RunSpec>), String> {
    match req {
        JobRequest::Experiment { name, scale } => {
            let grid = experiment_grid(name, *scale)
                .ok_or_else(|| format!("unknown experiment '{name}'"))?;
            if grid.is_empty() {
                return Err(format!("experiment '{name}' has no simulation cells"));
            }
            Ok((name.clone(), grid))
        }
        JobRequest::Cells(cells) => {
            let grid = cells.iter().map(cell_spec).collect::<Result<Vec<_>, _>>()?;
            Ok(("cells".to_string(), grid))
        }
    }
}

/// The content key of a whole grid: every modeled input of every cell,
/// plus labels and cell order (two jobs that would print different
/// reports are different jobs). Worker counts are excluded, exactly as
/// in the per-cell key.
pub fn job_key(grid: &[RunSpec]) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_str(JOB_SCHEMA);
    h.write_usize(grid.len());
    for spec in grid {
        h.write_str(&spec.label);
        spec.cfg.hash_into(&mut h);
        h.write_str(&spec.workload.name);
        h.write_usize(spec.workload.apps.len());
        for app in &spec.workload.apps {
            h.write_str(app.name);
        }
        h.write_u8(match spec.mode {
            crate::system::DriveMode::Profile => 0,
            crate::system::DriveMode::FullStack => 1,
        });
        // Instrumentation changes what a job computes (and makes its
        // cells uncacheable); the Debug renderings cover every knob.
        for opt in [
            format!("{:?}", spec.audit),
            format!("{:?}", spec.telemetry),
            format!("{:?}", spec.faults),
        ] {
            h.write_str(&opt);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::protocol::JobRequest;

    fn cell(label: &str, app: &str) -> CellRequest {
        CellRequest {
            label: Some(label.to_string()),
            scenario: "MRAM-4TSB-WB".into(),
            app: app.into(),
            warmup: Some(100),
            measure: Some(400),
            regions: None,
        }
    }

    #[test]
    fn raw_cells_build_and_key_deterministically() {
        let req = JobRequest::Cells(vec![cell("a", "sap"), cell("b", "tpcc")]);
        let (name, grid) = build_grid(&req).unwrap();
        assert_eq!(name, "cells");
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].label, "a");
        let (_, again) = build_grid(&req).unwrap();
        assert_eq!(job_key(&grid), job_key(&again), "same request, same key");
    }

    #[test]
    fn labels_and_order_distinguish_jobs() {
        let (_, base) = build_grid(&JobRequest::Cells(vec![cell("a", "sap")])).unwrap();
        let (_, relabel) = build_grid(&JobRequest::Cells(vec![cell("b", "sap")])).unwrap();
        assert_ne!(
            job_key(&base),
            job_key(&relabel),
            "label is part of identity"
        );
        let (_, ab) = build_grid(&JobRequest::Cells(vec![
            cell("a", "sap"),
            cell("b", "tpcc"),
        ]))
        .unwrap();
        let (_, ba) = build_grid(&JobRequest::Cells(vec![
            cell("b", "tpcc"),
            cell("a", "sap"),
        ]))
        .unwrap();
        assert_ne!(job_key(&ab), job_key(&ba), "order is part of identity");
    }

    #[test]
    fn experiment_registry_resolves_every_repro_name() {
        for e in &crate::experiments::REGISTRY {
            let grid = experiment_grid(e.name, Scale::Quick).expect("registered");
            assert_eq!(grid.is_empty(), e.name == "table2", "{} grid", e.name);
        }
        assert!(experiment_grid("fig99", Scale::Quick).is_none());
    }

    #[test]
    fn bad_names_are_diagnosed_not_panicked() {
        let bad_scenario = JobRequest::Cells(vec![CellRequest {
            scenario: "NVRAM-9000".into(),
            ..cell("x", "sap")
        }]);
        assert!(build_grid(&bad_scenario)
            .unwrap_err()
            .contains("NVRAM-9000"));
        let bad_app = JobRequest::Cells(vec![CellRequest {
            app: "doom".into(),
            ..cell("x", "sap")
        }]);
        assert!(build_grid(&bad_app).unwrap_err().contains("doom"));
        let bad_exp = JobRequest::Experiment {
            name: "fig99".into(),
            scale: Scale::Quick,
        };
        assert!(build_grid(&bad_exp).unwrap_err().contains("fig99"));
    }
}
