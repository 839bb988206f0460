//! Audited conformance: every experiment of the evaluation section
//! runs at quick scale with the NoC invariant auditor enabled on every
//! cell, and every cell must finish with zero violations —
//! packet conservation, credit/flit conservation, hold
//! work-conservation, wake-list completeness and the allocator's
//! derived state (front-ready lanes, SA port masks) all hold across
//! the full configuration space the figures exercise.

use snoc_core::experiments::{Registered, Scale, REGISTRY};
use snoc_core::observer::RunObserver;
use snoc_core::sweep::SweepRunner;
use snoc_noc::AuditConfig;
use std::sync::{Arc, Mutex};

/// Collects violations surfaced through the observer hook.
#[derive(Default)]
struct Collect {
    violations: Mutex<Vec<String>>,
}

/// Clonable observer handle (the runner takes owned observers).
struct Shared(Arc<Collect>);

impl RunObserver for Shared {
    fn audit_violation(&self, label: &str, message: &str) {
        self.0
            .violations
            .lock()
            .unwrap()
            .push(format!("{label}: {message}"));
    }
}

fn check(exp: &Registered, collect: &Arc<Collect>) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let runner = SweepRunner::new()
        .threads(threads)
        .observer(Shared(collect.clone()));
    // Some experiments (table2) are static tables with no simulation
    // cells; their empty grids still go through the runner.
    let grid = (exp.grid)(Scale::Quick)
        .into_iter()
        .map(|spec| spec.with_audit(AuditConfig::default()))
        .collect();
    let cells = runner.run_grid(exp.name, grid);
    for cell in &cells {
        let metrics = cell.metrics(); // re-raises cell panics, labelled
        let audit = metrics
            .audit
            .as_ref()
            .unwrap_or_else(|| panic!("{}: '{}' ran unaudited", exp.name, cell.label));
        assert!(
            audit.clean(),
            "{}: '{}' violated invariants over {} cycles: {:?}",
            exp.name,
            cell.label,
            audit.checked_cycles,
            audit.samples
        );
    }
}

#[test]
fn every_experiment_is_invariant_clean_at_quick_scale() {
    let collect = Arc::new(Collect::default());
    // Every registered experiment but the 16x16 scaling study.
    for exp in REGISTRY.iter().filter(|e| e.name != "scaling") {
        check(exp, &collect);
    }
    let surfaced = collect.violations.lock().unwrap();
    assert!(
        surfaced.is_empty(),
        "observer surfaced violations: {surfaced:?}"
    );
}
