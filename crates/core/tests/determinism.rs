//! Differential determinism on the optimized hot path: the
//! activity-driven, allocation-free cycle loop must produce the exact
//! same `RunMetrics` run-to-run — with and without the invariant
//! auditor or the telemetry collector riding along — for both a plain
//! SRAM baseline and the paper's full STT-RAM + bank-aware-arbitration
//! configuration. Fault campaigns replay per seed in `faults.rs`.
//!
//! One `#[test]` for the 8x8 cells on purpose: it toggles the
//! process-wide `SNOC_AUDIT` and `SNOC_TELEMETRY` environment
//! variables, which must not race a parallel test.

use snoc_core::experiments::Scale;
use snoc_core::metrics::RunMetrics;
use snoc_core::scenario::Scenario;
use snoc_core::system::System;
use snoc_noc::AuditConfig;
use snoc_workload::table3 as t3;

fn run_cell(scenario: Scenario) -> RunMetrics {
    let app = t3::by_name("sap").unwrap();
    let cfg = Scale::Quick.apply(scenario.config());
    System::homogeneous(cfg, app).run()
}

/// The full metrics record as a comparable string, minus the audit and
/// telemetry attachments (present only on instrumented runs; everything
/// the simulation computed must match bit-for-bit).
fn fingerprint(m: &RunMetrics) -> String {
    let mut m = m.clone();
    m.audit = None;
    m.telemetry = None;
    format!("{m:?}")
}

#[test]
fn quick_cells_are_deterministic_and_audit_clean() {
    for scenario in [Scenario::Sram64Tsb, Scenario::SttRam4TsbWb] {
        let first = run_cell(scenario);
        let second = run_cell(scenario);
        assert_eq!(
            fingerprint(&first),
            fingerprint(&second),
            "{scenario:?}: repeated runs diverged"
        );

        std::env::set_var("SNOC_AUDIT", "1");
        let audited = run_cell(scenario);
        std::env::remove_var("SNOC_AUDIT");

        let report = audited
            .audit
            .clone()
            .expect("SNOC_AUDIT enables the auditor");
        assert!(
            report.clean(),
            "{scenario:?}: audit violations: {:?}",
            report.samples
        );
        assert!(report.checked_cycles > 0, "auditor must have run");
        assert_eq!(
            fingerprint(&first),
            fingerprint(&audited),
            "{scenario:?}: auditing changed simulated behaviour"
        );

        std::env::set_var("SNOC_TELEMETRY", "1");
        let instrumented = run_cell(scenario);
        std::env::remove_var("SNOC_TELEMETRY");

        let summary = instrumented
            .telemetry
            .clone()
            .expect("SNOC_TELEMETRY enables the collector");
        assert!(summary.epochs_sampled > 0, "collector must have sampled");
        assert!(
            summary.class_latency.iter().any(|h| h.total() > 0),
            "{scenario:?}: no latencies recorded"
        );
        assert_eq!(
            fingerprint(&first),
            fingerprint(&instrumented),
            "{scenario:?}: telemetry changed simulated behaviour"
        );
    }
}

/// Determinism beyond the 8x8 point: one 16x16 / 16-region / 2-layer
/// cell, run plain and then with the auditor attached through the
/// race-free `System::enable_audit` (no env toggles, so this can be
/// its own `#[test]`). The audited run must be violation-free and
/// byte-identical to the plain one.
#[test]
fn sixteen_by_sixteen_cell_is_deterministic_and_audit_clean() {
    let app = t3::by_name("sap").unwrap();
    let run = |audit: bool| {
        let cfg = Scenario::SttRam4TsbWb
            .config_at(16, 16, 16, 2)
            .rebuild()
            .cycles(200, 1_200)
            .build();
        let mut sys = System::homogeneous(cfg, app);
        if audit {
            sys.enable_audit(AuditConfig::default());
        }
        sys.run()
    };
    let plain = run(false);
    let audited = run(true);
    assert!(
        plain.instruction_throughput() > 0.0,
        "16x16 cell made no progress"
    );
    let report = audited.audit.clone().expect("the auditor is on");
    assert!(
        report.clean(),
        "16x16/K16/L2: audit violations: {:?}",
        report.samples
    );
    assert!(report.checked_cycles > 0, "auditor must have run");
    assert_eq!(
        fingerprint(&plain),
        fingerprint(&audited),
        "16x16/K16/L2: repeated runs diverged"
    );
}
