//! Differential determinism on the optimized hot path: the
//! activity-driven, allocation-free cycle loop must produce the exact
//! same `RunMetrics` run-to-run — with and without the invariant
//! auditor or the telemetry collector riding along — for both a plain
//! SRAM baseline and the paper's full STT-RAM + bank-aware-arbitration
//! configuration. Fault campaigns replay per seed in `faults.rs`.
//! Two FullStack cells are pinned to digests, since no checked-in
//! result runs that drive mode.

use snoc_common::config::SystemConfig;
use snoc_common::fingerprint::StableHasher;
use snoc_core::experiments::Scale;
use snoc_core::metrics::RunMetrics;
use snoc_core::scenario::{buff20_config, Scenario};
use snoc_core::system::{DriveMode, System};
use snoc_noc::{AuditConfig, TelemetryConfig};
use snoc_workload::mixes::Workload;
use snoc_workload::table3 as t3;

/// Runs fig6's `sap` cell for `scenario` at quick scale, with whatever
/// instrumentation `instrument` switches on.
fn run_cell(scenario: Scenario, instrument: impl FnOnce(&mut System)) -> RunMetrics {
    let app = t3::by_name("sap").unwrap();
    let cfg = Scale::Quick.apply(scenario.config());
    let mut system = System::homogeneous(cfg, app);
    instrument(&mut system);
    system.run()
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
        let first = run_cell(scenario, |_| {});
        let second = run_cell(scenario, |_| {});
        assert_eq!(
            fingerprint(&first),
            fingerprint(&second),
            "{scenario:?}: repeated runs diverged"
        );

        let audited = run_cell(scenario, |s| s.enable_audit(AuditConfig::default()));
        let report = audited
            .audit
            .clone()
            .expect("enable_audit switches the auditor on");
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

        let instrumented = run_cell(scenario, |s| s.enable_telemetry(TelemetryConfig::default()));
        let summary = instrumented
            .telemetry
            .clone()
            .expect("enable_telemetry switches the collector on");
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
/// cell, run plain and then with the auditor attached. The audited run
/// must be violation-free and byte-identical to the plain one.
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

/// A Quick full-stack cell (real L1/L2 tags, MESI coherence) running
/// `app` on every core. Returns the digest of its [`fingerprint`].
fn full_stack_digest(cfg: SystemConfig, app: &str) -> String {
    let profile = t3::by_name(app).unwrap();
    let cfg = Scale::Quick.apply(cfg);
    let workload = Workload {
        name: app.to_string(),
        apps: vec![profile; cfg.cores()],
    };
    let m = System::new(cfg, &workload, DriveMode::FullStack).run();
    let mut h = StableHasher::new();
    h.write_str(&fingerprint(&m));
    h.finish().to_hex()
}

/// No checked-in result runs `DriveMode::FullStack`, so these two
/// digests pin its simulated behaviour: a write-heavy multithreaded
/// app on the recommended WB design, and a SPEC app on BUFF-20.
#[test]
fn full_stack_cells_match_their_pinned_digests() {
    assert_eq!(
        full_stack_digest(Scenario::SttRam4TsbWb.config(), "sclust"),
        "0b69257131869248d8ce9395acba022c",
        "sclust on MRAM-4TSB-WB"
    );
    assert_eq!(
        full_stack_digest(buff20_config(), "sjeng"),
        "6bb1ddf2ef11469cd5f8b3eba79d32a0",
        "sjeng on BUFF-20"
    );
}
