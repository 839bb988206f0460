//! Tier-1 fault campaign: the headline fig6 cell runs under the NoC
//! invariant auditor *while faults are firing* — transient TSB, link,
//! port and bank faults plus a permanent mid-run TSB death — and must
//! finish with zero packet/credit-conservation violations, zero panics
//! and a byte-identical fingerprint across two same-seed runs.
//!
//! Faults are protocol-level by construction (a blocked port is
//! credit-safe backpressure; a dropped request is lost *after* the
//! network delivered it), so every invariant the auditor checks holds
//! in degraded mode with no auditor special-casing.

use snoc_core::experiments::Scale;
use snoc_core::metrics::RunMetrics;
use snoc_core::scenario::Scenario;
use snoc_core::system::System;
use snoc_noc::fault::FaultSummary;
use snoc_noc::{AuditConfig, FaultPlan};
use snoc_workload::table3 as t3;

fn campaign_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xC0DE,
        // Rates scaled so a 3.5k-cycle Quick run sees a healthy number
        // of events of every class.
        tsb_rate: 2e-3,
        link_rate: 4e-3,
        port_rate: 4e-3,
        bank_rate: 8e-3,
        // And one permanent TSB death early in measurement.
        kill_tsb_at: Some(1_000),
        ..FaultPlan::default()
    }
}

fn run_campaign() -> RunMetrics {
    let cfg = Scale::Quick.apply(Scenario::SttRam4TsbWb.config());
    let app = t3::by_name("sap").expect("table 3 has sap");
    let mut system = System::homogeneous(cfg, app);
    system.enable_faults(campaign_plan());
    system.enable_audit(AuditConfig::default());
    system.run()
}

#[derive(Debug, PartialEq)]
struct Fingerprint {
    committed: Vec<u64>,
    net_request_latency: f64,
    net_response_latency: f64,
    bank_reads: u64,
    bank_writes: u64,
    held_packets: u64,
    held_cycles: u64,
    faults: FaultSummary,
}

fn fingerprint(m: &RunMetrics) -> Fingerprint {
    Fingerprint {
        committed: m.per_core_committed.clone(),
        net_request_latency: m.net_request_latency,
        net_response_latency: m.net_response_latency,
        bank_reads: m.bank_reads,
        bank_writes: m.bank_writes,
        held_packets: m.held_packets,
        held_cycles: m.held_cycles,
        faults: m.faults.clone().expect("campaign was on"),
    }
}

#[test]
fn audited_fault_campaign_is_conservation_clean_and_deterministic() {
    let first = run_campaign();

    let audit = first.audit.as_ref().expect("auditor was on");
    assert!(
        audit.clean(),
        "invariants violated while faults were firing over {} cycles: {:?}",
        audit.checked_cycles,
        audit.samples
    );

    let faults = first.faults.as_ref().expect("campaign was on");
    assert!(
        faults.tsb_faults > 0 && faults.link_faults > 0 && faults.bank_faults > 0,
        "the campaign must exercise every fault class: {faults:?}"
    );
    assert_eq!(faults.rehomed_regions, 1, "the TSB kill re-homed a region");
    assert!(faults.degraded_cycles > 0);
    assert!(
        first.instruction_throughput() > 0.0,
        "the chip keeps committing instructions in degraded mode"
    );

    // Same plan, same seed, same everything.
    let second = run_campaign();
    assert_eq!(
        fingerprint(&first),
        fingerprint(&second),
        "a faulty run must replay byte-identically per seed"
    );
}
