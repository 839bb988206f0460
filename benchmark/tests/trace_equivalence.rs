//! The traced stepper must reproduce `System::run` exactly, or its
//! per-layer shares describe a different program.

use snoc_benchmark::digest::CellOutputs;
use snoc_benchmark::trace::{CellCounts, TracedCell, TracedSystem};
use snoc_core::experiments::Scale;
use snoc_core::scenario::Scenario;
use snoc_core::sweep::RunSpec;
use snoc_core::system::System;
use snoc_workload::table3;

/// One Quick cell per workload family.
fn cells() -> Vec<RunSpec> {
    let cell = |label: &str, sc: Scenario, app: &str, mesh: u8, regions: usize, layers| {
        let cfg = Scale::Quick.apply(sc.config_at(mesh, mesh, regions, layers));
        RunSpec::homogeneous(label, cfg, table3::by_name(app).unwrap())
    };
    vec![
        cell("8x8 WB sap", Scenario::SttRam4TsbWb, "sap", 8, 4, 1),
        cell("8x8 SRAM mcf", Scenario::Sram64Tsb, "mcf", 8, 4, 1),
        cell(
            "8x8 STT calculix",
            Scenario::SttRam64Tsb,
            "calculix",
            8,
            4,
            1,
        ),
        cell("16x16 L2 WB lbm", Scenario::SttRam4TsbWb, "lbm", 16, 16, 2),
    ]
}

fn reference(spec: &RunSpec) -> (CellOutputs, CellCounts) {
    let mut sys = System::new(spec.cfg, &spec.workload, spec.mode);
    let m = sys.run();
    (
        CellOutputs::from(&m),
        CellCounts::read(sys.network(), sys.cores()),
    )
}

fn assert_same(label: &str, traced: &TracedCell, outputs: &CellOutputs, counts: &CellCounts) {
    let t = &traced.outputs;
    assert_eq!(
        t.per_core_committed, outputs.per_core_committed,
        "{label}: committed"
    );
    assert_eq!(t.bank_reads, outputs.bank_reads, "{label}: bank reads");
    assert_eq!(t.bank_writes, outputs.bank_writes, "{label}: bank writes");
    assert_eq!(t.mem_fetches, outputs.mem_fetches, "{label}: fetches");
    assert_eq!(
        t.held_packets, outputs.held_packets,
        "{label}: held packets"
    );
    assert_eq!(t.held_cycles, outputs.held_cycles, "{label}: held cycles");
    assert_eq!(
        traced.counts.packets_delivered, counts.packets_delivered,
        "{label}: NetStats.delivered"
    );
    assert_eq!(traced.counts, *counts, "{label}: counters");
    assert_eq!(
        t.digest(),
        outputs.digest(),
        "{label}: every digested output"
    );
}

#[test]
fn traced_stepper_equals_system_run() {
    for spec in cells() {
        let (outputs, counts) = reference(&spec);
        let traced = TracedSystem::new(&spec).run();
        assert_same(&spec.label, &traced, &outputs, &counts);
        assert!(
            outputs.bank_reads + outputs.bank_writes > 0,
            "{}: idle cell",
            spec.label
        );

        // The layer self times partition the traced total.
        let s = &traced.spans;
        let l = s.layers();
        let parts = l.workload
            + l.cpu
            + l.noc_step
            + l.noc_eject
            + l.noc_inject
            + l.bank_tick
            + l.bank_handle
            + l.mc
            + l.glue;
        assert_eq!(
            parts, s.total_ns,
            "{}: shares must sum to the total",
            spec.label
        );
        assert_eq!(s.cycles, spec.cfg.warmup_cycles + spec.cfg.measure_cycles);
        assert!(s.instr_generated > 0 && s.injects > 0 && s.handles > 0);
    }
}

#[test]
fn a_different_seed_is_detected() {
    // Negative control: the comparison above is not vacuous. The same
    // cell at another seed must differ from the reference.
    let spec = cells().swap_remove(0);
    let (outputs, counts) = reference(&spec);
    let mut other = spec.clone();
    other.cfg.seed += 1;
    let traced = TracedSystem::new(&other).run();
    assert_ne!(traced.outputs.digest(), outputs.digest());
    assert_ne!(
        traced.outputs.per_core_committed,
        outputs.per_core_committed
    );
    assert_ne!(traced.counts, counts);
}
