//! `snoc perf`: the tracked performance record of the simulator's hot
//! paths.
//!
//! Times the workloads the perf trajectory is anchored on — the bare
//! network-step kernel, one full Quick-scale fig6 cell, a core-bound
//! Quick cell (calculix, whose near-idle L2 leaves the per-cycle fixed
//! costs exposed), one Quick 16x16/K16 cell, the Quick-scale fig6
//! sweep both cold (caching off) and warm (cache-hit steady state),
//! and three per-layer kernels (a cache-array probe, a bank's write
//! service and profile-stream generation) — and writes a
//! `snoc-bench/1` document (`BENCH_hotpath.json` unless `--out` says
//! otherwise).
//!
//! When `SNOC_BENCH_BASELINE` names a previous document, matching
//! records gain `baseline_*_ns` and `speedup_*` fields so the document
//! itself shows the delta. `--smoke` shrinks every budget to a fraction
//! of a second, for CI. `--assert-within <pct>` fails the run when the
//! `kernels/network_step` *best* iteration is more than `pct` percent
//! slower than the baseline's best (best-vs-best because a loaded
//! machine inflates the mean far more than the minimum).

use crate::cli::PerfArgs;
use crate::harness::{self, Timing};
use snoc_common::config::SystemConfig;
use snoc_common::geom::{Coord, Layer};
use snoc_common::ids::CoreId;
use snoc_core::experiments::{fig6, Scale};
use snoc_core::scenario::Scenario;
use snoc_core::sweep::{Experiment, SweepRunner};
use snoc_core::system::System;
use snoc_cpu::InstructionStream;
use snoc_mem::array::CacheArray;
use snoc_mem::bank_ctrl::{BankController, BankJob, BankOp};
use snoc_noc::{Network, NetworkParams, NocEnv, Packet, PacketKind};
use snoc_workload::{table3 as t3, ProfileStream};
use std::path::Path;
use std::time::Duration;

/// The benchmark the `--assert-within` gate compares.
const GATED: &str = "kernels/network_step";

/// Times every record, writes the document, and applies the gate.
///
/// # Errors
///
/// An unreadable baseline, an unwritable output, or a failed gate.
pub fn run(args: &PerfArgs, baseline: Option<&Path>) -> Result<(), String> {
    let baseline = match baseline {
        None => Vec::new(),
        Some(p) => std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|doc| harness::from_json(&doc))
            .map_err(|e| format!("baseline {}: {e}", p.display()))?,
    };
    let records = measure(args.smoke);
    std::fs::write(&args.out, harness::to_json(&records, &baseline))
        .map_err(|e| format!("failed to write {}: {e}", args.out.display()))?;
    eprintln!("wrote {}", args.out.display());
    for (name, t) in &records {
        if let Some((_, b)) = baseline.iter().find(|(n, _)| n == name) {
            println!(
                "{name}: {:.2}x mean speedup, {:.2}x best speedup vs baseline",
                harness::ratio(b.mean, t.mean),
                harness::ratio(b.best, t.best),
            );
        }
    }
    let Some(pct) = args.assert_within else {
        return Ok(());
    };
    let Some((_, base)) = baseline.iter().find(|(n, _)| n == GATED) else {
        return Err(format!(
            "--assert-within needs a baseline entry for {GATED} \
             (point SNOC_BENCH_BASELINE at a snoc-bench/1 document)"
        ));
    };
    let (_, t) = records
        .iter()
        .find(|(n, _)| n == GATED)
        .expect("the gated benchmark ran");
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    if t.best.as_nanos() as f64 > base.best.as_nanos() as f64 * (1.0 + pct / 100.0) {
        return Err(format!(
            "{GATED} best {:.3} ms exceeds baseline best {:.3} ms by more than {pct}%",
            ms(t.best),
            ms(base.best),
        ));
    }
    eprintln!(
        "{GATED}: best {:.3} ms within {pct}% of baseline best {:.3} ms",
        ms(t.best),
        ms(base.best),
    );
    Ok(())
}

/// Warm-up and measurement budgets, and the records timed so far.
struct Recorder {
    warmup: Duration,
    budget: Duration,
    records: Vec<(String, Timing)>,
}

impl Recorder {
    fn time<R>(&mut self, name: &str, f: impl FnMut() -> R) {
        let t = harness::bench_with(name, self.warmup, self.budget, f);
        self.records.push((name.to_string(), t));
    }
}

/// Times every record, in document order.
fn measure(smoke: bool) -> Vec<(String, Timing)> {
    let (warmup, budget) = if smoke {
        (Duration::from_millis(20), Duration::from_millis(120))
    } else {
        (Duration::from_millis(500), Duration::from_secs(6))
    };
    let mut r = Recorder {
        warmup,
        budget,
        records: Vec::new(),
    };

    // The bare hot path: default-geometry network (two 8x8 meshes),
    // 64 in-flight bank reads, 1000 cycles per iteration.
    r.time(GATED, || {
        let cfg = SystemConfig::default();
        let mut net = Network::new(NetworkParams::resolve(&cfg, &NocEnv::default()));
        for i in 0..64u64 {
            let src = Coord::new((i % 8) as u8, ((i / 8) % 8) as u8, Layer::Core);
            let dst = Coord::new(((i * 5) % 8) as u8, ((i * 11) % 8) as u8, Layer::Cache);
            net.inject(Packet::new(PacketKind::BankRead, src, dst, i, i));
        }
        net.run(1_000);
        net.stats().delivered
    });

    // One full-system Quick-scale fig6 cell: cores + caches + banks +
    // memory controllers end to end, STT-RAM with bank-aware
    // arbitration (the paper's headline configuration).
    let app = t3::by_name("sap").expect("table 3 has sap");
    r.time("fig6/cell/sap/SttRam4TsbWb", || {
        System::homogeneous(Scale::Quick.apply(Scenario::SttRam4TsbWb.config()), app).run()
    });

    // A core-bound cell: the L2 is almost idle, so the host cost is
    // what every cycle pays regardless of traffic.
    let calculix = t3::by_name("calculix").expect("table 3 has calculix");
    r.time("cell/calculix/SttRam4TsbRca", || {
        System::homogeneous(
            Scale::Quick.apply(Scenario::SttRam4TsbRca.config()),
            calculix,
        )
        .run()
    });

    // One 16x16 / 16-region / single-cache-layer cell: four times the
    // routers, NIs and banks of the default chip.
    r.time("cell16/sap/SttRam4TsbWb", || {
        let cfg = Scale::Quick.apply(Scenario::SttRam4TsbWb.config_at(16, 16, 16, 1));
        System::homogeneous(cfg, app).run()
    });

    // The incremental-sweep machinery: one full Quick-scale fig6 grid
    // per iteration. "Cold" disables result caching (every iteration
    // pays full price); "warm" shares one runner, whose in-process
    // cache is primed during the harness warm-up window, so every
    // measured iteration is pure cache hits.
    let grid = || fig6::Fig6.grid(Scale::Quick);
    r.time("sweep/fig6_quick_cold", || {
        SweepRunner::new()
            .cache(false)
            .run_grid("fig6/bench-cold", grid())
            .len()
    });
    let warm_runner = SweepRunner::new();
    r.time("sweep/fig6_quick_warm", || {
        warm_runner.run_grid("fig6/bench-warm", grid()).len()
    });

    // Per-layer kernels. A 1 MiB 16-way tag array, probed half hits and
    // half misses.
    let mut array = CacheArray::<u8>::new(1024 * 1024, 16, 128);
    for i in 0..4096u64 {
        array.insert(i * 128, 0);
    }
    let mut i = 0u64;
    r.time("kernels/cache_array_probe", || {
        i = i.wrapping_add(12345);
        array.probe((i % 8192) * 128).is_some()
    });

    // One STT-RAM bank draining eight queued writes.
    r.time("kernels/bank_write_service", || {
        let mut bank = BankController::new(3, 33, None);
        for t in 0..8 {
            let job = BankJob {
                op: BankOp::Write,
                token: t,
                addr: t * 128,
                arrived: 0,
            };
            bank.enqueue(job, 0);
        }
        bank.run_until_idle(0, 1000)
    });

    // One core's instruction generation for tpcc.
    let tpcc = t3::by_name("tpcc").expect("table 3 has tpcc");
    let mut stream = ProfileStream::new(tpcc, CoreId::new(0), 64, 4, 1);
    r.time("kernels/profile_stream", || stream.next_instr());
    r.records
}
