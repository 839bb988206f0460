//! Tracked performance baseline for the simulator hot path.
//!
//! Times the workloads the perf trajectory is anchored on — the bare
//! network-step kernel, one full Quick-scale fig6 cell, a core-bound
//! Quick cell (calculix, whose near-idle L2 leaves the per-cycle fixed
//! costs exposed), one Quick 16x16/K16 cell, and the Quick-scale fig6
//! sweep both cold (caching and warm reuse off) and warm (cache-hit
//! steady state) — and writes `BENCH_hotpath.json`
//! (override with `--out <path>`) so every PR lands on a
//! machine-readable perf record.
//!
//! When `SNOC_BENCH_BASELINE=<path>` names a previous `snoc-bench/1`
//! document (e.g. a checked-in `BENCH_hotpath.json` from before a
//! change), matching benchmarks gain `baseline_*_ns` and `speedup_*`
//! fields so the document itself shows the delta.
//!
//! `--smoke` shrinks the warm-up/measure budgets to a fraction of a
//! second; it exists so CI can keep this binary building and running
//! without paying for a real measurement.
//!
//! `--assert-within <pct>` turns the baseline comparison into a gate:
//! the process exits nonzero when the `kernels/network_step` *best*
//! iteration is more than `pct` percent slower than the baseline's
//! best (best-vs-best because a loaded CI machine inflates the mean
//! far more than the minimum). It requires a readable
//! `SNOC_BENCH_BASELINE` with that benchmark in it.

use snoc_bench::harness::{self, Timing};
use snoc_common::config::SystemConfig;
use snoc_common::geom::{Coord, Layer};
use snoc_core::experiments::{fig6, Scale};
use snoc_core::scenario::Scenario;
use snoc_core::sweep::{Experiment, SweepRunner};
use snoc_core::system::System;
use snoc_noc::{Network, NetworkParams, Packet, PacketKind};
use snoc_workload::table3 as t3;
use std::time::Duration;

/// Parsed command line. Parsing is strict: an unknown or misspelled
/// flag (`--asert-within`, say) must fail loudly *before* any
/// measurement runs or `BENCH_hotpath.json` is overwritten — this
/// binary's default output is a checked-in baseline, and silently
/// rewriting it from a typo'd invocation corrupts the perf record.
struct Cli {
    smoke: bool,
    out: String,
    assert_within: Option<f64>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        smoke: false,
        out: "BENCH_hotpath.json".to_string(),
        assert_within: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cli.smoke = true,
            "--out" => {
                cli.out = args.next().ok_or("--out requires a path operand")?;
            }
            "--assert-within" => {
                let v = args.next().ok_or("--assert-within requires a percentage")?;
                let pct: f64 = v
                    .parse()
                    .map_err(|_| format!("--assert-within: `{v}` is not a number"))?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err(format!("--assert-within: `{v}` must be >= 0"));
                }
                cli.assert_within = Some(pct);
            }
            _ => return Err(format!("unrecognized argument `{arg}`")),
        }
    }
    Ok(cli)
}

fn main() {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: {} [--smoke] [--out <path>] [--assert-within <pct>]",
                snoc_bench::bin_name()
            );
            std::process::exit(2);
        }
    };
    let Cli {
        smoke,
        out,
        assert_within,
    } = cli;

    let (warmup, measure) = if smoke {
        (Duration::from_millis(20), Duration::from_millis(120))
    } else {
        (Duration::from_millis(500), Duration::from_secs(6))
    };

    // The bare hot path: default-geometry network (two 8x8 meshes),
    // 64 in-flight bank reads, 1000 cycles per iteration.
    let network_step = harness::bench_with("kernels/network_step", warmup, measure, || {
        let cfg = SystemConfig::default();
        let mut net = Network::new(NetworkParams::from_config(&cfg));
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
    let app = t3::by_name("sap").unwrap();
    let fig6_cell = harness::bench_with("fig6/cell/sap/SttRam4TsbWb", warmup, measure, || {
        System::homogeneous(Scale::Quick.apply(Scenario::SttRam4TsbWb.config()), app).run()
    });

    // A core-bound cell: the L2 is almost idle, so the host cost is
    // what every cycle pays regardless of traffic.
    let calculix = t3::by_name("calculix").unwrap();
    let core_bound_cell =
        harness::bench_with("cell/calculix/SttRam4TsbRca", warmup, measure, || {
            System::homogeneous(
                Scale::Quick.apply(Scenario::SttRam4TsbRca.config()),
                calculix,
            )
            .run()
        });

    // One 16x16 / 16-region / single-cache-layer cell: four times the
    // routers, NIs and banks of the default chip.
    let mesh16_cell = harness::bench_with("cell16/sap/SttRam4TsbWb", warmup, measure, || {
        let cfg = Scale::Quick.apply(Scenario::SttRam4TsbWb.config_at(16, 16, 16, 1));
        System::homogeneous(cfg, app).run()
    });

    // The incremental-sweep machinery: one full Quick-scale fig6 grid
    // per iteration. "Cold" disables result caching and warm-state
    // reuse (every iteration pays full price); "warm" shares one
    // runner, whose in-process cache is primed during the harness
    // warm-up window, so every measured iteration is pure cache hits.
    let grid = || fig6::Fig6.grid(Scale::Quick);
    let sweep_cold = harness::bench_with("sweep/fig6_quick_cold", warmup, measure, || {
        SweepRunner::new()
            .cache(false)
            .warm_reuse(false)
            .run_grid("fig6/bench-cold", grid())
            .len()
    });
    let warm_runner = SweepRunner::new();
    let sweep_warm = harness::bench_with("sweep/fig6_quick_warm", warmup, measure, || {
        warm_runner.run_grid("fig6/bench-warm", grid()).len()
    });

    let records = vec![
        ("kernels/network_step".to_string(), network_step),
        ("fig6/cell/sap/SttRam4TsbWb".to_string(), fig6_cell),
        ("cell/calculix/SttRam4TsbRca".to_string(), core_bound_cell),
        ("cell16/sap/SttRam4TsbWb".to_string(), mesh16_cell),
        ("sweep/fig6_quick_cold".to_string(), sweep_cold),
        ("sweep/fig6_quick_warm".to_string(), sweep_warm),
    ];
    let baseline = std::env::var("SNOC_BENCH_BASELINE")
        .ok()
        .filter(|p| !p.is_empty())
        .and_then(|p| match std::fs::read_to_string(&p) {
            Ok(doc) => Some(harness::from_json(&doc)),
            Err(e) => {
                eprintln!("warning: could not read baseline {p}: {e}");
                None
            }
        })
        .unwrap_or_default();

    let doc = render(&records, &baseline);
    match std::fs::write(&out, &doc) {
        Ok(()) => eprintln!("wrote {out}"),
        Err(e) => {
            eprintln!("error: failed to write {out}: {e}");
            std::process::exit(1);
        }
    }
    for (name, t) in &records {
        if let Some((_, b)) = baseline.iter().find(|(n, _)| n == name) {
            println!(
                "{name}: {:.2}x mean speedup, {:.2}x best speedup vs baseline",
                ratio(b.mean, t.mean),
                ratio(b.best, t.best),
            );
        }
    }

    if let Some(pct) = assert_within {
        let name = "kernels/network_step";
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == name) else {
            eprintln!(
                "error: --assert-within needs a baseline entry for {name} \
                 (point SNOC_BENCH_BASELINE at a snoc-bench/1 document)"
            );
            std::process::exit(1);
        };
        let (_, t) = records.iter().find(|(n, _)| n == name).expect("bench ran");
        let limit_ns = base.best.as_nanos() as f64 * (1.0 + pct / 100.0);
        if t.best.as_nanos() as f64 > limit_ns {
            eprintln!(
                "error: {name} best {:.3} ms exceeds baseline best {:.3} ms by more than {pct}%",
                t.best.as_secs_f64() * 1e3,
                base.best.as_secs_f64() * 1e3,
            );
            std::process::exit(1);
        }
        eprintln!(
            "{name}: best {:.3} ms within {pct}% of baseline best {:.3} ms",
            t.best.as_secs_f64() * 1e3,
            base.best.as_secs_f64() * 1e3,
        );
    }
}

fn ratio(base: Duration, new: Duration) -> f64 {
    base.as_nanos() as f64 / new.as_nanos().max(1) as f64
}

/// `snoc-bench/1` document with optional per-bench baseline comparison
/// fields, one bench object per line (the shape `harness::from_json`
/// parses).
fn render(records: &[(String, Timing)], baseline: &[(String, Timing)]) -> String {
    let mut out = String::from("{\n  \"schema\": \"snoc-bench/1\",\n  \"benches\": [\n");
    for (i, (name, t)) in records.iter().enumerate() {
        let mut line = format!(
            "    {{\"name\": \"{name}\", \"iters\": {}, \"mean_ns\": {}, \"best_ns\": {}, \"worst_ns\": {}",
            t.iters,
            t.mean.as_nanos(),
            t.best.as_nanos(),
            t.worst.as_nanos(),
        );
        if let Some((_, b)) = baseline.iter().find(|(n, _)| n == name) {
            line.push_str(&format!(
                ", \"baseline_mean_ns\": {}, \"baseline_best_ns\": {}, \"speedup_mean\": {:.3}, \"speedup_best\": {:.3}",
                b.mean.as_nanos(),
                b.best.as_nanos(),
                ratio(b.mean, t.mean),
                ratio(b.best, t.best),
            ));
        }
        line.push('}');
        if i + 1 < records.len() {
            line.push(',');
        }
        line.push('\n');
        out.push_str(&line);
    }
    out.push_str("  ]\n}\n");
    out
}
