//! One benchmark run of one workload: the untraced end-to-end
//! measurement, the traced per-layer run, and the output checks both
//! share.

use crate::digest::{hex, CellOutputs};
use crate::stats::median;
use crate::trace::{CellCounts, Spans, TracedSystem};
use crate::workloads::{Workload, DEFAULT_SEED};
use snoc_core::scenario::Scenario;
use snoc_core::sweep::{CellResult, SweepRunner};
use snoc_core::system::System;
use snoc_workload::{table3, Suite};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;

/// Expected digests per seed: `workload<TAB>label<TAB>digest` lines.
const EXPECTED: [(u64, &str); 2] = [
    (DEFAULT_SEED, include_str!("../expected/seed-12648430.tsv")),
    (1, include_str!("../expected/seed-1.tsv")),
];

/// Expected digests of every workload's canary cell.
const CANARY: &str = include_str!("../expected/canary.tsv");

/// The checked-in Figure 6 output the default seed must reproduce.
const FIG6_TXT: &str = include_str!("../../results/fig6.txt");

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: &'static str,
    /// Its seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Worker threads the grid ran on.
    pub workers: usize,
    /// Cells simulated and checked (every pass, plus the canary).
    pub attempted: u64,
    /// Cells that panicked or whose outputs did not check out.
    pub failed: u64,
    /// Cells of a seed without an expected-digest file.
    pub unverified: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Each cell's digest, by label.
    pub digests: Vec<(String, u128)>,
    /// What failed, one line each.
    pub problems: Vec<String>,
}

impl Report {
    fn new(w: &Workload, seed: u64, trace: bool) -> Self {
        Self {
            workload: w.name,
            seed,
            trace,
            workers: w.workers(),
            attempted: 0,
            failed: 0,
            unverified: 0,
            metrics: Vec::new(),
            digests: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// `true` when every attempted cell checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn runner(w: &Workload) -> SweepRunner {
    SweepRunner::new().cache(false).threads(w.workers())
}

/// The end-to-end run: times [`SETUP_SAMPLES`] set-ups (the first from
/// `t_main`, the process's entry), then sweeps the grid once, and again
/// while the run would end nearer `budget` for it, then checks every
/// cell. The host-time metrics come from the best sweep: load from
/// other tenants of a shared host only ever slows a sweep down, so the
/// fastest one is the steadiest estimate of the program's own cost.
pub fn end_to_end(w: &Workload, seed: u64, budget: Duration, t_main: Instant) -> Report {
    let mut report = Report::new(w, seed, false);
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    let mut start = t_main;
    for _ in 0..SETUP_SAMPLES {
        let grid = w.cells(seed);
        let first = &grid[0];
        let sys = System::new(first.cfg, &first.workload, first.mode);
        setups.push(start.elapsed().as_secs_f64());
        drop(black_box(sys));
        start = Instant::now();
    }

    let runner = runner(w);
    let t_run = Instant::now();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut passes: Vec<Vec<CellResult>> = Vec::new();
    let mut peak = None;
    loop {
        let grid = w.cells(seed);
        let t = Instant::now();
        let cells = runner.run_grid(w.name, grid);
        let wall = t.elapsed();
        let cycles: u64 = cells.iter().map(|c| c.sim_cycles).sum();
        let cell_wall: Duration = cells.iter().map(|c| c.wall).sum();
        walls.push(wall.as_secs_f64());
        rates.push(cycles as f64 / cell_wall.as_secs_f64().max(1e-9) / 1e3);
        passes.push(cells);
        // Later sweeps spawn fresh worker threads whose allocator arenas
        // add to the high-water mark, so memory is read after the first.
        if passes.len() == 1 {
            peak = peak_rss_mb();
        }
        if t_run.elapsed() + wall / 2 > budget {
            break;
        }
    }

    let best = |v: &[f64], f: fn(f64, f64) -> f64| v.iter().copied().reduce(f).unwrap_or(0.0);
    report.push("sweep_s", best(&walls, f64::min), "s");
    report.push("sim_kcycles_per_s", best(&rates, f64::max), "kcycles/s");
    report.push("setup_s", median(&setups), "s");
    match peak {
        Some(mb) => report.push("peak_rss_mb", mb, "MB"),
        None => {
            report.failed += 1;
            report
                .problems
                .push("VmHWM unreadable in /proc/self/status".into());
        }
    }
    for cells in &passes {
        check_cells(w, seed, cells, &mut report);
    }
    check_canary(w, &mut report);
    report
}

/// The traced run: one untraced sweep (reference digests and
/// `core.sweep_overhead_pct`), then, cell by cell, a timed
/// `System::new(..).run()` followed by the traced stepper, whose
/// outputs must equal the `System`'s.
pub fn traced(w: &Workload, seed: u64) -> Report {
    let mut report = Report::new(w, seed, true);
    let t = Instant::now();
    let cells = runner(w).run_grid(w.name, w.cells(seed));
    let sweep = t.elapsed().as_secs_f64();
    let cell_wall: f64 = cells.iter().map(|c| c.wall.as_secs_f64()).sum();
    let workers = w.workers().min(cells.len()) as f64;
    check_cells(w, seed, &cells, &mut report);

    let mut spans = Spans::default();
    let mut counts = CellCounts::default();
    let mut outputs = Vec::new();
    let mut setup_ms = Vec::new();
    let mut reference_ns = 0u128;
    for (i, spec) in w.cells(seed).iter().enumerate() {
        let t0 = Instant::now();
        let mut sys = System::new(spec.cfg, &spec.workload, spec.mode);
        setup_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        let m = sys.run();
        reference_ns += t1.elapsed().as_nanos();
        let reference = CellOutputs::from(&m);
        let reference_counts = CellCounts::read(sys.network(), sys.cores());
        drop(sys);

        let cell = TracedSystem::new(spec).run();
        let label = &spec.label;
        if cell.outputs.digest() != reference.digest() || cell.counts != reference_counts {
            report.failed += 1;
            report.problems.push(format!(
                "{label}: traced stepper differs from System::run: {:?} vs {:?}",
                cell.counts, reference_counts
            ));
        } else if cells[i].outcome.is_ok() && report.digests[i].1 != reference.digest() {
            report.failed += 1;
            report.problems.push(format!(
                "{label}: System::run differs from the sweep's cell"
            ));
        }
        report.attempted += 1;
        spans.add(&cell.spans);
        counts.add(&cell.counts);
        outputs.push(cell.outputs);
    }
    check_canary(w, &mut report);

    let l = spans.layers();
    let total = spans.total_ns.max(1) as f64;
    let share = |ns: u64| 100.0 * ns as f64 / total;
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    let sum = |f: fn(&CellOutputs) -> u64| outputs.iter().map(f).sum::<u64>() as f64;
    let mean = |f: fn(&CellOutputs) -> f64| {
        outputs.iter().map(f).sum::<f64>() / outputs.len().max(1) as f64
    };
    let cycles = spans.cycles;
    let r = &mut report;
    r.push(
        "workload.gen_ns_per_instr",
        per(l.workload, spans.instr_generated),
        "ns",
    );
    r.push("workload.share_pct", share(l.workload), "%");
    r.push(
        "workload.instr_generated",
        spans.instr_generated as f64,
        "count",
    );
    r.push(
        "cpu.tick_ns_per_core_cycle",
        per(l.cpu, spans.core_cycles),
        "ns",
    );
    r.push("cpu.share_pct", share(l.cpu), "%");
    r.push(
        "cpu.instr_committed",
        sum(|o| o.per_core_committed.iter().sum()),
        "count",
    );
    r.push("cpu.issue_retries", counts.issue_retries as f64, "count");
    r.push(
        "cpu.retry_ratio",
        per(counts.issue_retries, counts.issue_retries + counts.mem_ops),
        "ratio",
    );
    r.push(
        "cpu.uncore_rtt_p95_cyc",
        mean(|o| o.uncore_rtt_p95),
        "cycles",
    );
    r.push("noc.step_ns_per_cycle", per(l.noc_step, cycles), "ns");
    r.push("noc.step_share_pct", share(l.noc_step), "%");
    r.push("noc.eject_ns_per_cycle", per(l.noc_eject, cycles), "ns");
    r.push("noc.eject_share_pct", share(l.noc_eject), "%");
    r.push(
        "noc.inject_ns_per_packet",
        per(l.noc_inject, spans.injects),
        "ns",
    );
    r.push("noc.inject_share_pct", share(l.noc_inject), "%");
    r.push(
        "noc.packets_injected",
        counts.packets_injected as f64,
        "count",
    );
    r.push(
        "noc.packets_delivered",
        counts.packets_delivered as f64,
        "count",
    );
    r.push("noc.flits_lateral", counts.flits_lateral as f64, "count");
    r.push("noc.flits_vertical", counts.flits_vertical as f64, "count");
    r.push("noc.held_packets", sum(|o| o.held_packets), "count");
    r.push("noc.held_cycles", sum(|o| o.held_cycles), "cycles");
    r.push(
        "noc.request_latency_cyc",
        mean(|o| o.net_request_latency),
        "cycles",
    );
    r.push(
        "noc.response_latency_cyc",
        mean(|o| o.net_response_latency),
        "cycles",
    );
    r.push("mem.bank_tick_ns_per_cycle", per(l.bank_tick, cycles), "ns");
    r.push("mem.bank_tick_share_pct", share(l.bank_tick), "%");
    r.push(
        "mem.bank_handle_ns_per_msg",
        per(l.bank_handle, spans.handles),
        "ns",
    );
    r.push("mem.bank_handle_share_pct", share(l.bank_handle), "%");
    r.push("mem.mc_ns_per_cycle", per(l.mc, cycles), "ns");
    r.push("mem.mc_share_pct", share(l.mc), "%");
    r.push("mem.bank_reads", sum(|o| o.bank_reads), "count");
    r.push("mem.bank_writes", sum(|o| o.bank_writes), "count");
    r.push("mem.mem_fetches", sum(|o| o.mem_fetches), "count");
    r.push(
        "mem.bank_queue_wait_cyc",
        mean(|o| o.bank_queue_wait),
        "cycles",
    );
    r.push("mem.bank_service_cyc", mean(|o| o.bank_service), "cycles");
    r.push("core.cell_setup_ms", median(&setup_ms), "ms");
    r.push("core.glue_share_pct", share(l.glue), "%");
    r.push(
        "core.sweep_overhead_pct",
        100.0 * (1.0 - cell_wall / (sweep * workers).max(1e-9)),
        "%",
    );
    r.push(
        "trace_overhead_pct",
        100.0 * (spans.total_ns as f64 / reference_ns.max(1) as f64 - 1.0),
        "%",
    );
    report
}

/// Checks one sweep of the grid: no cell may panic, every digest must
/// match the seed's expected file (when there is one) and the first
/// sweep's digests, and at the default seed the fig6 workloads must
/// reproduce their rows of `results/fig6.txt`. The first call records
/// the digests.
fn check_cells(w: &Workload, seed: u64, cells: &[CellResult], report: &mut Report) {
    let first_pass = report.digests.is_empty();
    let expected = EXPECTED.iter().find(|(s, _)| *s == seed).map(|(_, t)| *t);
    let mut bad = vec![false; cells.len()];
    for (i, cell) in cells.iter().enumerate() {
        let label = &cell.label;
        let digest = match &cell.outcome {
            Ok(m) => CellOutputs::from(m).digest(),
            Err(e) => {
                bad[i] = true;
                report.problems.push(format!("{label}: {e}"));
                0
            }
        };
        if first_pass {
            report.digests.push((label.clone(), digest));
            match expected {
                None => report.unverified += 1,
                Some(text) => {
                    let want = lookup(text, w.name, label);
                    if !bad[i] && want != Some(hex(digest).as_str()) {
                        bad[i] = true;
                        report.problems.push(format!(
                            "{label}: digest {} != expected {}",
                            hex(digest),
                            want.unwrap_or("(missing)")
                        ));
                    }
                }
            }
        } else if !bad[i] && report.digests[i].1 != digest {
            bad[i] = true;
            report
                .problems
                .push(format!("{label}: digest changed between sweeps"));
        }
    }
    if seed == DEFAULT_SEED && matches!(w.name, "fig6-server" | "spec-read") {
        for (row, chunk) in cells.chunks(Scenario::ALL.len()).enumerate() {
            if let Err(msg) = check_fig6_row(chunk) {
                report.problems.push(msg);
                let n = chunk.len();
                bad[row * n..row * n + n].fill(true);
            }
        }
    }
    report.attempted += cells.len() as u64;
    report.failed += bad.iter().filter(|&&b| b).count() as u64;
}

fn lookup<'a>(text: &'a str, workload: &str, label: &str) -> Option<&'a str> {
    text.lines().find_map(|line| {
        let mut f = line.split('\t');
        (f.next() == Some(workload) && f.next() == Some(label))
            .then(|| f.next())
            .flatten()
    })
}

/// Rebuilds one app's Figure 6 row (six scenarios, normalized to
/// SRAM-64TSB, three decimals) and looks for it in `results/fig6.txt`.
fn check_fig6_row(row: &[CellResult]) -> Result<(), String> {
    let app = row[0].label.rsplit('/').next().unwrap_or_default();
    let profile = table3::by_name(app).ok_or(format!("{app}: not a Table 3 app"))?;
    let mut values = Vec::with_capacity(row.len());
    for cell in row {
        let m = cell
            .outcome
            .as_ref()
            .map_err(|e| format!("{}: {e}", cell.label))?;
        values.push(if profile.suite == Suite::Spec {
            m.instruction_throughput()
        } else {
            m.slowest_ipc()
        });
    }
    let mut line = format!("{app:12}");
    for v in &values {
        let normalized = if values[0] == 0.0 { 0.0 } else { v / values[0] };
        line.push_str(&format!(" {normalized:>14.3}"));
    }
    if FIG6_TXT.lines().any(|l| l == line) {
        Ok(())
    } else {
        Err(format!("{app}: row `{line}` is not in results/fig6.txt"))
    }
}

/// Runs the workload's canary cell and checks its digest.
fn check_canary(w: &Workload, report: &mut Report) {
    let spec = w.canary();
    let digest =
        CellOutputs::from(&System::new(spec.cfg, &spec.workload, spec.mode).run()).digest();
    let want = lookup(CANARY, w.name, &spec.label);
    report.attempted += 1;
    if want != Some(hex(digest).as_str()) {
        report.failed += 1;
        report.problems.push(format!(
            "canary {}: digest {} != expected {}",
            spec.label,
            hex(digest),
            want.unwrap_or("(missing)")
        ));
    }
}
