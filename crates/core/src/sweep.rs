//! The sweep engine: declarative simulation grids executed on a
//! worker pool.
//!
//! Every figure and table of the evaluation reduces to the same shape
//! of work — *run a grid of independent simulations, then fold the
//! per-cell metrics into the figure's rows*. This module factors that
//! shape out:
//!
//! * [`RunSpec`] — one cell: a labelled `(workload, drive mode,
//!   configuration)` triple.
//! * [`Experiment`] — a figure/table: `grid(scale)` enumerates its
//!   cells deterministically and `assemble(scale, cells)` folds the
//!   results (delivered back **in grid order**) into the figure's
//!   output type.
//! * [`SweepRunner`] — executes a grid on `1..=N` `std::thread`
//!   workers. Each worker owns a deque seeded with a contiguous block
//!   of the grid and *steals* from the tail of a neighbour's deque
//!   when its own runs dry, so the schedule is dynamic, but results
//!   land in indexed slots: the output order — and, because every
//!   simulation is a deterministic function of its spec, the output
//!   *values* — are identical for any thread count.
//!
//! A cell that panics (a config assertion, an internal invariant) is
//! caught on its worker and reported as [`CellError`] in that cell's
//! slot; the rest of the grid still runs.
//!
//! # Incremental sweeps
//!
//! Two optimizations (both on by default) make re-running a sweep much
//! cheaper than its first run without changing a single output byte:
//!
//! * **Result caching** — plain cells (no fault/audit/telemetry
//!   instrumentation) are memoized under their content key
//!   ([`cellcache::cell_key`]) in an in-process map that lives as long
//!   as the runner (so repeated `run_grid` calls on one runner are
//!   warm), and additionally in an on-disk store when
//!   [`SweepRunner::cache_dir`] points somewhere.
//!   [`SweepRunner::cache`]`(false)` disables it.
//! * **Warm-state reuse** — after a cell finishes, its worker keeps the
//!   fully-allocated [`System`] and rebuilds the next cell *in place*
//!   ([`System::reset_for_cell`]), reusing the NoC workspace, packet
//!   arena, routing tables and scratch instead of reallocating them.
//!   [`SweepRunner::warm_reuse`]`(false)` falls back to a fresh
//!   `System` per cell.
//!
//! # Example
//!
//! ```
//! use snoc_core::experiments::{fig7, Scale};
//! use snoc_core::sweep::SweepRunner;
//!
//! let result = SweepRunner::new().threads(2).run(&fig7::Fig7, Scale::Quick);
//! assert!(!result.rows.is_empty());
//! ```

use crate::cellcache::{self, CellCache};
use crate::experiments::Scale;
use crate::metrics::RunMetrics;
use crate::observer::{NullObserver, RunObserver, SweepSummary};
use crate::system::{DriveMode, System};
use snoc_common::config::SystemConfig;
use snoc_noc::{AuditConfig, FaultPlan, NocEnv, TelemetryConfig};
use snoc_workload::mixes::Workload;
use snoc_workload::BenchmarkProfile;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One grid cell: everything needed to build and run a [`System`].
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Cell label shown by observers (e.g. `"MRAM-4TSB-WB/lbm"`).
    pub label: String,
    /// The per-core application assignment.
    pub workload: Workload,
    /// Profile-driven or full-stack simulation.
    pub mode: DriveMode,
    /// The system configuration (scale already applied).
    pub cfg: SystemConfig,
    /// Optional NoC fault-injection campaign for this cell.
    pub faults: Option<FaultPlan>,
    /// Optional NoC invariant auditing for this cell.
    pub audit: Option<AuditConfig>,
    /// Optional NoC telemetry collection for this cell.
    pub telemetry: Option<TelemetryConfig>,
}

impl RunSpec {
    /// A profile-driven cell running `profile` on all cores — the
    /// shape used by almost every figure.
    pub fn homogeneous(
        label: impl Into<String>,
        cfg: SystemConfig,
        profile: &'static BenchmarkProfile,
    ) -> Self {
        let cores = cfg.cores();
        Self {
            label: label.into(),
            workload: Workload {
                name: profile.name.to_string(),
                apps: vec![profile; cores],
            },
            mode: DriveMode::Profile,
            cfg,
            faults: None,
            audit: None,
            telemetry: None,
        }
    }

    /// A cell with an explicit workload and drive mode (mixes, full
    /// stack).
    pub fn mixed(
        label: impl Into<String>,
        cfg: SystemConfig,
        workload: Workload,
        mode: DriveMode,
    ) -> Self {
        Self {
            label: label.into(),
            workload,
            mode,
            cfg,
            faults: None,
            audit: None,
            telemetry: None,
        }
    }

    /// Attaches a fault-injection campaign to this cell.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Switches on NoC invariant auditing for this cell.
    pub fn with_audit(mut self, cfg: AuditConfig) -> Self {
        self.audit = Some(cfg);
        self
    }

    /// Switches on NoC telemetry collection for this cell.
    pub fn with_telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Folds the instrumentation a caller asks for into this spec's
    /// fields: settings already on the spec win, `env` fills whatever
    /// was left unset.
    pub fn resolve_env(mut self, env: &NocEnv) -> Self {
        if self.audit.is_none() {
            self.audit = env.audit;
        }
        if self.telemetry.is_none() {
            self.telemetry = env.telemetry;
        }
        if self.faults.is_none() {
            self.faults = env.faults;
        }
        self
    }
}

/// Why a cell produced no metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// The simulation (or its construction) panicked on the worker.
    Panicked(String),
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Panicked(msg) => write!(f, "cell panicked: {msg}"),
        }
    }
}

impl std::error::Error for CellError {}

/// The outcome of one grid cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Position in the grid (results are returned sorted by this).
    pub index: usize,
    /// The spec's label.
    pub label: String,
    /// Wall-clock spent simulating this cell.
    pub wall: Duration,
    /// Simulated cycles (warm-up + measurement; 0 on failure).
    pub sim_cycles: u64,
    /// Whether the result was served from the cell cache instead of
    /// simulated.
    pub cached: bool,
    /// The metrics, or the reason there are none.
    pub outcome: Result<RunMetrics, CellError>,
}

impl CellResult {
    /// The cell's metrics.
    ///
    /// # Panics
    ///
    /// Re-raises a failed cell's error, labelled. Experiments that can
    /// degrade gracefully should match on [`CellResult::outcome`]
    /// instead.
    pub fn metrics(&self) -> &RunMetrics {
        match &self.outcome {
            Ok(m) => m,
            Err(e) => panic!("cell '{}': {e}", self.label),
        }
    }
}

/// A figure or table expressed as a declarative sweep.
///
/// `grid(scale)` must be deterministic: [`SweepRunner`] guarantees the
/// `Vec<CellResult>` handed to `assemble` is in grid order, so an
/// implementation may re-enumerate the same structure there and zip.
pub trait Experiment {
    /// What `assemble` produces (the figure's result type).
    type Output;

    /// Short name for observers and reports (e.g. `"fig7"`).
    fn name(&self) -> &str;

    /// The cells to simulate, in presentation order.
    fn grid(&self, scale: Scale) -> Vec<RunSpec>;

    /// Folds the per-cell results (grid order) into the output.
    fn assemble(&self, scale: Scale, cells: Vec<CellResult>) -> Self::Output;
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes experiment grids on a `std::thread` worker pool.
///
/// ```
/// use snoc_core::experiments::{table3, Scale};
/// use snoc_core::observer::NullObserver;
/// use snoc_core::sweep::SweepRunner;
///
/// let out = SweepRunner::new()
///     .threads(2)
///     .observer(NullObserver)
///     .run(&table3::Table3, Scale::Quick);
/// assert!(!out.rows.is_empty());
/// ```
pub struct SweepRunner {
    threads: usize,
    observer: Box<dyn RunObserver>,
    cache: bool,
    warm: bool,
    cache_dir: Option<PathBuf>,
    // Lives as long as the runner, so repeated `run_grid` calls on one
    // runner serve repeated cells from memory even without a disk
    // store. `Arc` so several runners (the sweep server builds one per
    // job) can share one cache.
    cell_cache: OnceLock<Arc<CellCache>>,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A silent single-threaded runner (the deterministic baseline).
    /// Result caching and warm-state reuse are on; the on-disk store
    /// is off until [`SweepRunner::cache_dir`] points somewhere. The
    /// runner runs exactly the specs it is handed: instrumentation
    /// comes only from their `faults`/`audit`/`telemetry` fields.
    pub fn new() -> Self {
        Self {
            threads: 1,
            observer: Box::new(NullObserver),
            cache: true,
            warm: true,
            cache_dir: None,
            cell_cache: OnceLock::new(),
        }
    }

    /// Sets the worker count (clamped to ≥ 1; also clamped to the grid
    /// size at run time).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Replaces the observer.
    pub fn observer(mut self, o: impl RunObserver + 'static) -> Self {
        self.observer = Box::new(o);
        self
    }

    /// Switches result caching on or off.
    pub fn cache(mut self, on: bool) -> Self {
        self.cache = on;
        self
    }

    /// Switches warm-state reuse on or off.
    pub fn warm_reuse(mut self, on: bool) -> Self {
        self.warm = on;
        self
    }

    /// Roots the on-disk result store at `dir` (implies nothing unless
    /// result caching is on).
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        // A cache that was already materialized is rooted at the old
        // directory; drop it rather than serve from the wrong store.
        self.cell_cache = OnceLock::new();
        self
    }

    /// Shares a pre-built cell cache with this runner instead of
    /// letting it materialize its own. This is how the sweep server
    /// serves repeat cells across jobs and clients: every per-job
    /// runner is handed the same `Arc`. Overrides any
    /// [`SweepRunner::cache_dir`] already applied (the shared cache
    /// carries its own disk root).
    pub fn shared_cache(mut self, cache: Arc<CellCache>) -> Self {
        self.cell_cache = OnceLock::new();
        let _ = self.cell_cache.set(cache);
        self
    }

    /// Runs the experiment end to end: grid → sweep → assemble.
    pub fn run<E: Experiment>(&self, exp: &E, scale: Scale) -> E::Output {
        let cells = self.run_grid(exp.name(), exp.grid(scale));
        exp.assemble(scale, cells)
    }

    /// Executes a raw grid and returns the results **in grid order**,
    /// one [`CellResult`] per spec, regardless of which worker
    /// finished which cell when.
    pub fn run_grid(&self, name: &str, grid: Vec<RunSpec>) -> Vec<CellResult> {
        let n = grid.len();
        let threads = self.threads.min(n.max(1));
        let observer: &dyn RunObserver = &*self.observer;
        observer.sweep_started(name, n, threads);
        let t0 = Instant::now();

        // Workers claim cells from per-worker stealing deques and
        // deposit results in indexed slots — completion order never
        // leaks into the output.
        let specs: Vec<Mutex<Option<RunSpec>>> =
            grid.into_iter().map(|s| Mutex::new(Some(s))).collect();
        let slots: Vec<Mutex<Option<CellResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let hits = AtomicUsize::new(0);
        let cache: Option<&CellCache> = self.cache.then(|| {
            &**self
                .cell_cache
                .get_or_init(|| Arc::new(CellCache::new(self.cache_dir.clone())))
        });
        let warm_on = self.warm;

        // Each worker is seeded a contiguous block of the grid (good
        // locality for warm reuse: neighbouring cells usually share a
        // topology). A worker pops its own deque from the front; when
        // that runs dry it scans the other deques in ring order and
        // steals from the *back*, taking the work its victim would
        // have reached last.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
            .map(|w| Mutex::new((w * n / threads..(w + 1) * n / threads).collect()))
            .collect();
        let claim = |wid: usize| -> Option<usize> {
            if let Some(i) = queues[wid].lock().unwrap().pop_front() {
                return Some(i);
            }
            (1..threads).find_map(|off| queues[(wid + off) % threads].lock().unwrap().pop_back())
        };

        let work = |wid: usize| {
            // The worker's warm System, carried between its cells.
            let mut warm: Option<System> = None;
            while let Some(i) = claim(wid) {
                let spec = specs[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each cell claimed once");
                observer.cell_started(i, &spec.label);
                let label = spec.label.clone();
                let sim_cycles = spec.cfg.warmup_cycles + spec.cfg.measure_cycles;
                let start = Instant::now();

                // Cache probe. Instrumented cells key to None and are
                // always simulated.
                let key = cache.and_then(|_| cellcache::cell_key(&spec));
                if let (Some(cache), Some(key)) = (cache, key) {
                    let probe = cache.lookup(key);
                    if let Some(note) = &probe.note {
                        observer.cache_note(&label, note);
                    }
                    if let Some(metrics) = probe.metrics {
                        hits.fetch_add(1, Ordering::Relaxed);
                        let result = CellResult {
                            index: i,
                            label,
                            wall: start.elapsed(),
                            sim_cycles,
                            cached: true,
                            outcome: Ok(metrics),
                        };
                        observer.cell_finished(&result);
                        *slots[i].lock().unwrap() = Some(result);
                        continue;
                    }
                }

                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    // Reuse the worker's previous System in place when
                    // allowed; a panic anywhere in here drops the
                    // (possibly half-reset) System with the unwind, so
                    // a poisoned instance is never carried forward.
                    let mut system = match warm.take() {
                        Some(mut s) if warm_on => {
                            s.reset_for_cell(spec.cfg, &spec.workload, spec.mode);
                            s
                        }
                        _ => System::new(spec.cfg, &spec.workload, spec.mode),
                    };
                    if let Some(plan) = spec.faults {
                        system.enable_faults(plan);
                    }
                    if let Some(cfg) = spec.audit {
                        system.enable_audit(cfg);
                    }
                    if let Some(cfg) = spec.telemetry {
                        system.enable_telemetry(cfg);
                    }
                    let metrics = system.run();
                    (metrics, system)
                }))
                .map(|(metrics, system)| {
                    warm = Some(system);
                    metrics
                })
                .map_err(|p| CellError::Panicked(panic_message(p)));
                if let Ok(metrics) = &outcome {
                    if let Some(audit) = &metrics.audit {
                        for sample in &audit.samples {
                            observer.audit_violation(&label, sample);
                        }
                    }
                    if let Some(t) = &metrics.telemetry {
                        observer.telemetry_note(&label, &t.digest());
                    }
                    if let (Some(cache), Some(key)) = (cache, key) {
                        if let Err(note) = cache.store(key, metrics) {
                            observer.cache_note(&label, &note);
                        }
                    }
                }
                let result = CellResult {
                    index: i,
                    label,
                    wall: start.elapsed(),
                    sim_cycles: if outcome.is_ok() { sim_cycles } else { 0 },
                    cached: false,
                    outcome,
                };
                observer.cell_finished(&result);
                *slots[i].lock().unwrap() = Some(result);
            }
        };

        if threads <= 1 {
            work(0);
        } else {
            std::thread::scope(|s| {
                for wid in 0..threads {
                    s.spawn(move || work(wid));
                }
            });
        }

        let results: Vec<CellResult> = slots
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("every cell ran"))
            .collect();
        let summary = SweepSummary {
            name: name.to_string(),
            cells: n,
            failed: results.iter().filter(|r| r.outcome.is_err()).count(),
            threads,
            wall: t0.elapsed(),
            cell_wall: results.iter().map(|r| r.wall).sum(),
            sim_cycles: results.iter().map(|r| r.sim_cycles).sum(),
            cache_hits: hits.load(Ordering::Relaxed),
        };
        observer.sweep_finished(&summary);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use snoc_workload::table3;

    fn tiny(label: &str, app: &str) -> RunSpec {
        let cfg = Scenario::Sram64Tsb
            .config()
            .rebuild()
            .cycles(100, 400)
            .build();
        RunSpec::homogeneous(label, cfg, table3::by_name(app).unwrap())
    }

    #[test]
    fn grid_order_is_preserved() {
        let grid = vec![tiny("a", "tpcc"), tiny("b", "sap"), tiny("c", "lbm")];
        let results = SweepRunner::new().threads(3).run_grid("t", grid);
        let labels: Vec<_> = results.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["a", "b", "c"]);
        assert_eq!(
            results.iter().map(|r| r.index).collect::<Vec<_>>(),
            [0, 1, 2]
        );
    }

    #[test]
    fn empty_grid_is_fine() {
        let results = SweepRunner::new().run_grid("empty", Vec::new());
        assert!(results.is_empty());
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let grid = || vec![tiny("a", "tpcc"), tiny("b", "sap"), tiny("c", "lbm")];
        let serial = SweepRunner::new().threads(1).run_grid("t", grid());
        let parallel = SweepRunner::new().threads(4).run_grid("t", grid());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                format!("{:?}", s.outcome),
                format!("{:?}", p.outcome),
                "cell {} must not depend on the schedule",
                s.label
            );
        }
    }

    #[test]
    fn warm_reuse_matches_fresh_systems() {
        // One worker drives the whole grid through a single reused
        // System, crossing scenario boundaries (different path modes,
        // arbitration policies, write-buffer setups); the metrics must
        // be bit-identical to building a fresh System per cell.
        let grid = || {
            let mut g = vec![tiny("a", "tpcc"), tiny("b", "sap")];
            for sc in [Scenario::SttRam4TsbWb, Scenario::SttRam64Tsb] {
                let cfg = sc.config().rebuild().cycles(100, 400).build();
                g.push(RunSpec::homogeneous(
                    sc.name(),
                    cfg,
                    table3::by_name("lbm").unwrap(),
                ));
            }
            g
        };
        let fresh = SweepRunner::new()
            .cache(false)
            .warm_reuse(false)
            .run_grid("t", grid());
        let warm = SweepRunner::new()
            .cache(false)
            .warm_reuse(true)
            .run_grid("t", grid());
        for (f, w) in fresh.iter().zip(&warm) {
            assert_eq!(
                format!("{:?}", f.outcome),
                format!("{:?}", w.outcome),
                "cell {} must not see the previous cell's state",
                f.label
            );
        }
    }

    #[test]
    fn the_memo_map_outlives_a_single_run_grid_call() {
        // Rerunning a grid on the *same* runner must be served entirely
        // from the in-process map — no disk store involved. (A bench
        // once measured "warm" reruns at cold speed because the map was
        // rebuilt per call.)
        struct Spy(std::sync::Arc<AtomicUsize>);
        impl RunObserver for Spy {
            fn sweep_finished(&self, s: &SweepSummary) {
                self.0.store(s.cache_hits, Ordering::Relaxed);
            }
        }
        let hits = std::sync::Arc::new(AtomicUsize::new(0));
        let runner = SweepRunner::new().observer(Spy(std::sync::Arc::clone(&hits)));
        let grid = || vec![tiny("a", "tpcc"), tiny("b", "sap")];
        let first = runner.run_grid("t", grid());
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        let second = runner.run_grid("t", grid());
        assert_eq!(
            hits.load(Ordering::Relaxed),
            second.len(),
            "a rerun on the same runner must hit the in-process map"
        );
        for (f, s) in first.iter().zip(&second) {
            assert_eq!(format!("{:?}", f.outcome), format!("{:?}", s.outcome));
        }
    }

    #[test]
    fn warm_reuse_recovers_after_a_panicked_cell() {
        // A panic mid-cell drops the (possibly half-reset) System; the
        // worker must fall back to a fresh build for the next cell and
        // still produce the schedule-independent result.
        let mut bad = tiny("bad", "sap");
        bad.cfg.regions = 5; // fails validation -> panic
        let grid = vec![tiny("a", "tpcc"), bad, tiny("c", "lbm")];
        let results = SweepRunner::new()
            .cache(false)
            .warm_reuse(true)
            .run_grid("t", grid);
        assert!(results[0].outcome.is_ok());
        assert!(matches!(results[1].outcome, Err(CellError::Panicked(_))));
        let fresh = SweepRunner::new()
            .cache(false)
            .warm_reuse(false)
            .run_grid("t", vec![tiny("c", "lbm")]);
        assert_eq!(
            format!("{:?}", results[2].outcome),
            format!("{:?}", fresh[0].outcome),
        );
    }

    #[test]
    fn programmatic_audit_and_telemetry_reach_the_metrics() {
        let grid = vec![
            tiny("plain", "tpcc"),
            tiny("instrumented", "tpcc")
                .with_audit(AuditConfig::default())
                .with_telemetry(TelemetryConfig::default()),
        ];
        let results = SweepRunner::new().threads(2).run_grid("t", grid);
        let plain = results[0].metrics();
        assert!(plain.audit.is_none() && plain.telemetry.is_none());
        let m = results[1].metrics();
        let audit = m.audit.as_ref().expect("audit report attached");
        assert!(audit.clean(), "violations: {:?}", audit.samples);
        let telemetry = m.telemetry.as_ref().expect("telemetry attached");
        assert!(telemetry.epochs_sampled > 0);
    }

    #[test]
    fn a_panicking_cell_does_not_kill_the_sweep() {
        let mut bad = tiny("bad", "sap");
        bad.cfg.regions = 5; // fails validation → System::new panics
        let grid = vec![tiny("a", "tpcc"), bad, tiny("c", "lbm")];
        let results = SweepRunner::new().threads(2).run_grid("t", grid);
        assert_eq!(results.len(), 3);
        assert!(results[0].outcome.is_ok());
        assert!(matches!(results[1].outcome, Err(CellError::Panicked(_))));
        assert_eq!(results[1].sim_cycles, 0);
        assert!(results[2].outcome.is_ok());
    }

    #[test]
    #[should_panic(expected = "cell 'bad'")]
    fn metrics_accessor_reraises_with_label() {
        let r = CellResult {
            index: 0,
            label: "bad".into(),
            wall: Duration::ZERO,
            sim_cycles: 0,
            cached: false,
            outcome: Err(CellError::Panicked("boom".into())),
        };
        r.metrics();
    }
}
