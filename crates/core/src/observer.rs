//! Observers for [`SweepRunner`](crate::sweep::SweepRunner) progress.
//!
//! The runner reports its lifecycle through the [`RunObserver`] trait:
//! sweep start, each cell's start and finish (with wall-clock and
//! simulated-cycle throughput), and a final [`SweepSummary`]. Two
//! implementations ship with the crate:
//!
//! * [`NullObserver`] — silent; the default for library use and tests.
//! * [`ProgressObserver`] — human-readable `[ 3/12] fig7/lbm ... 1.2 s
//!   (2.5 Mcyc/s)` lines on stderr; what `snoc repro` uses.
//!
//! Observers are shared across worker threads, so implementations must
//! be `Sync`; the provided ones serialize output per event through the
//! platform's line-buffered streams.

use crate::sweep::CellResult;
use std::time::Duration;

/// Timing roll-up handed to [`RunObserver::sweep_finished`].
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Experiment name (e.g. `"fig7"`).
    pub name: String,
    /// Grid size.
    pub cells: usize,
    /// Cells whose simulation panicked.
    pub failed: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall-clock for the whole sweep.
    pub wall: Duration,
    /// Sum of per-cell wall-clock (≥ `wall` when threads > 1).
    pub cell_wall: Duration,
    /// Total simulated cycles across all cells.
    pub sim_cycles: u64,
    /// Cells served from the result cache instead of simulated.
    pub cache_hits: usize,
}

impl SweepSummary {
    /// Aggregate simulation speed in simulated cycles per wall-clock
    /// second (0 for an instant sweep).
    pub fn cycles_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.sim_cycles as f64 / secs
        } else {
            0.0
        }
    }
}

/// Receives [`SweepRunner`](crate::sweep::SweepRunner) lifecycle
/// events. All methods default to no-ops, so implementations override
/// only what they need.
pub trait RunObserver: Sync {
    /// The sweep is about to execute `cells` cells on `threads`
    /// workers.
    fn sweep_started(&self, name: &str, cells: usize, threads: usize) {
        let _ = (name, cells, threads);
    }

    /// A worker picked up cell `index` (grid order) labelled `label`.
    fn cell_started(&self, index: usize, label: &str) {
        let _ = (index, label);
    }

    /// A cell finished (successfully or not).
    fn cell_finished(&self, result: &CellResult) {
        let _ = result;
    }

    /// A cell's run reported a NoC invariant violation (the cell was
    /// audited and the auditor found one); called once per
    /// retained violation sample before [`RunObserver::cell_finished`].
    fn audit_violation(&self, label: &str, message: &str) {
        let _ = (label, message);
    }

    /// A cell's run carried telemetry;
    /// `note` is the collector's one-line digest. Called before
    /// [`RunObserver::cell_finished`].
    fn telemetry_note(&self, label: &str, note: &str) {
        let _ = (label, note);
    }

    /// The result cache has something worth surfacing for this cell —
    /// typically that an on-disk entry was corrupt (and is being
    /// recomputed) or could not be written. Never raised for ordinary
    /// hits and misses.
    fn cache_note(&self, label: &str, note: &str) {
        let _ = (label, note);
    }

    /// The whole grid is done.
    fn sweep_finished(&self, summary: &SweepSummary) {
        let _ = summary;
    }
}

/// Silent observer (the runner's default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl RunObserver for NullObserver {}

fn fmt_rate(cycles: u64, wall: Duration) -> String {
    let secs = wall.as_secs_f64();
    if secs <= 0.0 || cycles == 0 {
        return "-".into();
    }
    let cps = cycles as f64 / secs;
    if cps >= 1e6 {
        format!("{:.1} Mcyc/s", cps / 1e6)
    } else {
        format!("{:.0} kcyc/s", cps / 1e3)
    }
}

/// Human-readable progress on stderr. Learns the grid size from
/// [`RunObserver::sweep_started`], so a fresh instance can be handed
/// to the runner before any grid exists.
#[derive(Debug, Default)]
pub struct ProgressObserver {
    total: std::sync::atomic::AtomicUsize,
    done: std::sync::atomic::AtomicUsize,
}

impl ProgressObserver {
    /// A fresh observer (counters at zero).
    pub fn new() -> Self {
        Self::default()
    }
}

impl RunObserver for ProgressObserver {
    fn sweep_started(&self, name: &str, cells: usize, threads: usize) {
        use std::sync::atomic::Ordering;
        self.total.store(cells, Ordering::Relaxed);
        self.done.store(0, Ordering::Relaxed);
        eprintln!("{name}: {cells} cells on {threads} thread(s)");
    }

    fn cell_finished(&self, result: &CellResult) {
        use std::sync::atomic::Ordering;
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let total = self.total.load(Ordering::Relaxed).max(done);
        let width = total.to_string().len();
        let status = match &result.outcome {
            Ok(_) => format!(
                "{:.2} s ({})",
                result.wall.as_secs_f64(),
                fmt_rate(result.sim_cycles, result.wall)
            ),
            Err(e) => format!("FAILED: {e}"),
        };
        eprintln!("[{done:>width$}/{total}] {:32} {status}", result.label);
    }

    fn audit_violation(&self, label: &str, message: &str) {
        eprintln!("AUDIT {label}: {message}");
    }

    fn telemetry_note(&self, label: &str, note: &str) {
        eprintln!("TELEMETRY {label}: {note}");
    }

    fn cache_note(&self, label: &str, note: &str) {
        eprintln!("CACHE {label}: {note}");
    }

    fn sweep_finished(&self, s: &SweepSummary) {
        eprintln!(
            "{}: {} cells in {:.2} s ({}, {} failed, {} cached)",
            s.name,
            s.cells,
            s.wall.as_secs_f64(),
            fmt_rate(s.sim_cycles, s.wall),
            s.failed,
            s.cache_hits
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_rates() {
        let s = SweepSummary {
            name: "t".into(),
            cells: 2,
            failed: 0,
            threads: 1,
            wall: Duration::from_secs(2),
            cell_wall: Duration::from_secs(2),
            sim_cycles: 4_000_000,
            cache_hits: 0,
        };
        assert!((s.cycles_per_second() - 2_000_000.0).abs() < 1.0);
        assert_eq!(fmt_rate(4_000_000, Duration::from_secs(2)), "2.0 Mcyc/s");
        assert_eq!(fmt_rate(10_000, Duration::from_secs(1)), "10 kcyc/s");
        assert_eq!(fmt_rate(0, Duration::from_secs(1)), "-");
    }

    #[test]
    fn null_observer_accepts_all_events() {
        let o = NullObserver;
        o.sweep_started("x", 1, 1);
        o.cell_started(0, "c");
        o.sweep_finished(&SweepSummary {
            name: "x".into(),
            cells: 0,
            failed: 0,
            threads: 1,
            wall: Duration::ZERO,
            cell_wall: Duration::ZERO,
            sim_cycles: 0,
            cache_hits: 0,
        });
    }
}
