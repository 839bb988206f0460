//! Figure 9: weighted speedup and instruction throughput for the
//! multiprogrammed case studies (Case-1, Case-2, and the aggregate of
//! the 32 Case-3 mixes), normalized to SRAM-64TSB.

use crate::experiments::{norm, Scale};
use crate::metrics::weighted_speedup;
use crate::report::Rows;
use crate::scenario::Scenario;
use crate::sweep::{CellResult, Experiment, RunSpec};
use crate::system::{DriveMode, System};
use snoc_workload::mixes::{self, Workload};
use std::collections::HashMap;
use std::fmt;

/// Normalized (weighted speedup, instruction throughput) per scenario.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case label.
    pub name: String,
    /// One (WS, IT) pair per [`Scenario::ALL`] entry, normalized to
    /// the SRAM baseline.
    pub normalized: Vec<(f64, f64)>,
}

/// The figure: Case-1, Case-2, Case-3 aggregate.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// The three panels.
    pub cases: Vec<CaseResult>,
}

/// The case panels at this scale: `(label, workloads)` in presentation
/// order. Deterministic, so grid and assemble agree.
fn cases(scale: Scale) -> Vec<(&'static str, Vec<Workload>)> {
    let cores = 64;
    let all3 = mixes::case3(cores, 0xC0FFEE);
    let subset: Vec<Workload> = match scale {
        Scale::Quick => all3.into_iter().step_by(8).collect(), // 4 mixes
        Scale::Full => all3,
    };
    vec![
        ("Case-1", vec![mixes::case1(cores)]),
        ("Case-2", vec![mixes::case2(cores)]),
        ("Case-3 (aggregate)", subset),
    ]
}

/// The deduplicated "alone" cells: each distinct `(app, scenario)`
/// pair across all case workloads, in first-appearance order. Eq. 2's
/// `IPC_alone` comes from one copy of the app on an otherwise idle
/// machine.
fn alone_keys(scale: Scale) -> Vec<(&'static str, usize)> {
    let mut keys = Vec::new();
    for (_, workloads) in cases(scale) {
        for w in &workloads {
            for sc_idx in 0..Scenario::ALL.len() {
                for p in w.distinct() {
                    if !keys.contains(&(p.name, sc_idx)) {
                        keys.push((p.name, sc_idx));
                    }
                }
            }
        }
    }
    keys
}

/// The case studies as one grid: every shared mix × scenario run,
/// followed by the deduplicated alone runs that anchor Eq. 2/3.
pub struct Fig9;

impl Experiment for Fig9 {
    type Output = Fig9Result;

    fn name(&self) -> &str {
        "fig9"
    }

    fn grid(&self, scale: Scale) -> Vec<RunSpec> {
        let mut grid = Vec::new();
        for (label, workloads) in cases(scale) {
            for (wi, w) in workloads.iter().enumerate() {
                for (sc_idx, sc) in Scenario::ALL.iter().enumerate() {
                    grid.push(RunSpec::mixed(
                        format!("{label}[{wi}]/{}", sc.name()),
                        scale.apply(Scenario::ALL[sc_idx].config()),
                        w.clone(),
                        DriveMode::Profile,
                    ));
                }
            }
        }
        for (app, sc_idx) in alone_keys(scale) {
            grid.push(RunSpec::mixed(
                format!("alone/{app}/{}", Scenario::ALL[sc_idx].name()),
                scale.apply(Scenario::ALL[sc_idx].config()),
                Workload::solo(app, 64).expect("known app"),
                DriveMode::Profile,
            ));
        }
        grid
    }

    fn assemble(&self, scale: Scale, cells: Vec<CellResult>) -> Fig9Result {
        let cases = cases(scale);
        let shared_cells: usize = cases
            .iter()
            .map(|(_, ws)| ws.len() * Scenario::ALL.len())
            .sum();
        let alone: HashMap<(&'static str, usize), f64> = alone_keys(scale)
            .into_iter()
            .zip(&cells[shared_cells..])
            .map(|(key, cell)| (key, cell.metrics().ipc(0)))
            .collect();

        let mut out = Vec::new();
        let mut cursor = 0;
        for (label, workloads) in cases {
            let mut raw = vec![(0.0, 0.0); Scenario::ALL.len()];
            for w in &workloads {
                for (sc_idx, acc) in raw.iter_mut().enumerate() {
                    let m = cells[cursor].metrics();
                    debug_assert_eq!(cells[cursor].index, cursor);
                    cursor += 1;
                    let apps = w.distinct();
                    let shared: Vec<f64> = apps
                        .iter()
                        .map(|p| m.ipc_of_cores(&w.cores_running(p.name)))
                        .collect();
                    let alone_ipcs: Vec<f64> =
                        apps.iter().map(|p| alone[&(p.name, sc_idx)]).collect();
                    acc.0 += weighted_speedup(&shared, &alone_ipcs);
                    acc.1 += m.instruction_throughput();
                }
            }
            let base = raw[0];
            out.push(CaseResult {
                name: label.to_string(),
                normalized: raw
                    .iter()
                    .map(|&(ws, it)| (norm(ws, base.0), norm(it, base.1)))
                    .collect(),
            });
        }
        Fig9Result { cases: out }
    }
}

/// Caches each application's "alone" IPC per scenario (its solo run
/// under the same configuration). Retained for direct measurements
/// outside the sweep (Figure 10's tests and ad-hoc probes).
pub struct AloneCache {
    scale: Scale,
    cache: HashMap<(&'static str, usize), f64>,
}

impl AloneCache {
    /// Creates an empty cache.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            cache: HashMap::new(),
        }
    }

    /// The IPC of one copy of `app` on an otherwise idle machine under
    /// scenario `sc` (Eq. 2's `IPC_alone`).
    pub fn alone_ipc(&mut self, app: &'static str, sc_idx: usize) -> f64 {
        if let Some(&v) = self.cache.get(&(app, sc_idx)) {
            return v;
        }
        let w = Workload::solo(app, 64).expect("known app");
        let cfg = self.scale.apply(Scenario::ALL[sc_idx].config());
        let m = System::new(cfg, &w, DriveMode::Profile).run();
        let v = m.ipc(0);
        self.cache.insert((app, sc_idx), v);
        v
    }
}

/// Raw (WS, IT) for one workload under one scenario (direct, not
/// through the sweep).
pub fn measure(w: &Workload, sc_idx: usize, scale: Scale, alone: &mut AloneCache) -> (f64, f64) {
    let cfg = scale.apply(Scenario::ALL[sc_idx].config());
    let m = System::new(cfg, w, DriveMode::Profile).run();
    let apps = w.distinct();
    let shared: Vec<f64> = apps
        .iter()
        .map(|p| m.ipc_of_cores(&w.cores_running(p.name)))
        .collect();
    let alone_ipcs: Vec<f64> = apps
        .iter()
        .map(|p| alone.alone_ipc(p.name, sc_idx))
        .collect();
    (
        weighted_speedup(&shared, &alone_ipcs),
        m.instruction_throughput(),
    )
}

impl fmt::Display for Fig9Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 9: weighted speedup (WS) and instruction throughput (IT),\nnormalized to SRAM-64TSB"
        )?;
        for c in &self.cases {
            writeln!(f, "--- {} ---", c.name)?;
            write!(f, "{:4}", "")?;
            for sc in Scenario::ALL {
                write!(f, " {:>14}", sc.name())?;
            }
            writeln!(f)?;
            write!(f, "{:4}", "WS")?;
            for (ws, _) in &c.normalized {
                write!(f, " {:>14.3}", ws)?;
            }
            writeln!(f)?;
            write!(f, "{:4}", "IT")?;
            for (_, it) in &c.normalized {
                write!(f, " {:>14.3}", it)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Rows for Fig9Result {
    fn header(&self) -> Vec<String> {
        Scenario::ALL.iter().map(|s| s.name().to_string()).collect()
    }

    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        let mut out = Vec::new();
        for c in &self.cases {
            out.push((
                format!("{}/WS", c.name),
                c.normalized.iter().map(|p| p.0).collect(),
            ));
            out.push((
                format!("{}/IT", c.name),
                c.normalized.iter().map(|p| p.1).collect(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case2_weighted_speedup_is_normalized() {
        let mut alone = AloneCache::new(Scale::Quick);
        let w = mixes::case2(64);
        let (ws, it) = measure(&w, 0, Scale::Quick, &mut alone);
        // Four applications: WS is bounded by 4 (and positive).
        assert!(ws > 0.5 && ws < 6.0, "ws {ws}");
        assert!(it > 0.0);
    }

    #[test]
    fn alone_cache_reuses_runs() {
        let mut alone = AloneCache::new(Scale::Quick);
        let a = alone.alone_ipc("lbm", 0);
        let b = alone.alone_ipc("lbm", 0);
        assert_eq!(a, b);
        assert_eq!(alone.cache.len(), 1);
    }

    #[test]
    fn grid_covers_shared_then_alone_cells() {
        let grid = Fig9.grid(Scale::Quick);
        let shared = 6 * Scenario::ALL.len(); // case1 + case2 + 4 mixes
        assert!(grid.len() > shared, "alone cells follow the shared runs");
        assert!(grid[0].label.starts_with("Case-1"));
        assert!(grid[shared].label.starts_with("alone/"));
        // Alone keys are deduplicated.
        let keys = alone_keys(Scale::Quick);
        let set: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
    }
}
