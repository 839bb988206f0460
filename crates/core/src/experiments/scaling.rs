//! Scaling study: the paper's design points re-run at larger meshes
//! and deeper stacks.
//!
//! The paper evaluates one geometry — an 8x8 mesh per layer, 64 banks,
//! 4 regions. With the geometry generalized, this experiment re-runs a
//! representative scenario subset at three design points:
//!
//! * `8x8-K4-L1` — the paper's CMP (the baseline sanity anchor),
//! * `16x16-K16-L1` — a 256-core / 256-bank CMP with 16 regions,
//! * `16x16-K16-L2` — the same floorplan with two stacked cache dies
//!   (double the L2 capacity, one extra TSV hop per bank access),
//!   after MemPool-3D-style vertical scaling.
//!
//! Reported per (point, scenario): per-core IPC, throughput normalized
//! to the same point's SRAM-64TSB baseline, mean uncore round trip and
//! uncore energy per core. Normalizing within each point keeps the
//! columns comparable across geometries: the interesting question is
//! whether the 4-TSB + bank-aware design *keeps* its win as the mesh
//! and stack grow, not how a 256-core chip compares to a 64-core one.

use crate::experiments::{norm, Scale};
use crate::report::Rows;
use crate::scenario::Scenario;
use crate::sweep::{CellResult, Experiment, RunSpec};
use snoc_workload::table3;
use std::fmt;

/// One mesh / region-count / stack-depth design point.
#[derive(Debug, Clone, Copy)]
pub struct GeomPoint {
    /// Row label (`8x8-K4-L1` style).
    pub name: &'static str,
    /// Mesh width per layer.
    pub width: u8,
    /// Mesh height per layer.
    pub height: u8,
    /// Cache-layer region count.
    pub regions: usize,
    /// Stacked cache dies.
    pub cache_layers: usize,
}

/// The studied design points.
pub const POINTS: [GeomPoint; 3] = [
    GeomPoint {
        name: "8x8-K4-L1",
        width: 8,
        height: 8,
        regions: 4,
        cache_layers: 1,
    },
    GeomPoint {
        name: "16x16-K16-L1",
        width: 16,
        height: 16,
        regions: 16,
        cache_layers: 1,
    },
    GeomPoint {
        name: "16x16-K16-L2",
        width: 16,
        height: 16,
        regions: 16,
        cache_layers: 2,
    },
];

/// The scenario subset: both 64-TSB anchors, the unmanaged 4-TSB
/// network and the paper's recommended WB design.
pub const SCENARIOS: [Scenario; 4] = [
    Scenario::Sram64Tsb,
    Scenario::SttRam64Tsb,
    Scenario::SttRam4Tsb,
    Scenario::SttRam4TsbWb,
];

/// The application list at this scale (one high-traffic app per suite
/// at Full; a single app at Quick keeps the 16x16 debug cells cheap).
pub fn apps(scale: Scale) -> &'static [&'static str] {
    match scale {
        Scale::Quick => &["sap"],
        Scale::Full => &["sap", "sclust", "lbm", "hmmer"],
    }
}

/// One (point, scenario) measurement, averaged over the app list.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Design-point label.
    pub point: &'static str,
    /// Scenario label.
    pub scenario: &'static str,
    /// Mean per-core IPC.
    pub ipc_per_core: f64,
    /// Throughput normalized to the same point's SRAM-64TSB.
    pub normalized: f64,
    /// Mean uncore round-trip latency in cycles.
    pub uncore_latency: f64,
    /// Mean uncore energy per core in nJ.
    pub energy_nj_per_core: f64,
}

/// The study: one row per (design point, scenario).
#[derive(Debug, Clone)]
pub struct ScalingResult {
    /// Rows in `POINTS` x `SCENARIOS` order.
    pub rows: Vec<ScalingRow>,
}

impl ScalingResult {
    /// Rows of one design point.
    pub fn point<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a ScalingRow> + 'a {
        self.rows.iter().filter(move |r| r.point == name)
    }
}

/// The scaling-study experiment.
pub struct Scaling;

impl Experiment for Scaling {
    type Output = ScalingResult;

    fn name(&self) -> &str {
        "scaling"
    }

    fn grid(&self, scale: Scale) -> Vec<RunSpec> {
        let apps = apps(scale);
        POINTS
            .iter()
            .flat_map(|pt| {
                SCENARIOS.iter().flat_map(move |sc| {
                    apps.iter().map(move |name| {
                        let p = table3::by_name(name).expect("known app");
                        let cfg = scale.apply(sc.config_at(
                            pt.width,
                            pt.height,
                            pt.regions,
                            pt.cache_layers,
                        ));
                        RunSpec::homogeneous(format!("{}/{}/{name}", pt.name, sc.name()), cfg, p)
                    })
                })
            })
            .collect()
    }

    fn assemble(&self, scale: Scale, cells: Vec<CellResult>) -> ScalingResult {
        let apps = apps(scale);
        let per_cell = apps.len();
        assert_eq!(
            cells.len(),
            POINTS.len() * SCENARIOS.len() * per_cell,
            "one cell per point x scenario x app"
        );
        let mut rows = Vec::new();
        for (pi, pt) in POINTS.iter().enumerate() {
            let cores = (pt.width as usize) * (pt.height as usize);
            // App-averaged throughput per scenario, for the
            // within-point normalization (SCENARIOS[0] is SRAM-64TSB).
            let avg = |si: usize, f: &dyn Fn(&crate::metrics::RunMetrics) -> f64| -> f64 {
                let base = (pi * SCENARIOS.len() + si) * per_cell;
                let sum: f64 = cells[base..base + per_cell]
                    .iter()
                    .map(|c| f(c.metrics()))
                    .sum();
                sum / per_cell as f64
            };
            let base_tp = avg(0, &|m| m.instruction_throughput());
            for (si, sc) in SCENARIOS.iter().enumerate() {
                let tp = avg(si, &|m| m.instruction_throughput());
                rows.push(ScalingRow {
                    point: pt.name,
                    scenario: sc.name(),
                    ipc_per_core: tp / cores as f64,
                    normalized: norm(tp, base_tp),
                    uncore_latency: avg(si, &|m| m.uncore_latency()),
                    energy_nj_per_core: avg(si, &|m| m.uncore_energy_nj()) / cores as f64,
                });
            }
        }
        ScalingResult { rows }
    }
}

impl fmt::Display for ScalingResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Scaling study: design points at larger meshes and deeper stacks\n(normalized within each point to its SRAM-64TSB baseline)"
        )?;
        writeln!(
            f,
            "{:14} {:>14} {:>10} {:>8} {:>12} {:>14}",
            "point", "scenario", "ipc/core", "norm", "uncore-lat", "energy/core-nJ"
        )?;
        for pt in &POINTS {
            for r in self.point(pt.name) {
                writeln!(
                    f,
                    "{:14} {:>14} {:>10.4} {:>8.3} {:>12.2} {:>14.2}",
                    r.point,
                    r.scenario,
                    r.ipc_per_core,
                    r.normalized,
                    r.uncore_latency,
                    r.energy_nj_per_core
                )?;
            }
        }
        Ok(())
    }
}

impl Rows for ScalingResult {
    fn header(&self) -> Vec<String> {
        [
            "ipc_per_core",
            "normalized",
            "uncore_latency",
            "energy_nj_per_core",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        self.rows
            .iter()
            .map(|r| {
                (
                    format!("{}/{}", r.point, r.scenario),
                    vec![
                        r.ipc_per_core,
                        r.normalized,
                        r.uncore_latency,
                        r.energy_nj_per_core,
                    ],
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_point_and_scenario() {
        let g = Scaling.grid(Scale::Quick);
        assert_eq!(g.len(), POINTS.len() * SCENARIOS.len());
        assert!(g[0].label.starts_with("8x8-K4-L1/SRAM-64TSB"));
        let last = &g[g.len() - 1];
        assert!(last.label.starts_with("16x16-K16-L2/MRAM-4TSB-WB"));
        assert_eq!(last.cfg.cores(), 256);
        assert_eq!(last.cfg.regions, 16);
        assert_eq!(last.cfg.mem.cache_layers, 2);
        assert_eq!(last.cfg.geometry().tsb_nodes().len(), 16);
    }
}
