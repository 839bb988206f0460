//! The five benchmark workloads: fixed grids of simulation cells, each
//! chosen to load a different layer of the simulator.

use snoc_core::experiments::{fig6, Scale};
use snoc_core::scenario::Scenario;
use snoc_core::sweep::{Experiment, RunSpec};
use snoc_workload::table3;

/// The seed every checked-in `results/` file was produced with.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// Scale of the timed grid.
    scale: Scale,
    /// Whether the grid runs on `min(2, nproc)` workers instead of one.
    parallel: bool,
    grid: fn(Scale) -> Vec<RunSpec>,
}

/// Every workload, in the order `--workload all` starts from. Why each
/// exists is recorded in `BENCHMARK.json` and the README.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fig6-server",
        scale: Scale::Full,
        parallel: false,
        grid: |s| scenario_grid(s, &["sap", "sjbb", "tpcc", "sjas"]),
    },
    Workload {
        name: "spec-read",
        scale: Scale::Full,
        parallel: false,
        grid: |s| scenario_grid(s, &["mcf", "milc", "gems", "xalan"]),
    },
    Workload {
        name: "core-bound",
        scale: Scale::Full,
        parallel: false,
        grid: |s| scenario_grid(s, &["calculix", "wrf", "sjeng", "dealII"]),
    },
    Workload {
        name: "mesh16",
        scale: Scale::Full,
        parallel: false,
        grid: mesh16_grid,
    },
    Workload {
        name: "fig6-quick-par",
        scale: Scale::Quick,
        parallel: true,
        grid: |s| fig6::Fig6.grid(s),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The fig6 app x [`Scenario::ALL`] grid for `apps`, labelled and
/// ordered as the fig6 experiment labels and orders it.
fn scenario_grid(scale: Scale, apps: &[&str]) -> Vec<RunSpec> {
    apps.iter()
        .flat_map(|name| {
            let p = table3::by_name(name).expect("known app");
            Scenario::ALL.iter().map(move |sc| {
                RunSpec::homogeneous(format!("{}/{name}", sc.name()), scale.apply(sc.config()), p)
            })
        })
        .collect()
}

fn mesh16_grid(scale: Scale) -> Vec<RunSpec> {
    let sc = Scenario::SttRam4TsbWb;
    [1, 2]
        .into_iter()
        .flat_map(|layers| {
            ["sap", "lbm"].into_iter().map(move |name| {
                let p = table3::by_name(name).expect("known app");
                let cfg = scale.apply(sc.config_at(16, 16, 16, layers));
                RunSpec::homogeneous(format!("16x16-K16-L{layers}/{}/{name}", sc.name()), cfg, p)
            })
        })
        .collect()
}

impl Workload {
    /// The timed grid with every cell's master seed set to `seed`.
    pub fn cells(&self, seed: u64) -> Vec<RunSpec> {
        let mut grid = (self.grid)(self.scale);
        for spec in &mut grid {
            spec.cfg.seed = seed;
        }
        grid
    }

    /// The correctness canary: the grid's last cell (the bank-aware WB
    /// design in every grid) at Quick scale and the default seed,
    /// checked on every run whatever `--seed` is.
    pub fn canary(&self) -> RunSpec {
        (self.grid)(Scale::Quick)
            .pop()
            .expect("every grid has cells")
    }

    /// Worker threads the timed grid runs on.
    pub fn workers(&self) -> usize {
        if self.parallel {
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(2)
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_documented_sizes() {
        let sizes: Vec<usize> = WORKLOADS
            .iter()
            .map(|w| w.cells(DEFAULT_SEED).len())
            .collect();
        assert_eq!(sizes, [24, 24, 24, 4, 54]);
    }

    #[test]
    fn labels_are_unique_within_a_workload() {
        for w in &WORKLOADS {
            let cells = w.cells(1);
            let mut labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), cells.len(), "{}", w.name);
            assert!(cells.iter().all(|c| c.cfg.seed == 1));
        }
    }

    #[test]
    fn mesh16_is_256_cores_at_one_and_two_layers() {
        let cells = by_name("mesh16").unwrap().cells(DEFAULT_SEED);
        assert!(cells
            .iter()
            .all(|c| c.cfg.cores() == 256 && c.cfg.regions == 16));
        assert_eq!(cells[0].cfg.mem.cache_layers, 1);
        assert_eq!(cells[3].cfg.mem.cache_layers, 2);
        assert_eq!(cells[3].label, "16x16-K16-L2/MRAM-4TSB-WB/lbm");
    }

    #[test]
    fn the_canary_ignores_the_seed_and_runs_quick() {
        let c = by_name("fig6-server").unwrap().canary();
        assert_eq!(c.cfg.seed, DEFAULT_SEED);
        assert_eq!(
            (c.cfg.warmup_cycles, c.cfg.measure_cycles),
            Scale::Quick.cycles()
        );
        assert_eq!(c.label, "MRAM-4TSB-WB/sjas");
    }
}
