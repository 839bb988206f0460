//! Experiment definitions regenerating every table and figure of the
//! paper's evaluation section (see `DESIGN.md` for the index).
//!
//! Each module defines one [`Experiment`] — a declarative grid of
//! simulation cells plus an `assemble` step that folds the per-cell
//! [`RunMetrics`](crate::metrics::RunMetrics) into the figure's result
//! type. [`REGISTRY`] names every one of them; `snoc repro <name>` and
//! the sweep server look experiments up there.
//!
//! ```no_run
//! use snoc_core::experiments::{fig7, Scale};
//! use snoc_core::sweep::SweepRunner;
//!
//! let full = SweepRunner::new().threads(8).run(&fig7::Fig7, Scale::Full);
//! # let _ = full;
//! ```
//!
//! Result types implement [`std::fmt::Display`] (the paper's
//! rows/series as text) and [`Rows`] (the same numbers as labelled
//! series for CSV dumps). [`Scale`] trades cycles for fidelity so one
//! experiment serves both the quick smoke/bench paths and the full
//! reproductions. Results are identical for any worker count: cells
//! are deterministic functions of their spec and come back in grid
//! order.

pub mod ablations;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod scaling;
pub mod table2;
pub mod table3;

use crate::report::{Rendered, Rows};
use crate::sweep::{Experiment, RunSpec, SweepRunner};
use snoc_common::config::SystemConfig;
use std::fmt::Display;

/// A checked-in sweep experiment, under the name `snoc repro` and the
/// sweep server accept.
pub struct Registered {
    /// The experiment's name (its [`Experiment::name`]).
    pub name: &'static str,
    /// The experiment's grid at a scale.
    pub grid: fn(Scale) -> Vec<RunSpec>,
    /// Runs a grid — the experiment's own, with any instrumentation
    /// the caller folded in — and renders the assembled result.
    pub run: fn(&SweepRunner, Scale, Vec<RunSpec>) -> Rendered,
}

fn run_and_render<E: Experiment>(
    exp: &E,
    runner: &SweepRunner,
    scale: Scale,
    grid: Vec<RunSpec>,
) -> Rendered
where
    E::Output: Rows + Display,
{
    Rendered::of(&exp.assemble(scale, runner.run_grid(exp.name(), grid)))
}

macro_rules! registry {
    ($($name:literal => $exp:expr,)*) => {
        [$(Registered {
            name: $name,
            grid: |scale| $exp.grid(scale),
            run: |runner, scale, grid| run_and_render(&$exp, runner, scale, grid),
        },)*]
    };
}

/// Every checked-in sweep experiment, one line each.
pub static REGISTRY: [Registered; 13] = registry![
    "table2" => table2::Table2Exp,
    "table3" => table3::Table3,
    "fig3" => fig3::Fig3,
    "fig6" => fig6::Fig6,
    "fig7" => fig7::Fig7,
    "fig8" => fig8::Fig8,
    "fig9" => fig9::Fig9,
    "fig10" => fig10::Fig10,
    "fig12" => fig12::Fig12,
    "fig13" => fig13::Fig13,
    "fig14" => fig14::Fig14,
    "ablations" => ablations::Ablations,
    "scaling" => scaling::Scaling,
];

/// The registered experiment called `name`.
pub fn by_name(name: &str) -> Option<&'static Registered> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// Runs `exp` at quick scale on every core, for the experiments' own
/// tests.
#[cfg(test)]
pub(crate) fn run_quick<E: Experiment>(exp: &E) -> E::Output {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    SweepRunner::new().threads(threads).run(exp, Scale::Quick)
}

/// How long each simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few thousand cycles per run: for smoke tests and benches.
    Quick,
    /// The full evaluation lengths of the checked-in `results/`.
    Full,
}

impl Scale {
    /// `(warmup, measure)` cycles.
    pub fn cycles(self) -> (u64, u64) {
        match self {
            Scale::Quick => (500, 3_000),
            Scale::Full => (2_000, 16_000),
        }
    }

    /// Applies the scale to a configuration.
    pub fn apply(self, cfg: SystemConfig) -> SystemConfig {
        let (warmup, measure) = self.cycles();
        cfg.rebuild().cycles(warmup, measure).build()
    }

    /// Caps an application list for quick runs.
    pub fn take_apps<'a>(self, apps: &'a [&'a str]) -> &'a [&'a str] {
        match self {
            Scale::Quick => &apps[..apps.len().min(3)],
            Scale::Full => apps,
        }
    }
}

/// Renders a normalized value the way the paper's bar charts read.
pub(crate) fn norm(v: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        v / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(Scale::Quick.cycles().1 < Scale::Full.cycles().1);
        let cfg = Scale::Quick.apply(SystemConfig::default());
        assert_eq!(cfg.measure_cycles, 3_000);
    }

    #[test]
    fn quick_caps_app_lists() {
        let apps = ["a", "b", "c", "d", "e"];
        assert_eq!(Scale::Quick.take_apps(&apps).len(), 3);
        assert_eq!(Scale::Full.take_apps(&apps).len(), 5);
    }

    #[test]
    fn registry_names_are_the_experiment_names() {
        let names: Vec<_> = REGISTRY.iter().map(|e| e.name).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} registered twice");
            assert!(std::ptr::eq(by_name(name).unwrap(), &REGISTRY[i]));
        }
        assert!(by_name("fig99").is_none());
    }

    #[test]
    fn norm_guards_zero() {
        assert_eq!(norm(1.0, 0.0), 0.0);
        assert_eq!(norm(3.0, 2.0), 1.5);
    }
}
