//! Figure 10: maximum slowdown of each application in the Case-2 mix
//! under MRAM-64TSB vs MRAM-4TSB-WB — the fairness result: the WB
//! scheme keeps bursty write applications from starving the
//! read-intensive ones.

use crate::experiments::Scale;
use crate::report::Rows;
use crate::scenario::Scenario;
use crate::sweep::{CellResult, Experiment, RunSpec};
use crate::system::DriveMode;
use snoc_workload::mixes::{self, Workload};
use std::fmt;

/// The two scenarios compared, as indices into [`Scenario::ALL`].
pub const FIG10_SCENARIOS: [usize; 2] = [1, 5]; // MRAM-64TSB, MRAM-4TSB-WB

/// Per-application maximum slowdown under both scenarios.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// Application names (lbm, hmmer, bzip2, libqntm).
    pub apps: Vec<&'static str>,
    /// `slowdown[s][a]` = slowdown of app `a` under scenario
    /// `FIG10_SCENARIOS[s]`.
    pub slowdown: [Vec<f64>; 2],
}

impl Fig10Result {
    /// The worst (maximum) slowdown per scenario.
    pub fn max_slowdown(&self, s: usize) -> f64 {
        self.slowdown[s].iter().fold(0.0, |a, &b| a.max(b))
    }
}

fn case2_apps() -> Vec<&'static str> {
    mixes::case2(64).distinct().iter().map(|p| p.name).collect()
}

/// The fairness measurement on the Case-2 mix: one shared cell per
/// compared scenario, then each app's alone cell per scenario.
pub struct Fig10;

impl Experiment for Fig10 {
    type Output = Fig10Result;

    fn name(&self) -> &str {
        "fig10"
    }

    fn grid(&self, scale: Scale) -> Vec<RunSpec> {
        let w = mixes::case2(64);
        let mut grid: Vec<RunSpec> = FIG10_SCENARIOS
            .iter()
            .map(|&sc_idx| {
                RunSpec::mixed(
                    format!("case2/{}", Scenario::ALL[sc_idx].name()),
                    scale.apply(Scenario::ALL[sc_idx].config()),
                    w.clone(),
                    DriveMode::Profile,
                )
            })
            .collect();
        for &sc_idx in &FIG10_SCENARIOS {
            for app in case2_apps() {
                grid.push(RunSpec::mixed(
                    format!("alone/{app}/{}", Scenario::ALL[sc_idx].name()),
                    scale.apply(Scenario::ALL[sc_idx].config()),
                    Workload::solo(app, 64).expect("known app"),
                    DriveMode::Profile,
                ));
            }
        }
        grid
    }

    fn assemble(&self, _scale: Scale, cells: Vec<CellResult>) -> Fig10Result {
        let w = mixes::case2(64);
        let apps = case2_apps();
        let mut slowdown: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        let mut alone = cells[FIG10_SCENARIOS.len()..].iter();
        for (si, _) in FIG10_SCENARIOS.iter().enumerate() {
            let m = cells[si].metrics();
            for app in &apps {
                let shared = m.ipc_of_cores(&w.cores_running(app));
                let alone_ipc = alone
                    .next()
                    .expect("one alone cell per app")
                    .metrics()
                    .ipc(0);
                slowdown[si].push(if shared > 0.0 {
                    alone_ipc / shared
                } else {
                    f64::INFINITY
                });
            }
        }
        Fig10Result { apps, slowdown }
    }
}

impl fmt::Display for Fig10Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 10: per-application slowdown in Case-2 (lower is fairer)"
        )?;
        write!(f, "{:10}", "app")?;
        for &i in &FIG10_SCENARIOS {
            write!(f, " {:>14}", Scenario::ALL[i].name())?;
        }
        writeln!(f)?;
        for (a, app) in self.apps.iter().enumerate() {
            writeln!(
                f,
                "{:10} {:>14.2} {:>14.2}",
                app, self.slowdown[0][a], self.slowdown[1][a]
            )?;
        }
        writeln!(
            f,
            "max slowdown: {:.2} -> {:.2}",
            self.max_slowdown(0),
            self.max_slowdown(1)
        )
    }
}

impl Rows for Fig10Result {
    fn header(&self) -> Vec<String> {
        FIG10_SCENARIOS
            .iter()
            .map(|&i| Scenario::ALL[i].name().to_string())
            .collect()
    }

    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        let mut out: Vec<(String, Vec<f64>)> = self
            .apps
            .iter()
            .enumerate()
            .map(|(a, app)| {
                (
                    app.to_string(),
                    vec![self.slowdown[0][a], self.slowdown[1][a]],
                )
            })
            .collect();
        out.push((
            "max".into(),
            vec![self.max_slowdown(0), self.max_slowdown(1)],
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_quick;

    #[test]
    fn slowdowns_are_finite_and_positive() {
        let r = run_quick(&Fig10);
        assert_eq!(r.apps.len(), 4);
        for s in &r.slowdown {
            for &v in s {
                assert!(v.is_finite() && v > 0.0, "slowdown {v}");
            }
        }
        assert!(r.max_slowdown(0) >= 1.0 || r.max_slowdown(1) >= 0.5);
        assert_eq!(r.rows().last().unwrap().0, "max");
    }
}
