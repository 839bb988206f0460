//! Figure 6: system throughput of every benchmark under the six design
//! scenarios, normalized to SRAM-64TSB — IPC for the multi-threaded
//! suites (reported for the slowest thread, as in the paper),
//! instruction throughput for the multi-programmed SPEC suite.

use crate::experiments::{norm, Scale};
use crate::report::Rows;
use crate::scenario::Scenario;
use crate::sweep::{CellResult, Experiment, RunSpec};
use snoc_workload::table3::{self, figures};
use snoc_workload::Suite;
use std::fmt;

/// Per-application, per-scenario measurements.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Application name.
    pub app: &'static str,
    /// Suite.
    pub suite: Suite,
    /// One entry per [`Scenario::ALL`]: instruction throughput.
    pub throughput: Vec<f64>,
    /// One entry per scenario: slowest-thread IPC.
    pub slowest_ipc: Vec<f64>,
    /// One entry per scenario: uncore energy in nJ.
    pub energy_nj: Vec<f64>,
    /// One entry per scenario: mean uncore round trip (cycles).
    pub uncore_latency: Vec<f64>,
}

impl SweepRow {
    /// The paper's Figure 6 metric for this row, per scenario:
    /// slowest-thread IPC for multi-threaded suites, instruction
    /// throughput for SPEC.
    pub fn fig6_metric(&self) -> &[f64] {
        if self.suite == Suite::Spec {
            &self.throughput
        } else {
            &self.slowest_ipc
        }
    }
}

/// The app × [`Scenario::ALL`] grid shared by Figures 6 and 8: row
/// major (all six scenarios of the first app, then the next app).
pub(crate) fn scenario_grid(scale: Scale, apps: &[&str]) -> Vec<RunSpec> {
    apps.iter()
        .flat_map(|name| {
            let p = table3::by_name(name).expect("known app");
            Scenario::ALL.iter().map(move |sc| {
                RunSpec::homogeneous(format!("{}/{name}", sc.name()), scale.apply(sc.config()), p)
            })
        })
        .collect()
}

/// Folds a [`scenario_grid`] result set (grid order) back into
/// per-application rows.
pub(crate) fn rows_from_cells(apps: &[&str], cells: &[CellResult]) -> Vec<SweepRow> {
    let n = Scenario::ALL.len();
    assert_eq!(cells.len(), apps.len() * n, "one cell per app x scenario");
    apps.iter()
        .enumerate()
        .map(|(a, name)| {
            let p = table3::by_name(name).expect("known app");
            let ms: Vec<_> = (0..n).map(|s| cells[a * n + s].metrics()).collect();
            SweepRow {
                app: p.name,
                suite: p.suite,
                throughput: ms.iter().map(|m| m.instruction_throughput()).collect(),
                slowest_ipc: ms.iter().map(|m| m.slowest_ipc()).collect(),
                energy_nj: ms.iter().map(|m| m.uncore_energy_nj()).collect(),
                uncore_latency: ms.iter().map(|m| m.uncore_latency()).collect(),
            }
        })
        .collect()
}

/// The Figure 6 application list at this scale.
pub(crate) fn fig6_apps(scale: Scale) -> Vec<&'static str> {
    let mut apps: Vec<&str> = Vec::new();
    apps.extend(scale.take_apps(figures::FIG6_SERVER));
    apps.extend(scale.take_apps(figures::FIG6_PARSEC));
    apps.extend(scale.take_apps(figures::FIG6_SPEC));
    apps
}

/// The figure: three suite panels.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// All measured rows.
    pub rows: Vec<SweepRow>,
}

impl Fig6Result {
    /// Rows of one suite.
    pub fn suite(&self, s: Suite) -> impl Iterator<Item = &SweepRow> {
        self.rows.iter().filter(move |r| r.suite == s)
    }

    /// Suite-average normalized metric per scenario.
    pub fn suite_average(&self, s: Suite) -> Vec<f64> {
        let rows: Vec<&SweepRow> = self.suite(s).collect();
        let mut avg = vec![0.0; Scenario::ALL.len()];
        for r in &rows {
            let m = r.fig6_metric();
            for (i, v) in m.iter().enumerate() {
                avg[i] += norm(*v, m[0]);
            }
        }
        for v in &mut avg {
            *v /= rows.len().max(1) as f64;
        }
        avg
    }
}

/// The Figure 6 panels (server + PARSEC + SPEC subsets shown in the
/// paper's plot; at full scale the averages cover them all).
pub struct Fig6;

impl Experiment for Fig6 {
    type Output = Fig6Result;

    fn name(&self) -> &str {
        "fig6"
    }

    fn grid(&self, scale: Scale) -> Vec<RunSpec> {
        scenario_grid(scale, &fig6_apps(scale))
    }

    fn assemble(&self, scale: Scale, cells: Vec<CellResult>) -> Fig6Result {
        Fig6Result {
            rows: rows_from_cells(&fig6_apps(scale), &cells),
        }
    }
}

impl fmt::Display for Fig6Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6: throughput normalized to SRAM-64TSB (IPC of slowest thread for\nserver/PARSEC; instruction throughput for SPEC)"
        )?;
        write!(f, "{:12}", "benchmark")?;
        for sc in Scenario::ALL {
            write!(f, " {:>14}", sc.name())?;
        }
        writeln!(f)?;
        for suite in [Suite::Server, Suite::Parsec, Suite::Spec] {
            writeln!(f, "--- {suite:?} ---")?;
            for r in self.suite(suite) {
                write!(f, "{:12}", r.app)?;
                let m = r.fig6_metric();
                for v in m {
                    write!(f, " {:>14.3}", norm(*v, m[0]))?;
                }
                writeln!(f)?;
            }
            write!(f, "{:12}", "Avg.")?;
            for v in self.suite_average(suite) {
                write!(f, " {:>14.3}", v)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Rows for Fig6Result {
    fn header(&self) -> Vec<String> {
        Scenario::ALL.iter().map(|s| s.name().to_string()).collect()
    }

    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        let mut out = Vec::new();
        for suite in [Suite::Server, Suite::Parsec, Suite::Spec] {
            let mut any = false;
            for r in self.suite(suite) {
                any = true;
                let m = r.fig6_metric();
                out.push((
                    r.app.to_string(),
                    m.iter().map(|v| norm(*v, m[0])).collect(),
                ));
            }
            if any {
                out.push((format!("Avg. {suite:?}"), self.suite_average(suite)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_quick;

    #[test]
    fn quick_sweep_covers_scenarios() {
        let r = run_quick(&Fig6);
        assert!(!r.rows.is_empty());
        for row in &r.rows {
            assert_eq!(row.throughput.len(), 6);
            assert!(row.throughput.iter().all(|&t| t > 0.0), "{}", row.app);
        }
        let s = r.to_string();
        assert!(s.contains("SRAM-64TSB"));
        assert_eq!(r.rows().first().unwrap().1.len(), 6);
    }
}
