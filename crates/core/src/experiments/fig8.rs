//! Figure 8: uncore (interconnect + cache) energy normalized to the
//! SRAM baseline. The plot compares SRAM-64TSB, MRAM-64TSB and the
//! three proposed schemes.

use crate::experiments::{fig6, norm, Scale};
use crate::report::Rows;
use crate::scenario::Scenario;
use crate::sweep::{CellResult, Experiment, RunSpec};
use snoc_workload::Suite;
use std::fmt;

/// The scenarios shown in Figure 8, as indices into [`Scenario::ALL`].
pub const FIG8_SCENARIOS: [usize; 5] = [0, 1, 3, 4, 5];

/// One application's normalized energy series.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Application name.
    pub app: &'static str,
    /// Suite.
    pub suite: Suite,
    /// Normalized energy per Figure 8 scenario.
    pub normalized: Vec<f64>,
}

/// The figure.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Per-app rows.
    pub rows: Vec<Fig8Row>,
}

impl Fig8Result {
    /// Mean normalized energy per scenario across all rows.
    pub fn average(&self) -> Vec<f64> {
        let mut avg = vec![0.0; FIG8_SCENARIOS.len()];
        for r in &self.rows {
            for (i, v) in r.normalized.iter().enumerate() {
                avg[i] += v;
            }
        }
        for v in &mut avg {
            *v /= self.rows.len().max(1) as f64;
        }
        avg
    }
}

/// The energy comparison over the Figure 6 application set (same grid
/// as [`fig6::Fig6`]; the energy series of each run feeds this
/// figure).
pub struct Fig8;

impl Experiment for Fig8 {
    type Output = Fig8Result;

    fn name(&self) -> &str {
        "fig8"
    }

    fn grid(&self, scale: Scale) -> Vec<RunSpec> {
        fig6::scenario_grid(scale, &fig6::fig6_apps(scale))
    }

    fn assemble(&self, scale: Scale, cells: Vec<CellResult>) -> Fig8Result {
        let rows = fig6::rows_from_cells(&fig6::fig6_apps(scale), &cells)
            .into_iter()
            .map(|r| {
                let base = r.energy_nj[0];
                Fig8Row {
                    app: r.app,
                    suite: r.suite,
                    normalized: FIG8_SCENARIOS
                        .iter()
                        .map(|&i| norm(r.energy_nj[i], base))
                        .collect(),
                }
            })
            .collect();
        Fig8Result { rows }
    }
}

impl fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 8: uncore energy normalized to SRAM-64TSB")?;
        write!(f, "{:12}", "benchmark")?;
        for &i in &FIG8_SCENARIOS {
            write!(f, " {:>14}", Scenario::ALL[i].name())?;
        }
        writeln!(f)?;
        for r in &self.rows {
            write!(f, "{:12}", r.app)?;
            for v in &r.normalized {
                write!(f, " {:>14.3}", v)?;
            }
            writeln!(f)?;
        }
        write!(f, "{:12}", "Avg.")?;
        for v in self.average() {
            write!(f, " {:>14.3}", v)?;
        }
        writeln!(f)?;
        let wb = *self.average().last().unwrap_or(&1.0);
        writeln!(
            f,
            "average saving with MRAM-4TSB-WB: {:.0}% (paper: ~54%)",
            (1.0 - wb) * 100.0
        )
    }
}

impl Rows for Fig8Result {
    fn header(&self) -> Vec<String> {
        FIG8_SCENARIOS
            .iter()
            .map(|&i| Scenario::ALL[i].name().to_string())
            .collect()
    }

    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        let mut out: Vec<(String, Vec<f64>)> = self
            .rows
            .iter()
            .map(|r| (r.app.to_string(), r.normalized.clone()))
            .collect();
        out.push(("Avg.".into(), self.average()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_quick;

    #[test]
    fn stt_roughly_halves_uncore_energy() {
        let r = run_quick(&Fig8);
        let avg = r.average();
        assert!((avg[0] - 1.0).abs() < 1e-9, "baseline is 1.0");
        // Leakage dominance: every STT scheme lands near ~0.45.
        for v in &avg[1..] {
            assert!((0.35..0.70).contains(v), "normalized energy {v}");
        }
        assert_eq!(r.rows().last().unwrap().0, "Avg.");
    }
}
