//! Figure 7: packet latency broken into network latency and queuing
//! latency at the memory banks, per scheme, normalized to SRAM-64TSB.

use crate::experiments::{fig6, norm, Scale};
use crate::report::Rows;
use crate::scenario::Scenario;
use crate::sweep::{CellResult, Experiment, RunSpec};
use snoc_workload::table3::figures;
use std::fmt;

/// One app's breakdown across the six scenarios.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Application name.
    pub app: &'static str,
    /// Network latency (request + response transit) per scenario.
    pub net_latency: Vec<f64>,
    /// Bank-side latency (NI + controller queue + service) per
    /// scenario.
    pub queue_latency: Vec<f64>,
}

impl Fig7Row {
    /// The paper's presentation: SRAM-64TSB as exact percentages of
    /// its total; other schemes normalized to the SRAM total.
    pub fn normalized(&self) -> Vec<(f64, f64)> {
        let total0 = self.net_latency[0] + self.queue_latency[0];
        self.net_latency
            .iter()
            .zip(&self.queue_latency)
            .map(|(&n, &q)| (norm(n, total0) * 100.0, norm(q, total0) * 100.0))
            .collect()
    }
}

/// The figure.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Rows in the paper's app order (sap, sjbb, sclust, lbm, hmmer).
    pub rows: Vec<Fig7Row>,
}

/// The latency-breakdown sweep: Figure 7's apps × the six scenarios.
pub struct Fig7;

impl Experiment for Fig7 {
    type Output = Fig7Result;

    fn name(&self) -> &str {
        "fig7"
    }

    fn grid(&self, scale: Scale) -> Vec<RunSpec> {
        fig6::scenario_grid(scale, scale.take_apps(figures::FIG7))
    }

    fn assemble(&self, scale: Scale, cells: Vec<CellResult>) -> Fig7Result {
        let apps = scale.take_apps(figures::FIG7);
        let n = Scenario::ALL.len();
        let rows = fig6::rows_from_cells(apps, &cells)
            .into_iter()
            .enumerate()
            .map(|(a, row)| {
                let ms: Vec<_> = (0..n).map(|s| cells[a * n + s].metrics()).collect();
                Fig7Row {
                    app: row.app,
                    net_latency: ms
                        .iter()
                        .map(|m| m.net_request_latency + m.net_response_latency)
                        .collect(),
                    queue_latency: ms
                        .iter()
                        .map(|m| m.bank_queue_wait + m.bank_service)
                        .collect(),
                }
            })
            .collect();
        Fig7Result { rows }
    }
}

impl fmt::Display for Fig7Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 7: packet latency split into network (net) and bank queuing (que),\nas % of the SRAM-64TSB total"
        )?;
        write!(f, "{:8} {:8}", "app", "part")?;
        for sc in Scenario::ALL {
            write!(f, " {:>14}", sc.name())?;
        }
        writeln!(f)?;
        for r in &self.rows {
            let n = r.normalized();
            write!(f, "{:8} {:8}", r.app, "net lat")?;
            for (net, _) in &n {
                write!(f, " {:>13.1}%", net)?;
            }
            writeln!(f)?;
            write!(f, "{:8} {:8}", "", "que lat")?;
            for (_, que) in &n {
                write!(f, " {:>13.1}%", que)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Rows for Fig7Result {
    fn header(&self) -> Vec<String> {
        Scenario::ALL
            .iter()
            .map(|s| format!("{} (%)", s.name()))
            .collect()
    }

    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        let mut out = Vec::new();
        for r in &self.rows {
            let n = r.normalized();
            out.push((format!("{}/net", r.app), n.iter().map(|p| p.0).collect()));
            out.push((format!("{}/queue", r.app), n.iter().map(|p| p.1).collect()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_quick;

    #[test]
    fn breakdown_has_positive_components() {
        let r = run_quick(&Fig7);
        for row in &r.rows {
            assert_eq!(row.net_latency.len(), 6);
            assert!(row.net_latency.iter().all(|&v| v > 0.0));
            assert!(row.queue_latency.iter().all(|&v| v >= 0.0));
            let n = row.normalized();
            let (net0, que0) = n[0];
            assert!((net0 + que0 - 100.0).abs() < 1e-6, "SRAM row sums to 100%");
        }
        assert_eq!(r.rows().len(), 2 * r.rows.len());
    }

    #[test]
    fn stt_swap_inflates_queue_share() {
        // The paper: queuing worsens when SRAM is replaced by STT-RAM
        // (write-heavy apps; index 1 = MRAM-64TSB).
        let r = run_quick(&Fig7);
        let sap = &r.rows[0];
        assert!(
            sap.queue_latency[1] > sap.queue_latency[0],
            "queueing must grow: {:?}",
            sap.queue_latency
        );
    }
}
