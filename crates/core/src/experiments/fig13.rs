//! Figure 13: sensitivity to the parent-child distance H — (a) the
//! number of re-orderable requests a parent sees at H = 1/2/3, and
//! (b) the average IPC improvement of the WB scheme over the
//! STT-RAM-4TSB baseline at each H.

use crate::experiments::{norm, Scale};
use crate::report::Rows;
use crate::scenario::Scenario;
use crate::sweep::{CellResult, Experiment, RunSpec};
use snoc_workload::table3::{self, figures};
use std::fmt;

/// The figure's two panels.
#[derive(Debug, Clone)]
pub struct Fig13Result {
    /// Applications measured.
    pub apps: Vec<&'static str>,
    /// `requests[a][h-1]`: mean buffered requests H hops from their
    /// destination when a write is forwarded.
    pub requests: Vec<[f64; 3]>,
    /// Average IPC improvement (%) of WB over the 4-TSB round-robin
    /// baseline, per H in 1..=3.
    pub ipc_improvement_pct: [f64; 3],
}

fn apps(scale: Scale) -> Vec<&'static str> {
    scale
        .take_apps(figures::FIG3)
        .iter()
        .map(|n| table3::by_name(n).expect("known app").name)
        .collect()
}

/// Both panels as one grid: the panel-(a) characterization cells
/// (which carry the queue depths for all three hop distances in their
/// metrics), then panel (b)'s baseline/WB pair per hop distance per
/// app.
pub struct Fig13;

impl Experiment for Fig13 {
    type Output = Fig13Result;

    fn name(&self) -> &str {
        "fig13"
    }

    fn grid(&self, scale: Scale) -> Vec<RunSpec> {
        let apps = apps(scale);
        let mut grid = Vec::new();
        // Panel (a): queue depth by hop distance, from the 4-TSB
        // baseline.
        for name in &apps {
            let p = table3::by_name(name).unwrap();
            grid.push(RunSpec::homogeneous(
                format!("fig13a/{name}"),
                scale.apply(Scenario::SttRam4Tsb.config()),
                p,
            ));
        }
        // Panel (b): WB vs baseline at each re-ordering distance.
        for h in 1..=3u32 {
            for name in &apps {
                let p = table3::by_name(name).unwrap();
                for (tag, sc) in [
                    ("base", Scenario::SttRam4Tsb),
                    ("wb", Scenario::SttRam4TsbWb),
                ] {
                    let cfg = scale.apply(sc.config()).rebuild().parent_hops(h).build();
                    grid.push(RunSpec::homogeneous(
                        format!("fig13b/H{h}/{tag}/{name}"),
                        cfg,
                        p,
                    ));
                }
            }
        }
        grid
    }

    fn assemble(&self, scale: Scale, cells: Vec<CellResult>) -> Fig13Result {
        let apps = apps(scale);
        let requests: Vec<[f64; 3]> = cells[..apps.len()]
            .iter()
            .map(|c| c.metrics().queue_mean_by_hops)
            .collect();

        let mut improvement = [0.0; 3];
        let mut cursor = apps.len();
        for slot in &mut improvement {
            let mut sum = 0.0;
            for _ in &apps {
                let base = cells[cursor].metrics().instruction_throughput();
                let wb = cells[cursor + 1].metrics().instruction_throughput();
                cursor += 2;
                sum += (norm(wb, base) - 1.0) * 100.0;
            }
            *slot = sum / apps.len() as f64;
        }

        Fig13Result {
            apps,
            requests,
            ipc_improvement_pct: improvement,
        }
    }
}

impl fmt::Display for Fig13Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 13a: requests in a router destined H hops away (at write forwards)"
        )?;
        writeln!(
            f,
            "{:10} {:>7} {:>7} {:>7}",
            "app", "1 hop", "2 hop", "3 hop"
        )?;
        for (name, r) in self.apps.iter().zip(&self.requests) {
            writeln!(f, "{:10} {:>7.2} {:>7.2} {:>7.2}", name, r[0], r[1], r[2])?;
        }
        let n = self.apps.len().max(1) as f64;
        let avg: Vec<f64> = (0..3)
            .map(|h| self.requests.iter().map(|r| r[h]).sum::<f64>() / n)
            .collect();
        writeln!(
            f,
            "{:10} {:>7.2} {:>7.2} {:>7.2}",
            "Avg.", avg[0], avg[1], avg[2]
        )?;
        writeln!(
            f,
            "Figure 13b: avg IPC improvement of WB over 4TSB-RR per hop distance"
        )?;
        for (h, v) in self.ipc_improvement_pct.iter().enumerate() {
            writeln!(f, "H = {}: {:+.1}%", h + 1, v)?;
        }
        Ok(())
    }
}

impl Rows for Fig13Result {
    fn header(&self) -> Vec<String> {
        vec!["H=1".into(), "H=2".into(), "H=3".into()]
    }

    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        let mut out: Vec<(String, Vec<f64>)> = self
            .apps
            .iter()
            .zip(&self.requests)
            .map(|(name, r)| (format!("requests/{name}"), r.to_vec()))
            .collect();
        out.push((
            "IPC improvement (%)".into(),
            self.ipc_improvement_pct.to_vec(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_quick;

    #[test]
    fn farther_parents_see_more_requests() {
        let r = run_quick(&Fig13);
        let n = r.apps.len() as f64;
        let avg: Vec<f64> = (0..3)
            .map(|h| r.requests.iter().map(|q| q[h]).sum::<f64>() / n)
            .collect();
        // More routers lie 2-3 hops from a destination than 1 hop, so
        // the sampled counts grow with H.
        assert!(
            avg[2] >= avg[0],
            "H=3 ({:.3}) should see at least as many as H=1 ({:.3})",
            avg[2],
            avg[0]
        );
        assert_eq!(r.rows().last().unwrap().1.len(), 3);
    }
}
