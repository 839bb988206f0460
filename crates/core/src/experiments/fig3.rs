//! Figure 3: distribution of consecutive accesses to STT-RAM banks
//! following a write access, plus the average number of buffered
//! request packets two hops from their destination bank.

use crate::experiments::Scale;
use crate::report::Rows;
use crate::scenario::Scenario;
use crate::sweep::{CellResult, Experiment, RunSpec};
use snoc_common::stats::Histogram;
use snoc_workload::table3::{self, figures};
use snoc_workload::Suite;
use std::fmt;

/// One application's panel.
#[derive(Debug, Clone)]
pub struct Fig3Panel {
    /// Application name.
    pub name: String,
    /// Gap histogram (bins 16/33/66/99/132/165+).
    pub gaps: Histogram,
    /// Fraction of post-write arrivals within the write window.
    pub delayable: f64,
    /// The inset "#Req": mean buffered requests two hops from their
    /// destination, sampled at write forwards.
    pub two_hop_requests: f64,
}

/// The full figure: 12 applications plus per-suite averages.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Per-application panels in the paper's order.
    pub panels: Vec<Fig3Panel>,
    /// Aggregates for (PARSEC, SPEC, SERVER).
    pub suite_averages: Vec<Fig3Panel>,
}

/// The characterization as a declarative sweep: one cell per Figure 3
/// application on the 4-region STT-RAM platform.
pub struct Fig3;

impl Experiment for Fig3 {
    type Output = Fig3Result;

    fn name(&self) -> &str {
        "fig3"
    }

    fn grid(&self, scale: Scale) -> Vec<RunSpec> {
        scale
            .take_apps(figures::FIG3)
            .iter()
            .map(|name| {
                let p = table3::by_name(name).expect("known app");
                // The region platform gives every request a
                // two-hops-away parent, matching the paper's
                // measurement point.
                let cfg = scale.apply(Scenario::SttRam4Tsb.config());
                RunSpec::homogeneous(format!("fig3/{name}"), cfg, p)
            })
            .collect()
    }

    fn assemble(&self, scale: Scale, cells: Vec<CellResult>) -> Fig3Result {
        let apps = scale.take_apps(figures::FIG3);
        let panels: Vec<Fig3Panel> = apps
            .iter()
            .zip(&cells)
            .map(|(name, cell)| {
                let m = cell.metrics();
                Fig3Panel {
                    name: name.to_string(),
                    gaps: m.post_write_gaps.clone(),
                    delayable: m.delayable_fraction,
                    two_hop_requests: m.child_queue_mean,
                }
            })
            .collect();
        let mut suite_averages = Vec::new();
        for suite in [Suite::Parsec, Suite::Spec, Suite::Server] {
            let members: Vec<&Fig3Panel> = panels
                .iter()
                .filter(|p| {
                    table3::by_name(&p.name)
                        .map(|b| b.suite == suite)
                        .unwrap_or(false)
                })
                .collect();
            if members.is_empty() {
                continue;
            }
            let mut gaps = Histogram::fig3();
            for m in &members {
                gaps.merge(&m.gaps);
            }
            let delayable = members.iter().map(|m| m.delayable).sum::<f64>() / members.len() as f64;
            let two_hop =
                members.iter().map(|m| m.two_hop_requests).sum::<f64>() / members.len() as f64;
            suite_averages.push(Fig3Panel {
                name: format!("{suite:?}"),
                gaps,
                delayable,
                two_hop_requests: two_hop,
            });
        }
        Fig3Result {
            panels,
            suite_averages,
        }
    }
}

fn write_panel(f: &mut fmt::Formatter<'_>, p: &Fig3Panel) -> fmt::Result {
    let fr = p.gaps.fractions();
    write!(f, "{:10} #Req:{:5.2} |", p.name, p.two_hop_requests)?;
    let labels = [
        "<16", "16-33", "33-66", "66-99", "99-132", "132-165", "165+",
    ];
    for (i, l) in labels.iter().enumerate() {
        write!(f, " {l}:{:4.1}%", fr[i] * 100.0)?;
    }
    writeln!(f, " | delayable {:4.1}%", p.delayable * 100.0)
}

impl fmt::Display for Fig3Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 3: post-write access gap distribution per application"
        )?;
        for p in &self.panels {
            write_panel(f, p)?;
        }
        writeln!(f, "-- suite averages --")?;
        for p in &self.suite_averages {
            write_panel(f, p)?;
        }
        Ok(())
    }
}

impl Rows for Fig3Result {
    fn header(&self) -> Vec<String> {
        let mut h: Vec<String> = [
            "<16", "16-33", "33-66", "66-99", "99-132", "132-165", "165+",
        ]
        .iter()
        .map(|b| format!("gap {b} (%)"))
        .collect();
        h.push("delayable (%)".into());
        h.push("two-hop requests".into());
        h
    }

    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        self.panels
            .iter()
            .chain(&self.suite_averages)
            .map(|p| {
                let mut v: Vec<f64> = p.gaps.fractions().iter().map(|f| f * 100.0).collect();
                v.push(p.delayable * 100.0);
                v.push(p.two_hop_requests);
                (p.name.clone(), v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_quick;

    #[test]
    fn quick_run_produces_panels() {
        let r = run_quick(&Fig3);
        assert_eq!(r.panels.len(), 3);
        for p in &r.panels {
            assert!(p.gaps.total() > 0, "{} has samples", p.name);
            assert!((0.0..=1.0).contains(&p.delayable));
        }
        let s = r.to_string();
        assert!(s.contains("delayable"));
        let rows = r.rows();
        assert_eq!(rows[0].1.len(), r.header().len());
    }
}
