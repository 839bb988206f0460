//! Table 3: benchmark characterization. Each application runs alone on
//! the STT-RAM baseline and the measured L2-side rates are compared to
//! the Table 3 targets (the profile-driven generator should match them
//! by construction).

use crate::experiments::Scale;
use crate::report::Rows;
use crate::scenario::Scenario;
use crate::sweep::{CellResult, Experiment, RunSpec};
use snoc_workload::{table3, BenchmarkProfile, Burstiness};
use std::fmt;

/// One characterized application.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Application name.
    pub name: &'static str,
    /// Target L2 reads per kilo-instruction (Table 3).
    pub target_rpki: f64,
    /// Target L2 writes per kilo-instruction (Table 3).
    pub target_wpki: f64,
    /// Measured L2 reads per kilo-instruction.
    pub measured_rpki: f64,
    /// Measured L2 writes per kilo-instruction.
    pub measured_wpki: f64,
    /// Measured fraction of post-write arrivals within the write
    /// window (burstiness proxy).
    pub delayable: f64,
    /// Target class.
    pub bursty: Burstiness,
}

/// The regenerated characterization.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// Rows in Table 3 order.
    pub rows: Vec<Table3Row>,
}

fn apps(scale: Scale) -> Vec<&'static BenchmarkProfile> {
    let all = table3::all();
    match scale {
        Scale::Quick => all.iter().take(6).collect(),
        Scale::Full => all.iter().collect(),
    }
}

/// The characterization sweep: every selected app alone on the STT-RAM
/// baseline.
pub struct Table3;

impl Experiment for Table3 {
    type Output = Table3Result;

    fn name(&self) -> &str {
        "table3"
    }

    fn grid(&self, scale: Scale) -> Vec<RunSpec> {
        apps(scale)
            .into_iter()
            .map(|p| {
                RunSpec::homogeneous(
                    format!("table3/{}", p.name),
                    scale.apply(Scenario::SttRam64Tsb.config()),
                    p,
                )
            })
            .collect()
    }

    fn assemble(&self, scale: Scale, cells: Vec<CellResult>) -> Table3Result {
        let rows = apps(scale)
            .into_iter()
            .zip(&cells)
            .map(|(p, cell)| {
                let m = cell.metrics();
                let kilo_instr = m.per_core_committed.iter().sum::<u64>() as f64 / 1000.0;
                Table3Row {
                    name: p.name,
                    target_rpki: p.l2_rpki,
                    target_wpki: p.l2_wpki,
                    measured_rpki: m.bank_reads as f64 / kilo_instr.max(1e-9),
                    // Bank write jobs include memory fills; Table 3
                    // counts demand writes only.
                    measured_wpki: m.bank_writes.saturating_sub(m.mem_fetches) as f64
                        / kilo_instr.max(1e-9),
                    delayable: m.delayable_fraction,
                    bursty: p.bursty,
                }
            })
            .collect();
        Table3Result { rows }
    }
}

impl fmt::Display for Table3Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 3: measured vs target characterization (STT-RAM baseline)"
        )?;
        writeln!(
            f,
            "{:12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7}",
            "benchmark", "rpki(tgt)", "rpki(got)", "wpki(tgt)", "wpki(got)", "delayable", "bursty"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:12} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>9.1}% {:>7}",
                r.name,
                r.target_rpki,
                r.measured_rpki,
                r.target_wpki,
                r.measured_wpki,
                r.delayable * 100.0,
                match r.bursty {
                    Burstiness::High => "High",
                    Burstiness::Low => "Low",
                }
            )?;
        }
        let avg: f64 =
            self.rows.iter().map(|r| r.delayable).sum::<f64>() / self.rows.len().max(1) as f64;
        let max = self.rows.iter().map(|r| r.delayable).fold(0.0, f64::max);
        writeln!(
            f,
            "delayable accesses: avg {:.1}% / max {:.1}%  (paper: avg 17%, up to 27%)",
            avg * 100.0,
            max * 100.0
        )
    }
}

impl Rows for Table3Result {
    fn header(&self) -> Vec<String> {
        [
            "rpki target",
            "rpki measured",
            "wpki target",
            "wpki measured",
            "delayable (%)",
            "bursty",
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
                    r.name.to_string(),
                    vec![
                        r.target_rpki,
                        r.measured_rpki,
                        r.target_wpki,
                        r.measured_wpki,
                        r.delayable * 100.0,
                        match r.bursty {
                            Burstiness::High => 1.0,
                            Burstiness::Low => 0.0,
                        },
                    ],
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_quick;

    #[test]
    fn quick_characterization_tracks_targets() {
        let t = run_quick(&Table3);
        assert_eq!(t.rows.len(), 6);
        for r in &t.rows {
            // Within 35% at quick scale (short runs are noisy).
            let rel = (r.measured_rpki - r.target_rpki).abs() / r.target_rpki.max(0.1);
            assert!(
                rel < 0.35,
                "{}: rpki {} vs {}",
                r.name,
                r.measured_rpki,
                r.target_rpki
            );
        }
        // Bursty apps cluster more than non-bursty ones on average.
        let hi: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r.bursty == Burstiness::High)
            .map(|r| r.delayable)
            .collect();
        let lo: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r.bursty == Burstiness::Low)
            .map(|r| r.delayable)
            .collect();
        if !hi.is_empty() && !lo.is_empty() {
            let hi_avg = hi.iter().sum::<f64>() / hi.len() as f64;
            let lo_avg = lo.iter().sum::<f64>() / lo.len() as f64;
            assert!(hi_avg > lo_avg, "bursty {hi_avg} vs low {lo_avg}");
        }
    }
}
