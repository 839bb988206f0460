//! Ablations of the design choices `DESIGN.md` calls out: the hold
//! release slack, the WB sampling window, the request-class VC count,
//! and the bank intake depth. Each sweeps one knob of the WB design on
//! a bursty, write-intensive workload while everything else stays at
//! the paper's configuration.

use crate::experiments::Scale;
use crate::report::Rows;
use crate::scenario::Scenario;
use crate::sweep::{CellResult, Experiment, RunSpec};
use snoc_common::config::SystemConfig;
use snoc_workload::table3;
use std::fmt;

/// One knob sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Knob name.
    pub knob: &'static str,
    /// The values swept (as printed).
    pub values: Vec<String>,
    /// Instruction throughput at each value.
    pub throughput: Vec<f64>,
    /// Mean uncore round trip at each value.
    pub uncore_rtt: Vec<f64>,
    /// Packets held at parents at each value.
    pub held: Vec<u64>,
}

/// All four sweeps.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Application used.
    pub app: &'static str,
    /// The sweeps.
    pub sweeps: Vec<Sweep>,
}

/// The flattened knob grid: `(knob, printed value, config)` per cell,
/// knob by knob.
fn knob_points(scale: Scale) -> Vec<(&'static str, String, SystemConfig)> {
    let base = || scale.apply(Scenario::SttRam4TsbWb.config());
    let mut points = Vec::new();
    for v in [0u64, 4, 8, 16] {
        let cfg = base().rebuild().tune(|c| c.noc.hold_slack = v).build();
        points.push(("hold release slack (cycles)", v.to_string(), cfg));
    }
    for v in [25u32, 100, 400] {
        let cfg = base().rebuild().wb_window(v).build();
        points.push(("WB sampling window (requests)", v.to_string(), cfg));
    }
    for v in [4usize, 5, 6, 7, 8] {
        let cfg = base().rebuild().tune(|c| c.noc.vcs_per_port = v).build();
        points.push(("virtual channels per port", v.to_string(), cfg));
    }
    for v in [1usize, 4, 16] {
        let cfg = base().rebuild().tune(|c| c.mem.bank_queue = v).build();
        points.push(("bank intake queue depth", v.to_string(), cfg));
    }
    points
}

/// The ablation sweeps on `lbm` (bursty, write-intensive).
pub struct Ablations;

impl Experiment for Ablations {
    type Output = AblationResult;

    fn name(&self) -> &str {
        "ablations"
    }

    fn grid(&self, scale: Scale) -> Vec<RunSpec> {
        let p = table3::by_name("lbm").expect("lbm is in Table 3");
        knob_points(scale)
            .into_iter()
            .map(|(knob, value, cfg)| RunSpec::homogeneous(format!("{knob}={value}"), cfg, p))
            .collect()
    }

    fn assemble(&self, scale: Scale, cells: Vec<CellResult>) -> AblationResult {
        let p = table3::by_name("lbm").expect("lbm is in Table 3");
        let mut sweeps: Vec<Sweep> = Vec::new();
        for ((knob, value, _), cell) in knob_points(scale).into_iter().zip(&cells) {
            if sweeps.last().map(|s| s.knob) != Some(knob) {
                sweeps.push(Sweep {
                    knob,
                    values: Vec::new(),
                    throughput: Vec::new(),
                    uncore_rtt: Vec::new(),
                    held: Vec::new(),
                });
            }
            let s = sweeps.last_mut().unwrap();
            let m = cell.metrics();
            s.values.push(value);
            s.throughput.push(m.instruction_throughput());
            s.uncore_rtt.push(m.uncore_rtt);
            s.held.push(m.held_packets);
        }
        AblationResult {
            app: p.name,
            sweeps,
        }
    }
}

impl fmt::Display for AblationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Design-choice ablations on {} (MRAM-4TSB-WB)", self.app)?;
        for s in &self.sweeps {
            writeln!(f, "--- {} ---", s.knob)?;
            writeln!(
                f,
                "{:>10} {:>12} {:>12} {:>10}",
                "value", "IT", "uncore RTT", "held"
            )?;
            for i in 0..s.values.len() {
                writeln!(
                    f,
                    "{:>10} {:>12.2} {:>12.1} {:>10}",
                    s.values[i], s.throughput[i], s.uncore_rtt[i], s.held[i]
                )?;
            }
        }
        Ok(())
    }
}

impl Rows for AblationResult {
    fn header(&self) -> Vec<String> {
        vec!["IT".into(), "uncore RTT".into(), "held".into()]
    }

    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        let mut out = Vec::new();
        for s in &self.sweeps {
            for i in 0..s.values.len() {
                out.push((
                    format!("{}={}", s.knob, s.values[i]),
                    vec![s.throughput[i], s.uncore_rtt[i], s.held[i] as f64],
                ));
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
    fn ablations_cover_all_knobs() {
        let r = run_quick(&Ablations);
        assert_eq!(r.sweeps.len(), 4);
        for s in &r.sweeps {
            assert!(s.throughput.iter().all(|&t| t > 0.0), "{}", s.knob);
            assert_eq!(s.values.len(), s.throughput.len());
        }
        // More VCs never hurt throughput catastrophically.
        let vcs = &r.sweeps[2];
        let min = vcs.throughput.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vcs.throughput.iter().cloned().fold(0.0, f64::max);
        assert!(
            max / min < 2.0,
            "VC sweep should be smooth: {:?}",
            vcs.throughput
        );
    }
}
