//! Fault-injection campaign around the paper's headline Figure 6 cell.
//!
//! Sweeps fault-rate multiplier x scheme for the `sap` server workload
//! (the headline fig6 configuration is `MRAM-4TSB-WB`; the other
//! region-TSB schemes ride along so the cost of degraded mode can be
//! compared across arbitration policies). Each scheme runs:
//!
//! * `off`  — fault injection disabled (the clean baseline);
//! * `x1`, `x4`, `x16` — the default [`FaultPlan`] per-cycle rates
//!   scaled by that factor (transient TSB/link/port outages plus bank
//!   stuck-busy and dropped-ack episodes);
//! * `kill` — default rates plus a permanent TSB death mid-run, which
//!   re-homes the victim region onto the nearest surviving TSB.
//!
//! Cells run sequentially through [`System::enable_faults`], so reruns
//! are byte-identical per seed. `snoc repro faults` writes the table to
//! `<results>/faults/fault_campaign.{txt,csv}`.
//!
//! `quick` shrinks the grid to the headline scheme with
//! `off`/`x4`/`kill` for CI.

use snoc_core::experiments::Scale;
use snoc_core::report::Rows;
use snoc_core::scenario::Scenario;
use snoc_core::system::System;
use snoc_noc::{FaultPlan, NocEnv};
use snoc_workload::table3 as t3;
use std::fmt;

/// One campaign column: how the default plan is perturbed.
#[derive(Clone, Copy)]
enum Campaign {
    Off,
    Rates(f64),
    Kill,
}

impl Campaign {
    fn label(self) -> String {
        match self {
            Campaign::Off => "off".into(),
            Campaign::Rates(m) => format!("x{m:.0}"),
            Campaign::Kill => "kill".into(),
        }
    }

    fn plan(self) -> Option<FaultPlan> {
        let base = FaultPlan::default();
        match self {
            Campaign::Off => None,
            Campaign::Rates(m) => Some(FaultPlan {
                tsb_rate: base.tsb_rate * m,
                link_rate: base.link_rate * m,
                port_rate: base.port_rate * m,
                bank_rate: base.bank_rate * m,
                ..base
            }),
            // Default transient rates plus a permanent TSB death early
            // in the measurement window.
            Campaign::Kill => Some(FaultPlan {
                kill_tsb_at: Some(1_000),
                ..base
            }),
        }
    }
}

struct Row {
    label: String,
    values: Vec<f64>,
}

/// The campaign's table.
pub struct FaultSweep {
    rows: Vec<Row>,
}

const COLUMNS: [&str; 9] = [
    "throughput",
    "uncore_lat",
    "injected",
    "dropped",
    "dropped_acks",
    "retries",
    "abandoned",
    "rehomed",
    "degraded_cyc",
];

impl Rows for FaultSweep {
    fn header(&self) -> Vec<String> {
        COLUMNS.map(String::from).to_vec()
    }
    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        self.rows
            .iter()
            .map(|r| (r.label.clone(), r.values.clone()))
            .collect()
    }
}

impl fmt::Display for FaultSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fault campaign: headline fig6 cell (sap) under scaled fault rates"
        )?;
        write!(f, "{:>18}", "cell")?;
        for c in COLUMNS {
            write!(f, " {c:>12}")?;
        }
        writeln!(f)?;
        for r in &self.rows {
            write!(f, "{:>18}", r.label)?;
            for v in &r.values {
                write!(f, " {v:>12.3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Runs the campaign (the CI-sized one when `quick`), with the audit
/// and telemetry `noc` asks for riding along; `noc`'s fault plan stands
/// in for the `off` column's.
pub fn campaign(quick: bool, noc: &NocEnv) -> FaultSweep {
    let schemes: &[Scenario] = if quick {
        &[Scenario::SttRam4TsbWb]
    } else {
        &[
            Scenario::SttRam4Tsb,
            Scenario::SttRam4TsbSs,
            Scenario::SttRam4TsbRca,
            Scenario::SttRam4TsbWb,
        ]
    };
    let campaigns: &[Campaign] = if quick {
        &[Campaign::Off, Campaign::Rates(4.0), Campaign::Kill]
    } else {
        &[
            Campaign::Off,
            Campaign::Rates(1.0),
            Campaign::Rates(4.0),
            Campaign::Rates(16.0),
            Campaign::Kill,
        ]
    };
    let app = t3::by_name("sap").expect("table 3 has sap");

    let mut rows = Vec::new();
    for &scheme in schemes {
        for &campaign in campaigns {
            let cfg = Scale::Quick.apply(scheme.config());
            let mut system = System::homogeneous(cfg, app);
            let noc = NocEnv {
                faults: campaign.plan().or(noc.faults),
                ..*noc
            };
            crate::instrument(&mut system, &noc);
            let metrics = system.run();
            let s = metrics.faults.clone().unwrap_or_default();
            let label = format!("{}/{}", scheme.name(), campaign.label());
            eprintln!(
                "{label}: injected={} dropped={} retries={} rehomed={} degraded={}",
                s.injected(),
                s.dropped,
                s.retries,
                s.rehomed_regions,
                s.degraded_cycles
            );
            rows.push(Row {
                label,
                values: vec![
                    metrics.instruction_throughput(),
                    metrics.uncore_latency(),
                    s.injected() as f64,
                    s.dropped as f64,
                    s.dropped_acks as f64,
                    s.retries as f64,
                    s.abandoned as f64,
                    s.rehomed_regions as f64,
                    s.degraded_cycles as f64,
                ],
            });
        }
    }

    FaultSweep { rows }
}
