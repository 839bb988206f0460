//! Telemetry deep-dive of one Quick-scale fig6 cell.
//!
//! Runs the paper's headline configuration (`SttRam4TsbWb`, the `sap`
//! server workload) with telemetry on and writes, under
//! `<results>/telemetry/`:
//!
//! * `fig6_util_heatmap.{txt,csv}` — mean buffer utilization per
//!   router, one row per (layer, y), one column per x;
//! * `fig6_hold_heatmap.{txt,csv}` — mean bank-aware hold delay per
//!   router, same shape;
//! * `fig6_latency_hist.{txt,csv}` — log2-bucketed end-to-end latency
//!   per traffic class and per hop count;
//! * `fig6_timeseries.{txt,csv}` — the per-epoch time series;
//! * `fig6_trace.jsonl` — the retained flit-trace ring, replayable
//!   event by event.
//!
//! The cell is Quick-scale whatever the requested scale.

use snoc_core::experiments::Scale;
use snoc_core::report::{self, Rendered, Rows};
use snoc_core::scenario::Scenario;
use snoc_core::system::System;
use snoc_noc::telemetry::{EpochRow, TelemetrySummary, CLASS_NAMES, LATENCY_EDGES};
use snoc_noc::NocEnv;
use snoc_workload::table3 as t3;
use std::fmt;
use std::path::Path;

/// Per-router scalar rendered as a (layer, y) x (x) grid.
struct Heatmap {
    title: &'static str,
    width: usize,
    height: usize,
    /// Core layer first, then cache, row-major (network router order).
    values: Vec<f64>,
}

impl Heatmap {
    fn layer_rows(&self) -> Vec<(String, Vec<f64>)> {
        let n = self.width * self.height;
        let mut rows = Vec::with_capacity(2 * self.height);
        for (layer, base) in [("core", 0), ("cache", n)] {
            for y in 0..self.height {
                let start = base + y * self.width;
                rows.push((
                    format!("{layer}/y{y}"),
                    self.values[start..start + self.width].to_vec(),
                ));
            }
        }
        rows
    }
}

impl Rows for Heatmap {
    fn header(&self) -> Vec<String> {
        (0..self.width).map(|x| format!("x{x}")).collect()
    }
    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        self.layer_rows()
    }
}

impl fmt::Display for Heatmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        for (label, values) in self.layer_rows() {
            write!(f, "{label:>9}")?;
            for v in values {
                write!(f, " {v:8.4}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Latency histograms per class and per hop count over shared edges.
struct LatencyHist {
    summary: TelemetrySummary,
}

impl Rows for LatencyHist {
    fn header(&self) -> Vec<String> {
        let mut h: Vec<String> = LATENCY_EDGES.iter().map(|e| format!("<={e}")).collect();
        h.push(format!(">{}", LATENCY_EDGES[LATENCY_EDGES.len() - 1]));
        h
    }
    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        let counts = |h: &snoc_common::stats::Histogram| -> Vec<f64> {
            h.counts().iter().map(|&c| c as f64).collect()
        };
        let mut rows: Vec<(String, Vec<f64>)> = CLASS_NAMES
            .iter()
            .zip(&self.summary.class_latency)
            .map(|(name, h)| (format!("class/{name}"), counts(h)))
            .collect();
        let last = self.summary.hop_latency.len() - 1;
        for (i, h) in self.summary.hop_latency.iter().enumerate() {
            let label = if i == last {
                format!("hops/{i}+")
            } else {
                format!("hops/{i}")
            };
            rows.push((label, counts(h)));
        }
        rows
    }
}

impl fmt::Display for LatencyHist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "end-to-end latency histograms (counts per bucket)")?;
        writeln!(f, "buckets: {:?} + overflow", LATENCY_EDGES)?;
        for (label, values) in self.rows() {
            let total: f64 = values.iter().sum();
            if total == 0.0 {
                continue;
            }
            write!(f, "{label:>16} |")?;
            for v in values {
                write!(f, " {v:6.0}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The per-epoch time series as labelled rows.
struct TimeSeries {
    series: Vec<EpochRow>,
}

impl Rows for TimeSeries {
    fn header(&self) -> Vec<String> {
        [
            "in_flight",
            "buffered",
            "tsb_buffered",
            "busy_frac",
            "delivered_delta",
            "held_cycles_delta",
        ]
        .map(String::from)
        .to_vec()
    }
    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        self.series
            .iter()
            .map(|r| {
                (
                    format!("c{}", r.cycle),
                    vec![
                        r.in_flight as f64,
                        r.buffered as f64,
                        r.tsb_buffered as f64,
                        r.busy_frac,
                        r.delivered_delta as f64,
                        r.held_cycles_delta as f64,
                    ],
                )
            })
            .collect()
    }
}

impl fmt::Display for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "per-epoch time series ({} samples)", self.series.len())?;
        writeln!(
            f,
            "{:>8} {:>9} {:>8} {:>12} {:>9} {:>15} {:>17}",
            "cycle",
            "in_flight",
            "buffered",
            "tsb_buffered",
            "busy",
            "delivered_delta",
            "held_cycles_delta"
        )?;
        for r in &self.series {
            writeln!(
                f,
                "{:>8} {:>9} {:>8} {:>12} {:>9.3} {:>15} {:>17}",
                r.cycle,
                r.in_flight,
                r.buffered,
                r.tsb_buffered,
                r.busy_frac,
                r.delivered_delta,
                r.held_cycles_delta
            )?;
        }
        Ok(())
    }
}

/// Runs the cell with `noc`'s instrumentation (telemetry on, with
/// `noc`'s telemetry settings when it has some) and writes its
/// artifacts into `dir`.
///
/// # Errors
///
/// A file that could not be written.
pub fn deep_dive(dir: &Path, noc: &NocEnv) -> Result<(), String> {
    let cfg = Scale::Quick.apply(Scenario::SttRam4TsbWb.config());
    let (width, height) = (cfg.noc.width as usize, cfg.noc.height as usize);
    let app = t3::by_name("sap").expect("table 3 has sap");
    let mut system = System::homogeneous(cfg, app);
    let noc = NocEnv {
        telemetry: Some(noc.telemetry.unwrap_or_default()),
        ..*noc
    };
    crate::instrument(&mut system, &noc);
    let summary = system.run().telemetry.expect("telemetry is on");
    eprintln!("telemetry: {}", summary.digest());

    let util = Heatmap {
        title: "mean router buffer utilization (fraction of capacity)",
        width,
        height,
        values: summary.router_util.clone(),
    };
    let hold = Heatmap {
        title: "mean bank-aware hold delay per router (cycles)",
        width,
        height,
        values: summary.router_hold_mean.clone(),
    };
    let series = TimeSeries {
        series: summary.series.clone(),
    };
    let trace = summary.trace_jsonl();
    let hist = LatencyHist { summary };

    for (name, rendered) in [
        ("fig6_util_heatmap", Rendered::of(&util)),
        ("fig6_hold_heatmap", Rendered::of(&hold)),
        ("fig6_latency_hist", Rendered::of(&hist)),
        ("fig6_timeseries", Rendered::of(&series)),
    ] {
        crate::save(dir, name, &rendered)?;
    }
    let path = report::save_raw(dir, "fig6_trace", "jsonl", &trace)
        .map_err(|e| format!("could not write the trace under {}: {e}", dir.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
