//! Figure 14: the network-level WB scheme vs the per-bank write buffer
//! of Sun et al. (BUFF-20), plus the "+1 VC" variant — uncore latency
//! normalized to plain STT-RAM without buffering.

use crate::experiments::{norm, Scale};
use crate::report::Rows;
use crate::scenario::{buff20_config, plus_one_vc_config, Scenario};
use crate::sweep::{CellResult, Experiment, RunSpec};
use snoc_common::config::SystemConfig;
use snoc_workload::table3::{self, figures};
use std::fmt;

/// The four compared designs.
pub const DESIGNS: [&str; 4] = ["STT-RAM", "BUFF-20", "WB", "+1 VC"];

fn design_config(i: usize) -> SystemConfig {
    match i {
        0 => Scenario::SttRam64Tsb.config(),
        1 => buff20_config(),
        2 => Scenario::SttRam4TsbWb.config(),
        3 => plus_one_vc_config(),
        _ => unreachable!(),
    }
}

/// One application's normalized uncore latency per design.
#[derive(Debug, Clone)]
pub struct Fig14Row {
    /// Application name ("AVG-n" for the average row).
    pub app: String,
    /// Normalized uncore latency per design (1.0 = plain STT-RAM).
    pub normalized: Vec<f64>,
}

/// The figure.
#[derive(Debug, Clone)]
pub struct Fig14Result {
    /// Average row first, then the bursty/write-intensive apps.
    pub rows: Vec<Fig14Row>,
}

/// The applications measured, in grid order: the averaging set
/// followed by any named app not already in it.
fn all_apps(scale: Scale) -> (Vec<&'static str>, Vec<&'static str>) {
    let named = scale.take_apps(figures::FIG14).to_vec();
    let avg_apps: Vec<&str> = match scale {
        Scale::Quick => named.clone(),
        Scale::Full => {
            let mut v: Vec<&str> = Vec::new();
            v.extend(figures::FIG6_SERVER);
            v.extend(figures::FIG6_PARSEC);
            v.extend(figures::FIG6_SPEC);
            v
        }
    };
    (named, avg_apps)
}

/// The write-buffer comparison: each measured app × the four designs.
pub struct Fig14;

impl Experiment for Fig14 {
    type Output = Fig14Result;

    fn name(&self) -> &str {
        "fig14"
    }

    fn grid(&self, scale: Scale) -> Vec<RunSpec> {
        let (named, avg_apps) = all_apps(scale);
        let extras = named.iter().filter(|n| !avg_apps.contains(n));
        avg_apps
            .iter()
            .chain(extras)
            .flat_map(|name| {
                let p = table3::by_name(name).expect("known app");
                (0..DESIGNS.len()).map(move |i| {
                    RunSpec::homogeneous(
                        format!("{}/{name}", DESIGNS[i]),
                        scale.apply(design_config(i)),
                        p,
                    )
                })
            })
            .collect()
    }

    fn assemble(&self, scale: Scale, cells: Vec<CellResult>) -> Fig14Result {
        let (named, avg_apps) = all_apps(scale);
        let n = DESIGNS.len();
        let latency_row = |a: usize| -> Vec<f64> {
            (0..n)
                .map(|i| cells[a * n + i].metrics().uncore_latency())
                .collect()
        };

        let mut rows = Vec::new();
        let mut avg = vec![0.0; n];
        let mut named_rows = Vec::new();
        for (a, name) in avg_apps.iter().enumerate() {
            let lat = latency_row(a);
            for (i, v) in lat.iter().enumerate() {
                avg[i] += norm(*v, lat[0]);
            }
            if named.contains(name) {
                named_rows.push(Fig14Row {
                    app: name.to_string(),
                    normalized: lat.iter().map(|v| norm(*v, lat[0])).collect(),
                });
            }
        }
        for v in &mut avg {
            *v /= avg_apps.len() as f64;
        }
        rows.push(Fig14Row {
            app: format!("AVG-{}", avg_apps.len()),
            normalized: avg,
        });
        // Named apps not in the average set follow it in the grid.
        for (e, name) in named.iter().filter(|n| !avg_apps.contains(n)).enumerate() {
            let lat = latency_row(avg_apps.len() + e);
            named_rows.push(Fig14Row {
                app: name.to_string(),
                normalized: lat.iter().map(|v| norm(*v, lat[0])).collect(),
            });
        }
        rows.extend(named_rows);
        Fig14Result { rows }
    }
}

impl fmt::Display for Fig14Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 14: uncore latency normalized to STT-RAM without buffering"
        )?;
        write!(f, "{:10}", "app")?;
        for d in DESIGNS {
            write!(f, " {:>10}", d)?;
        }
        writeln!(f)?;
        for r in &self.rows {
            write!(f, "{:10}", r.app)?;
            for v in &r.normalized {
                write!(f, " {:>10.3}", v)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Rows for Fig14Result {
    fn header(&self) -> Vec<String> {
        DESIGNS.iter().map(|d| d.to_string()).collect()
    }

    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        self.rows
            .iter()
            .map(|r| (r.app.clone(), r.normalized.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_quick;

    #[test]
    fn all_designs_measured() {
        let r = run_quick(&Fig14);
        assert!(r.rows.len() >= 3);
        for row in &r.rows {
            assert_eq!(row.normalized.len(), 4);
            assert!((row.normalized[0] - 1.0).abs() < 1e-9 || row.app.starts_with("AVG"));
            assert!(
                row.normalized.iter().all(|&v| v > 0.2 && v < 3.0),
                "{row:?}"
            );
        }
    }

    #[test]
    fn buff20_reduces_latency_for_bursty_apps() {
        // The write buffer absorbs writes at SRAM speed: uncore
        // latency must drop vs plain STT-RAM for a write-heavy app.
        let r = run_quick(&Fig14);
        let named = &r.rows[1]; // first named app (tpcc)
        assert!(
            named.normalized[1] < 1.0,
            "BUFF-20 should beat plain STT-RAM: {:?}",
            named.normalized
        );
    }
}
