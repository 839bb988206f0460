//! Figures 11 and 12: sensitivity to the number of logical cache
//! regions (4/8/16) and to corner vs staggered TSB placement, under
//! the WB scheme. Figure 11's layouts are rendered as ASCII art.

use crate::experiments::{norm, Scale};
use crate::report::Rows;
use crate::scenario::Scenario;
use crate::sweep::{CellResult, Experiment, RunSpec};
use snoc_common::config::TsbPlacement;
use snoc_common::geom::Mesh;
use snoc_noc::regions::RegionMap;
use snoc_workload::table3::{self, figures};
use std::fmt;

/// The six design points of Figure 12.
pub const POINTS: [(usize, TsbPlacement); 6] = [
    (4, TsbPlacement::Corner),
    (4, TsbPlacement::Staggered),
    (8, TsbPlacement::Corner),
    (8, TsbPlacement::Staggered),
    (16, TsbPlacement::Corner),
    (16, TsbPlacement::Staggered),
];

fn point_name(regions: usize, placement: TsbPlacement) -> String {
    format!(
        "{regions}r/{}",
        match placement {
            TsbPlacement::Corner => "corner",
            TsbPlacement::Staggered => "staggered",
        }
    )
}

/// Average normalized IPC per design point.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// Average instruction throughput per point, normalized to
    /// (4 regions, corner).
    pub normalized: Vec<f64>,
    /// Figure 11 renderings of the four layouts shown in the paper.
    pub layouts: Vec<(String, String)>,
}

fn apps(scale: Scale) -> Vec<&'static str> {
    match scale {
        Scale::Quick => vec!["tpcc", "lbm", "hmmer"],
        Scale::Full => {
            let mut v: Vec<&str> = Vec::new();
            v.extend(figures::FIG6_SERVER);
            v.extend(figures::FIG6_PARSEC);
            v.extend(figures::FIG6_SPEC);
            v
        }
    }
}

/// The sensitivity sweep over regions × TSB placement.
pub struct Fig12;

impl Experiment for Fig12 {
    type Output = Fig12Result;

    fn name(&self) -> &str {
        "fig12"
    }

    fn grid(&self, scale: Scale) -> Vec<RunSpec> {
        apps(scale)
            .iter()
            .flat_map(|name| {
                let p = table3::by_name(name).expect("known app");
                POINTS.iter().map(move |&(regions, placement)| {
                    let cfg = scale
                        .apply(Scenario::SttRam4TsbWb.config())
                        .rebuild()
                        .regions(regions)
                        .tsb_placement(placement)
                        .build();
                    RunSpec::homogeneous(
                        format!("{}/{name}", point_name(regions, placement)),
                        cfg,
                        p,
                    )
                })
            })
            .collect()
    }

    fn assemble(&self, scale: Scale, cells: Vec<CellResult>) -> Fig12Result {
        let apps = apps(scale);
        let mut sums = vec![0.0; POINTS.len()];
        for (a, _) in apps.iter().enumerate() {
            let per_point: Vec<f64> = (0..POINTS.len())
                .map(|i| {
                    cells[a * POINTS.len() + i]
                        .metrics()
                        .instruction_throughput()
                })
                .collect();
            for (i, v) in per_point.iter().enumerate() {
                sums[i] += norm(*v, per_point[0]);
            }
        }
        let normalized = sums.iter().map(|s| s / apps.len() as f64).collect();

        let mesh = Mesh::new(8, 8);
        let layouts = [
            (4, TsbPlacement::Corner, "4 regions, TSBs in corner"),
            (4, TsbPlacement::Staggered, "4 regions, TSBs staggered"),
            (8, TsbPlacement::Staggered, "8 regions, TSBs staggered"),
            (16, TsbPlacement::Corner, "16 regions, TSBs in corner"),
        ]
        .into_iter()
        .map(|(r, pl, label)| (label.to_string(), RegionMap::new(mesh, r, pl).ascii_art()))
        .collect();
        Fig12Result {
            normalized,
            layouts,
        }
    }
}

impl fmt::Display for Fig12Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 11: region layouts (# marks a TSB)")?;
        for (label, art) in &self.layouts {
            writeln!(f, "[{label}]")?;
            writeln!(f, "{art}")?;
        }
        writeln!(
            f,
            "Figure 12: IPC sensitivity to regions x TSB placement (normalized to 4/corner)"
        )?;
        for (&(regions, placement), v) in POINTS.iter().zip(&self.normalized) {
            writeln!(
                f,
                "{:2} regions, {:9}: {:.3}",
                regions,
                match placement {
                    TsbPlacement::Corner => "corner",
                    TsbPlacement::Staggered => "staggered",
                },
                v
            )?;
        }
        Ok(())
    }
}

impl Rows for Fig12Result {
    fn header(&self) -> Vec<String> {
        vec!["normalized IPC".into()]
    }

    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        POINTS
            .iter()
            .zip(&self.normalized)
            .map(|(&(r, p), &v)| (point_name(r, p), vec![v]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_quick;

    #[test]
    fn sweep_covers_all_points() {
        let r = run_quick(&Fig12);
        assert_eq!(r.normalized.len(), 6);
        assert!(
            (r.normalized[0] - 1.0).abs() < 1e-9,
            "baseline point is 1.0"
        );
        assert!(r.normalized.iter().all(|&v| v > 0.3 && v < 2.0));
        assert_eq!(r.layouts.len(), 4);
        assert!(r.layouts[0].1.contains('#'));
        assert_eq!(r.rows().len(), 6);
    }
}
