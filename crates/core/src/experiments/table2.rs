//! Table 2: SRAM vs STT-RAM bank comparison at 32 nm, regenerated from
//! the analytic `cacti_lite` model.

use crate::experiments::Scale;
use crate::report::Rows;
use crate::sweep::{CellResult, Experiment, RunSpec};
use snoc_energy::cacti_lite::{self, BankModel};
use std::fmt;

/// The regenerated Table 2.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// The 1 MB SRAM design point.
    pub sram: BankModel,
    /// The 4 MB STT-RAM design point.
    pub stt: BankModel,
}

/// The analytic table as a (simulation-free) experiment: an empty
/// grid, with both design points evaluated at assemble time.
pub struct Table2Exp;

impl Experiment for Table2Exp {
    type Output = Table2;

    fn name(&self) -> &str {
        "table2"
    }

    fn grid(&self, _scale: Scale) -> Vec<RunSpec> {
        Vec::new()
    }

    fn assemble(&self, _scale: Scale, _cells: Vec<CellResult>) -> Table2 {
        Table2 {
            sram: cacti_lite::table2_sram(),
            stt: cacti_lite::table2_stt(),
        }
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 2: SRAM and STT-RAM comparison at 32nm (regenerated by cacti_lite)"
        )?;
        writeln!(
            f,
            "{:14} {:>9} {:>12} {:>12} {:>14} {:>9} {:>9} {:>10} {:>10}",
            "",
            "Area",
            "Read Energy",
            "Write Energy",
            "Leak @80C",
            "Read lat",
            "Write lat",
            "Read@3GHz",
            "Write@3GHz"
        )?;
        for (name, m) in [("1MB SRAM", &self.sram), ("4MB STT-RAM", &self.stt)] {
            writeln!(
                f,
                "{:14} {:>6.2}mm2 {:>10.3}nJ {:>10.3}nJ {:>12.1}mW {:>7.3}ns {:>7.2}ns {:>8} cy {:>8} cy",
                name,
                m.area_mm2,
                m.read_energy_nj,
                m.write_energy_nj,
                m.leakage_mw,
                m.read_ns,
                m.write_ns,
                m.read_cycles,
                m.write_cycles
            )?;
        }
        Ok(())
    }
}

impl Rows for Table2 {
    fn header(&self) -> Vec<String> {
        [
            "area (mm2)",
            "read energy (nJ)",
            "write energy (nJ)",
            "leakage (mW)",
            "read (ns)",
            "write (ns)",
            "read (cycles)",
            "write (cycles)",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    fn rows(&self) -> Vec<(String, Vec<f64>)> {
        [("1MB SRAM", &self.sram), ("4MB STT-RAM", &self.stt)]
            .iter()
            .map(|(name, m)| {
                (
                    name.to_string(),
                    vec![
                        m.area_mm2,
                        m.read_energy_nj,
                        m.write_energy_nj,
                        m.leakage_mw,
                        m.read_ns,
                        m.write_ns,
                        m.read_cycles as f64,
                        m.write_cycles as f64,
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
    fn regenerates_the_headline_latencies() {
        let t = run_quick(&Table2Exp);
        assert_eq!(t.sram.write_cycles, 3);
        assert_eq!(t.stt.write_cycles, 33);
        assert_eq!(t.stt.read_cycles, 3);
    }

    #[test]
    fn displays_both_rows() {
        let s = run_quick(&Table2Exp).to_string();
        assert!(s.contains("1MB SRAM"));
        assert!(s.contains("4MB STT-RAM"));
        assert_eq!(run_quick(&Table2Exp).rows().len(), 2);
    }
}
