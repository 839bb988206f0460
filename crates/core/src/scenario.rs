//! The six design scenarios of Section 4.1, plus the Section 4.4
//! comparison points.

use snoc_common::config::{
    ArbitrationPolicy, Estimator, MemTech, RequestPathMode, SystemConfig, WriteBufferConfig,
};

/// One of the paper's named design points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Baseline: SRAM L2, all 64 TSVs, round-robin routers.
    Sram64Tsb,
    /// STT-RAM swapped in, otherwise the baseline network.
    SttRam64Tsb,
    /// STT-RAM with requests restricted to the 4 region TSBs but
    /// round-robin arbitration (isolates the path-diversity cost).
    SttRam4Tsb,
    /// Region TSBs + bank-aware arbitration, Simplistic congestion
    /// scheme.
    SttRam4TsbSs,
    /// Region TSBs + bank-aware arbitration, Regional Congestion
    /// Awareness.
    SttRam4TsbRca,
    /// Region TSBs + bank-aware arbitration, Window-Based estimation —
    /// the paper's recommended design.
    SttRam4TsbWb,
}

impl Scenario {
    /// All six, in the paper's presentation order.
    pub const ALL: [Scenario; 6] = [
        Scenario::Sram64Tsb,
        Scenario::SttRam64Tsb,
        Scenario::SttRam4Tsb,
        Scenario::SttRam4TsbSs,
        Scenario::SttRam4TsbRca,
        Scenario::SttRam4TsbWb,
    ];

    /// The figure labels ("MRAM" is the paper's plot annotation for
    /// STT-RAM).
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Sram64Tsb => "SRAM-64TSB",
            Scenario::SttRam64Tsb => "MRAM-64TSB",
            Scenario::SttRam4Tsb => "MRAM-4TSB",
            Scenario::SttRam4TsbSs => "MRAM-4TSB-SS",
            Scenario::SttRam4TsbRca => "MRAM-4TSB-RCA",
            Scenario::SttRam4TsbWb => "MRAM-4TSB-WB",
        }
    }

    /// The scenario whose [`Scenario::name`] is `name`, ignoring ASCII
    /// case.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::ALL
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }

    /// The system configuration for this scenario (Table 1 defaults).
    pub fn config(self) -> SystemConfig {
        let b = SystemConfig::builder();
        match self {
            Scenario::Sram64Tsb => b.tech(MemTech::Sram).path_mode(RequestPathMode::AllTsvs),
            Scenario::SttRam64Tsb => b.tech(MemTech::SttRam).path_mode(RequestPathMode::AllTsvs),
            Scenario::SttRam4Tsb => b
                .tech(MemTech::SttRam)
                .path_mode(RequestPathMode::RegionTsbs),
            Scenario::SttRam4TsbSs => b
                .tech(MemTech::SttRam)
                .path_mode(RequestPathMode::RegionTsbs)
                .arbitration(ArbitrationPolicy::BankAware {
                    estimator: Estimator::Simple,
                }),
            Scenario::SttRam4TsbRca => b
                .tech(MemTech::SttRam)
                .path_mode(RequestPathMode::RegionTsbs)
                .arbitration(ArbitrationPolicy::BankAware {
                    estimator: Estimator::Rca,
                }),
            Scenario::SttRam4TsbWb => b
                .tech(MemTech::SttRam)
                .path_mode(RequestPathMode::RegionTsbs)
                .arbitration(ArbitrationPolicy::BankAware {
                    estimator: Estimator::WindowBased,
                }),
        }
        .build()
    }

    /// The scenario configuration at an arbitrary geometry: mesh
    /// `width` x `height`, `regions` cache regions and `cache_layers`
    /// stacked cache dies. `config()` is the 8x8 / 4-region /
    /// single-layer special case of this.
    pub fn config_at(
        self,
        width: u8,
        height: u8,
        regions: usize,
        cache_layers: usize,
    ) -> SystemConfig {
        self.config()
            .rebuild()
            .tune(|c| {
                c.noc.width = width;
                c.noc.height = height;
            })
            .regions(regions)
            .cache_layers(cache_layers)
            .build()
    }

    /// `true` for the bank-aware (prioritizing) schemes.
    pub fn is_proposed(self) -> bool {
        matches!(
            self,
            Scenario::SttRam4TsbSs | Scenario::SttRam4TsbRca | Scenario::SttRam4TsbWb
        )
    }
}

/// Section 4.4's BUFF-20 comparison point: STT-RAM banks with a
/// 20-entry read-preemptive write buffer on the unrestricted network.
pub fn buff20_config() -> SystemConfig {
    Scenario::SttRam64Tsb
        .config()
        .rebuild()
        .write_buffer(Some(WriteBufferConfig::default()))
        .build()
}

/// Section 4.4's "+1 VC" variant: the WB scheme with one extra virtual
/// channel per port instead of per-bank write buffers.
pub fn plus_one_vc_config() -> SystemConfig {
    Scenario::SttRam4TsbWb
        .config()
        .rebuild()
        .tune(|c| c.noc.vcs_per_port += 1)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_scenarios_with_unique_names() {
        let names: std::collections::HashSet<_> = Scenario::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn by_name_finds_every_scenario_in_any_ascii_case() {
        for s in Scenario::ALL {
            assert_eq!(Scenario::by_name(s.name()), Some(s));
            assert_eq!(Scenario::by_name(&s.name().to_ascii_lowercase()), Some(s));
        }
        assert_eq!(Scenario::by_name("mram-4tsb"), Some(Scenario::SttRam4Tsb));
        assert_eq!(Scenario::by_name("MRAM-4TSB-"), None);
        assert_eq!(Scenario::by_name("NVRAM-9000"), None);
    }

    #[test]
    fn configs_validate() {
        for s in Scenario::ALL {
            s.config()
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
        }
        buff20_config().validate().unwrap();
        plus_one_vc_config().validate().unwrap();
    }

    #[test]
    fn baseline_is_sram_with_full_path_diversity() {
        let cfg = Scenario::Sram64Tsb.config();
        assert_eq!(cfg.tech, MemTech::Sram);
        assert_eq!(cfg.path_mode, RequestPathMode::AllTsvs);
        assert_eq!(cfg.arbitration, ArbitrationPolicy::RoundRobin);
        assert_eq!(cfg.l2_write_latency(), 3);
    }

    #[test]
    fn wb_scheme_matches_paper() {
        let cfg = Scenario::SttRam4TsbWb.config();
        assert_eq!(cfg.l2_write_latency(), 33);
        assert_eq!(cfg.regions, 4);
        assert_eq!(cfg.parent_hops, 2);
        assert!(matches!(
            cfg.arbitration,
            ArbitrationPolicy::BankAware {
                estimator: Estimator::WindowBased
            }
        ));
    }

    #[test]
    fn buff20_has_a_write_buffer_and_wb_does_not() {
        assert!(buff20_config().write_buffer.is_some());
        assert!(Scenario::SttRam4TsbWb.config().write_buffer.is_none());
    }

    #[test]
    fn plus_one_vc_grows_the_vc_count() {
        assert_eq!(plus_one_vc_config().noc.vcs_per_port, 7);
    }

    #[test]
    fn proposed_flag() {
        assert!(!Scenario::Sram64Tsb.is_proposed());
        assert!(!Scenario::SttRam4Tsb.is_proposed());
        assert!(Scenario::SttRam4TsbWb.is_proposed());
    }
}
