//! Global simulation configuration.
//!
//! [`SystemConfig`] captures every knob of Table 1 and Table 2 of the
//! paper plus the design-space parameters explored in the evaluation
//! (number of logical regions, TSB placement, parent-child hop distance,
//! busy-estimation scheme, write-buffer baseline). The six named design
//! scenarios of Section 4.1 are built on top of this type by the
//! `snoc-core` crate.

/// The memory technology of the L2 banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemTech {
    /// 1 MB SRAM banks: 3-cycle reads and writes.
    Sram,
    /// 4 MB STT-RAM banks: 3-cycle reads, 33-cycle writes.
    SttRam,
}

impl MemTech {
    /// Capacity multiplier relative to the SRAM bank of equal area.
    pub fn capacity_factor(self) -> usize {
        match self {
            MemTech::Sram => 1,
            MemTech::SttRam => 4,
        }
    }
}

/// How core->cache request traffic crosses between the dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestPathMode {
    /// Requests descend at the source node through any of the 64 TSVs
    /// (Z-X-Y routing). Used by the `*-64TSB` scenarios.
    AllTsvs,
    /// Requests are first X-Y routed in the core layer to the TSB of the
    /// destination bank's region, descend there, then X-Y route in the
    /// cache layer. Used by the `*-4TSB` scenarios.
    RegionTsbs,
}

/// Where each region's TSB is placed (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TsbPlacement {
    /// At the innermost corner of each region (towards the mesh centre).
    Corner,
    /// Staggered so that the TSB columns of different regions do not
    /// overlap, avoiding Y-direction flow collisions in the core layer.
    Staggered,
}

/// The congestion-estimation scheme used by bank-aware arbitration
/// (Section 3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Estimator {
    /// Simplistic Scheme: congestion assumed zero.
    Simple,
    /// Regional Congestion Awareness: aggregated buffer-occupancy
    /// estimates propagated over dedicated 8-bit side wires.
    Rca,
    /// Window-Based: every `window`-th request is tagged with an 8-bit
    /// timestamp that the child acknowledges; congestion = RTT/2 minus
    /// the uncontended latency.
    WindowBased,
}

/// The router arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArbitrationPolicy {
    /// Plain round-robin (the paper's baseline routers).
    RoundRobin,
    /// STT-RAM-aware arbitration: parent routers delay requests to busy
    /// child banks and prioritize requests to idle banks, coherence
    /// traffic and memory-controller traffic.
    BankAware {
        /// How the parent estimates congestion towards the child.
        estimator: Estimator,
    },
}

impl ArbitrationPolicy {
    /// `true` if this policy re-orders requests at parent routers.
    pub fn is_bank_aware(self) -> bool {
        matches!(self, ArbitrationPolicy::BankAware { .. })
    }
}

/// Optional per-bank SRAM write buffer (the BUFF-20 comparison point of
/// Section 4.4, after Sun et al. HPCA'09).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WriteBufferConfig {
    /// Number of buffered writes per bank (20 in the paper).
    pub entries: usize,
    /// Extra cycles on every bank access to detect read vs write before
    /// buffer insertion (1 in the paper).
    pub detect_cycles: u64,
    /// Whether a read may preempt an in-progress STT-RAM array write.
    pub read_preemption: bool,
}

impl Default for WriteBufferConfig {
    fn default() -> Self {
        Self {
            entries: 20,
            detect_cycles: 1,
            read_preemption: true,
        }
    }
}

/// NoC parameters (Table 1, "Network Router" and "Network Topology").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NocConfig {
    /// Mesh width of each layer (8).
    pub width: u8,
    /// Mesh height of each layer (8).
    pub height: u8,
    /// Virtual channels per input port (6).
    pub vcs_per_port: usize,
    /// Flit buffer depth per VC (5).
    pub vc_depth: usize,
    /// Payload flits per data packet (8); +1 header flit on the wire.
    pub data_flits: usize,
    /// Router pipeline depth in cycles (2).
    pub router_stages: u64,
    /// Link traversal latency in cycles (1).
    pub link_latency: u64,
    /// Width multiplier of the region TSBs relative to a normal 128b
    /// link (2 for the 256b TSBs; two flits of a packet may cross per
    /// cycle).
    pub tsb_width_factor: usize,
    /// Release slack of held packets: a held request is let go this
    /// many cycles before the predicted bank-idle time to cover
    /// allocation/switch contention on the way.
    pub hold_slack: u64,
    /// Window-based estimator housekeeping period: outstanding tags
    /// are scanned for staleness every this many cycles (1024).
    pub wb_expire_period: u64,
    /// Age beyond which an outstanding WB tag is considered lost and
    /// dropped, freeing the child for a fresh sample (4096).
    pub wb_tag_timeout: u64,
}

impl Default for NocConfig {
    fn default() -> Self {
        Self {
            width: 8,
            height: 8,
            vcs_per_port: 6,
            vc_depth: 5,
            data_flits: 8,
            router_stages: 2,
            link_latency: 1,
            tsb_width_factor: 2,
            hold_slack: 8,
            wb_expire_period: 1024,
            wb_tag_timeout: 4096,
        }
    }
}

/// Memory-hierarchy parameters (Table 1, caches and main memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemConfig {
    /// L1 size in bytes (32 KB).
    pub l1_bytes: usize,
    /// L1 associativity (4).
    pub l1_ways: usize,
    /// Cache block size in bytes (128).
    pub block_bytes: usize,
    /// L1 hit latency in cycles (2).
    pub l1_latency: u64,
    /// L1 MSHR count (32).
    pub l1_mshrs: usize,
    /// SRAM L2 bank size in bytes (1 MB); STT-RAM banks are
    /// `capacity_factor()` times larger.
    pub l2_bank_bytes: usize,
    /// L2 associativity (16).
    pub l2_ways: usize,
    /// L2 bank read (and SRAM write) latency in cycles (3).
    pub l2_read_latency: u64,
    /// STT-RAM write latency in cycles (33).
    pub stt_write_latency: u64,
    /// L2 MSHR count per bank (32).
    pub l2_mshrs: usize,
    /// Bank controller intake queue depth: requests beyond this wait
    /// in the NI and then in the network (the congestion the paper's
    /// scheme avoids).
    pub bank_queue: usize,
    /// DRAM access latency in cycles (320).
    pub dram_latency: u64,
    /// Number of on-chip memory controllers (4, one per cache-layer
    /// corner).
    pub mem_controllers: usize,
    /// Maximum outstanding memory requests per controller (16 per
    /// processor in the paper; modelled per controller).
    pub mc_outstanding: usize,
    /// Number of stacked cache dies (1 = the paper's single cache
    /// layer). Deeper stacks multiply per-bank capacity and add
    /// `stack_hop_latency` per extra die to every bank access,
    /// modelling the vertically-folded bank of MemPool-3D-style
    /// stacking without changing the bank count.
    pub cache_layers: usize,
    /// Extra access cycles per cache die beyond the first (TSV hop up
    /// and down through the stack).
    pub stack_hop_latency: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        Self {
            l1_bytes: 32 * 1024,
            l1_ways: 4,
            block_bytes: 128,
            l1_latency: 2,
            l1_mshrs: 32,
            l2_bank_bytes: 1024 * 1024,
            l2_ways: 16,
            l2_read_latency: 3,
            stt_write_latency: 33,
            l2_mshrs: 32,
            bank_queue: 4,
            dram_latency: 320,
            mem_controllers: 4,
            mc_outstanding: 64,
            cache_layers: 1,
            stack_hop_latency: 2,
        }
    }
}

/// Core-model parameters (Table 1, "Processor Pipeline").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreConfig {
    /// Instruction window entries (128).
    pub window_entries: usize,
    /// Fetch/commit width (2).
    pub width: usize,
    /// Maximum memory operations issued per cycle (1).
    pub mem_ops_per_cycle: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            window_entries: 128,
            width: 2,
            mem_ops_per_cycle: 1,
        }
    }
}

/// The complete configuration of one simulated system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// NoC parameters.
    pub noc: NocConfig,
    /// Memory-hierarchy parameters.
    pub mem: MemConfig,
    /// Core parameters.
    pub core: CoreConfig,
    /// L2 bank technology.
    pub tech: MemTech,
    /// How requests cross between dies.
    pub path_mode: RequestPathMode,
    /// Number of logical cache-layer regions (4, 8 or 16).
    pub regions: usize,
    /// TSB placement within each region.
    pub tsb_placement: TsbPlacement,
    /// Parent-child re-ordering distance in hops (2 in the paper).
    pub parent_hops: u32,
    /// Router arbitration policy.
    pub arbitration: ArbitrationPolicy,
    /// WB-scheme sampling window: every `wb_window`-th request per child
    /// carries a timestamp (100).
    pub wb_window: u32,
    /// Optional per-bank write buffer (the BUFF-20 baseline); `None`
    /// for all six of the paper's design scenarios except Section 4.4.
    pub write_buffer: Option<WriteBufferConfig>,
    /// Warm-up cycles excluded from measurement.
    pub warmup_cycles: u64,
    /// Measured cycles after warm-up.
    pub measure_cycles: u64,
    /// Master RNG seed; identical configs and seeds reproduce runs
    /// bit-for-bit.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            noc: NocConfig::default(),
            mem: MemConfig::default(),
            core: CoreConfig::default(),
            tech: MemTech::Sram,
            path_mode: RequestPathMode::AllTsvs,
            regions: 4,
            tsb_placement: TsbPlacement::Corner,
            parent_hops: 2,
            arbitration: ArbitrationPolicy::RoundRobin,
            wb_window: 100,
            write_buffer: None,
            warmup_cycles: 2_000,
            measure_cycles: 20_000,
            seed: 0xC0FFEE,
        }
    }
}

/// A chainable constructor for [`SystemConfig`].
///
/// The builder is the preferred way to express configuration deltas —
/// scenario definitions, experiment overrides and scale selection all
/// read as one chain instead of ad-hoc field pokes:
///
/// ```
/// use snoc_common::config::{MemTech, RequestPathMode, SystemConfig};
///
/// let cfg = SystemConfig::builder()
///     .tech(MemTech::SttRam)
///     .path_mode(RequestPathMode::RegionTsbs)
///     .cycles(500, 3_000)
///     .build();
/// assert_eq!(cfg.l2_write_latency(), 33);
/// ```
///
/// The plain struct fields stay public, so direct mutation keeps
/// working for existing callers.
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl SystemConfigBuilder {
    /// The L2 bank technology.
    pub fn tech(mut self, tech: MemTech) -> Self {
        self.cfg.tech = tech;
        self
    }

    /// How requests cross between dies.
    pub fn path_mode(mut self, mode: RequestPathMode) -> Self {
        self.cfg.path_mode = mode;
        self
    }

    /// The router arbitration policy.
    pub fn arbitration(mut self, policy: ArbitrationPolicy) -> Self {
        self.cfg.arbitration = policy;
        self
    }

    /// Number of logical cache-layer regions.
    pub fn regions(mut self, regions: usize) -> Self {
        self.cfg.regions = regions;
        self
    }

    /// TSB placement within each region.
    pub fn tsb_placement(mut self, placement: TsbPlacement) -> Self {
        self.cfg.tsb_placement = placement;
        self
    }

    /// Parent-child re-ordering distance in hops.
    pub fn parent_hops(mut self, hops: u32) -> Self {
        self.cfg.parent_hops = hops;
        self
    }

    /// WB-scheme sampling window.
    pub fn wb_window(mut self, window: u32) -> Self {
        self.cfg.wb_window = window;
        self
    }

    /// Number of stacked cache dies.
    pub fn cache_layers(mut self, layers: usize) -> Self {
        self.cfg.mem.cache_layers = layers;
        self
    }

    /// Optional per-bank write buffer.
    pub fn write_buffer(mut self, wb: Option<WriteBufferConfig>) -> Self {
        self.cfg.write_buffer = wb;
        self
    }

    /// Warm-up and measured cycle counts.
    pub fn cycles(mut self, warmup: u64, measure: u64) -> Self {
        self.cfg.warmup_cycles = warmup;
        self.cfg.measure_cycles = measure;
        self
    }

    /// The master RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Replaces the NoC parameter block.
    pub fn noc(mut self, noc: NocConfig) -> Self {
        self.cfg.noc = noc;
        self
    }

    /// Replaces the memory-hierarchy parameter block.
    pub fn mem(mut self, mem: MemConfig) -> Self {
        self.cfg.mem = mem;
        self
    }

    /// Replaces the core parameter block.
    pub fn core(mut self, core: CoreConfig) -> Self {
        self.cfg.core = core;
        self
    }

    /// Escape hatch for knobs without a dedicated method: mutate the
    /// partially-built configuration in place.
    pub fn tune(mut self, f: impl FnOnce(&mut SystemConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the [`SystemConfig::validate`] message if the parameter
    /// combination is unusable.
    pub fn try_build(self) -> Result<SystemConfig, String> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }

    /// Validates and returns the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the parameter combination fails
    /// [`SystemConfig::validate`]; use [`SystemConfigBuilder::try_build`]
    /// to handle that case.
    pub fn build(self) -> SystemConfig {
        match self.try_build() {
            Ok(cfg) => cfg,
            Err(e) => panic!("invalid configuration: {e}"),
        }
    }
}

impl SystemConfig {
    /// A builder seeded with the Table 1 defaults.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder {
            cfg: SystemConfig::default(),
        }
    }

    /// A builder seeded with an existing configuration (for overrides
    /// on top of a scenario or a previous build).
    pub fn rebuild(self) -> SystemConfigBuilder {
        SystemConfigBuilder { cfg: self }
    }

    /// Number of cores (= nodes per layer).
    pub fn cores(&self) -> usize {
        self.noc.width as usize * self.noc.height as usize
    }

    /// Number of L2 banks (= nodes per layer).
    pub fn banks(&self) -> usize {
        self.cores()
    }

    /// The resolved chip geometry: mesh, region tiling, TSB nodes and
    /// stack depth, all derived from this configuration.
    ///
    /// # Panics
    ///
    /// Panics when the mesh cannot be tiled into `regions` equal
    /// rectangles; [`SystemConfig::validate`] rejects such
    /// configurations first on every builder path.
    pub fn geometry(&self) -> crate::geom::Geometry {
        crate::geom::Geometry::new(
            crate::geom::Mesh::new(self.noc.width, self.noc.height),
            self.regions,
            self.tsb_placement,
            self.mem.cache_layers,
        )
    }

    /// Extra cycles on every bank access from dies beyond the first:
    /// `(cache_layers - 1) * stack_hop_latency`.
    pub fn stack_latency(&self) -> u64 {
        (self.mem.cache_layers as u64 - 1) * self.mem.stack_hop_latency
    }

    /// The L2 read service latency including the stack traversal.
    pub fn l2_read_service_latency(&self) -> u64 {
        self.mem.l2_read_latency + self.stack_latency()
    }

    /// The L2 write service latency for the configured technology,
    /// including the stack traversal.
    pub fn l2_write_latency(&self) -> u64 {
        let array = match self.tech {
            MemTech::Sram => self.mem.l2_read_latency,
            MemTech::SttRam => self.mem.stt_write_latency,
        };
        array + self.stack_latency()
    }

    /// Effective per-bank capacity in bytes for the configured
    /// technology and stack depth (the STT-RAM bank is 4x denser at
    /// equal area; each extra cache die folds another bank's worth of
    /// capacity on top).
    pub fn l2_bank_capacity(&self) -> usize {
        self.mem.l2_bank_bytes * self.effective_capacity_factor()
    }

    /// Capacity multiplier relative to a single-layer SRAM bank:
    /// technology density times stack depth.
    pub fn effective_capacity_factor(&self) -> usize {
        self.tech.capacity_factor() * self.mem.cache_layers
    }

    /// The minimum uncontended latency from a parent router to a child
    /// bank `parent_hops` away: one intermediate router per hop beyond
    /// the first plus the link traversals (Section 3.5: "4 cycles" for
    /// 2 hops with a 2-stage router).
    pub fn parent_child_base_latency(&self) -> u64 {
        let hops = self.parent_hops as u64;
        if hops == 0 {
            return 0;
        }
        (hops - 1) * self.noc.router_stages + hops * self.noc.link_latency
    }

    /// Feeds every *modeled* field into `h` for content-addressed
    /// caching.
    ///
    /// The stream is explicit field by field — no derived `Hash` — so
    /// the digest is stable across compiler releases and only changes
    /// when a field is added or its meaning shifts (bump the cell
    /// codec version alongside any such change).
    pub fn hash_into(&self, h: &mut crate::fingerprint::StableHasher) {
        let n = &self.noc;
        h.write_u8(n.width);
        h.write_u8(n.height);
        h.write_usize(n.vcs_per_port);
        h.write_usize(n.vc_depth);
        h.write_usize(n.data_flits);
        h.write_u64(n.router_stages);
        h.write_u64(n.link_latency);
        h.write_usize(n.tsb_width_factor);
        h.write_u64(n.hold_slack);
        h.write_u64(n.wb_expire_period);
        h.write_u64(n.wb_tag_timeout);
        let m = &self.mem;
        h.write_usize(m.l1_bytes);
        h.write_usize(m.l1_ways);
        h.write_usize(m.block_bytes);
        h.write_u64(m.l1_latency);
        h.write_usize(m.l1_mshrs);
        h.write_usize(m.l2_bank_bytes);
        h.write_usize(m.l2_ways);
        h.write_u64(m.l2_read_latency);
        h.write_u64(m.stt_write_latency);
        h.write_usize(m.l2_mshrs);
        h.write_usize(m.bank_queue);
        h.write_u64(m.dram_latency);
        h.write_usize(m.mem_controllers);
        h.write_usize(m.mc_outstanding);
        h.write_usize(m.cache_layers);
        h.write_u64(m.stack_hop_latency);
        let c = &self.core;
        h.write_usize(c.window_entries);
        h.write_usize(c.width);
        h.write_usize(c.mem_ops_per_cycle);
        h.write_u8(match self.tech {
            MemTech::Sram => 0,
            MemTech::SttRam => 1,
        });
        h.write_u8(match self.path_mode {
            RequestPathMode::AllTsvs => 0,
            RequestPathMode::RegionTsbs => 1,
        });
        h.write_usize(self.regions);
        h.write_u8(match self.tsb_placement {
            TsbPlacement::Corner => 0,
            TsbPlacement::Staggered => 1,
        });
        h.write_u32(self.parent_hops);
        match self.arbitration {
            ArbitrationPolicy::RoundRobin => h.write_u8(0),
            ArbitrationPolicy::BankAware { estimator } => {
                h.write_u8(1);
                h.write_u8(match estimator {
                    Estimator::Simple => 0,
                    Estimator::Rca => 1,
                    Estimator::WindowBased => 2,
                });
            }
        }
        h.write_u32(self.wb_window);
        match self.write_buffer {
            None => h.write_none(),
            Some(wb) => {
                h.write_some();
                h.write_usize(wb.entries);
                h.write_u64(wb.detect_cycles);
                h.write_bool(wb.read_preemption);
            }
        }
        h.write_u64(self.warmup_cycles);
        h.write_u64(self.measure_cycles);
        h.write_u64(self.seed);
    }

    /// The stable structural fingerprint of this configuration (all
    /// modeled fields; see [`SystemConfig::hash_into`]).
    pub fn fingerprint(&self) -> crate::fingerprint::Fingerprint {
        let mut h = crate::fingerprint::StableHasher::new();
        self.hash_into(&mut h);
        h.finish()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message if any parameter combination is
    /// unusable (zero regions, regions not dividing the bank count,
    /// zero VCs, etc.).
    pub fn validate(&self) -> Result<(), String> {
        if self.noc.width < 2 || self.noc.height < 2 {
            return Err("mesh must be at least 2x2 (corner memory controllers)".into());
        }
        // The NoC allocator's limits: every traffic class needs a VC,
        // a router's 7 ports x VCs must fit one 64-bit allocation mask,
        // buffer depths and credits are u8, and a wide TSB grant moves
        // at most `snoc_noc::router::MAX_BURST` (4) flits.
        if !(3..=9).contains(&self.noc.vcs_per_port) {
            return Err(format!(
                "vcs_per_port must be in 3..=9 (one VC per traffic class, 7 ports x VCs \
                 within a 64-bit mask), got {}",
                self.noc.vcs_per_port
            ));
        }
        if !(1..=255).contains(&self.noc.vc_depth) {
            return Err(format!(
                "vc_depth must be in 1..=255, got {}",
                self.noc.vc_depth
            ));
        }
        if self.noc.tsb_width_factor > 4 {
            return Err(format!(
                "tsb_width_factor must be at most 4 (the NoC's largest burst), got {}",
                self.noc.tsb_width_factor
            ));
        }
        crate::geom::Geometry::try_new(
            crate::geom::Mesh::new(self.noc.width, self.noc.height),
            self.regions,
            self.tsb_placement,
            self.mem.cache_layers,
        )?;
        if self.parent_hops == 0 {
            return Err("parent_hops must be at least 1".into());
        }
        if self.noc.wb_expire_period == 0 {
            return Err("wb_expire_period must be at least 1".into());
        }
        if self.mem.block_bytes == 0 || !self.mem.block_bytes.is_power_of_two() {
            return Err("block size must be a power of two".into());
        }
        if self.mem.mem_controllers != 4 {
            return Err("exactly 4 memory controllers (one per corner) are supported".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_table1() {
        let c = SystemConfig::default();
        assert_eq!(c.cores(), 64);
        assert_eq!(c.banks(), 64);
        assert_eq!(c.noc.vcs_per_port, 6);
        assert_eq!(c.noc.vc_depth, 5);
        assert_eq!(c.noc.data_flits, 8);
        assert_eq!(c.mem.dram_latency, 320);
        assert_eq!(c.mem.mem_controllers, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn write_latency_depends_on_tech() {
        let mut c = SystemConfig::default();
        assert_eq!(c.l2_write_latency(), 3);
        c.tech = MemTech::SttRam;
        assert_eq!(c.l2_write_latency(), 33);
        assert_eq!(c.l2_bank_capacity(), 4 * 1024 * 1024);
    }

    #[test]
    fn parent_child_base_latency_is_4_for_two_hops() {
        // Section 3.5: one intermediate router (2 cycles) + 2 links.
        let c = SystemConfig::default();
        assert_eq!(c.parent_child_base_latency(), 4);
    }

    #[test]
    fn validation_rejects_bad_region_counts() {
        let mut c = SystemConfig {
            regions: 3,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());
        c.regions = 0;
        assert!(c.validate().is_err());
        c.regions = 16;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_vc_counts_the_allocator_cannot_represent() {
        let with_vcs = |vcs| {
            let mut c = SystemConfig::default();
            c.noc.vcs_per_port = vcs;
            c.validate()
        };
        for vcs in [0, 1, 2, 10, 64] {
            assert!(with_vcs(vcs).is_err(), "{vcs} VCs must be rejected");
        }
        for vcs in 3..=9 {
            assert!(with_vcs(vcs).is_ok(), "{vcs} VCs must validate");
        }
    }

    #[test]
    fn validation_rejects_vc_depths_past_a_u8_credit() {
        let with_depth = |depth| {
            let mut c = SystemConfig::default();
            c.noc.vc_depth = depth;
            c.validate()
        };
        assert!(with_depth(0).is_err());
        assert!(with_depth(1).is_ok());
        assert!(with_depth(255).is_ok());
        assert!(with_depth(256).is_err());
    }

    #[test]
    fn validation_rejects_tsb_widths_past_the_burst_bound() {
        let with_width = |w| {
            let mut c = SystemConfig::default();
            c.noc.tsb_width_factor = w;
            c.validate()
        };
        assert!(with_width(4).is_ok());
        assert!(with_width(5).is_err());
    }

    #[test]
    fn builder_matches_field_pokes() {
        let built = SystemConfig::builder()
            .tech(MemTech::SttRam)
            .path_mode(RequestPathMode::RegionTsbs)
            .arbitration(ArbitrationPolicy::BankAware {
                estimator: Estimator::WindowBased,
            })
            .regions(8)
            .tsb_placement(TsbPlacement::Staggered)
            .parent_hops(3)
            .wb_window(50)
            .cycles(100, 900)
            .seed(7)
            .build();
        let poked = SystemConfig {
            tech: MemTech::SttRam,
            path_mode: RequestPathMode::RegionTsbs,
            arbitration: ArbitrationPolicy::BankAware {
                estimator: Estimator::WindowBased,
            },
            regions: 8,
            tsb_placement: TsbPlacement::Staggered,
            parent_hops: 3,
            wb_window: 50,
            warmup_cycles: 100,
            measure_cycles: 900,
            seed: 7,
            ..SystemConfig::default()
        };
        assert_eq!(built, poked);
    }

    #[test]
    fn builder_validates_on_build() {
        assert!(SystemConfig::builder().regions(3).try_build().is_err());
        let rebuilt = SystemConfig::default()
            .rebuild()
            .tune(|c| c.noc.vcs_per_port = 9)
            .build();
        assert_eq!(rebuilt.noc.vcs_per_port, 9);
    }

    #[test]
    #[should_panic(expected = "invalid configuration")]
    fn builder_build_panics_on_invalid() {
        SystemConfig::builder().regions(0).build();
    }

    #[test]
    fn fingerprint_sees_every_modeled_knob() {
        let base = SystemConfig::default();
        let tweaks: Vec<SystemConfig> = vec![
            base.rebuild().seed(base.seed + 1).build(),
            base.rebuild().tech(MemTech::SttRam).build(),
            base.rebuild().cycles(100, 400).build(),
            base.rebuild().regions(16).build(),
            base.rebuild()
                .arbitration(ArbitrationPolicy::BankAware {
                    estimator: Estimator::WindowBased,
                })
                .build(),
            base.rebuild()
                .write_buffer(Some(WriteBufferConfig::default()))
                .build(),
            base.rebuild().tune(|c| c.noc.vc_depth = 6).build(),
            base.rebuild().tune(|c| c.mem.bank_queue = 5).build(),
            base.rebuild().cache_layers(2).build(),
            base.rebuild().tune(|c| c.mem.stack_hop_latency = 3).build(),
        ];
        let mut seen = vec![base.fingerprint()];
        for cfg in tweaks {
            let fp = cfg.fingerprint();
            assert!(!seen.contains(&fp), "fingerprint collision for {cfg:?}");
            seen.push(fp);
        }
    }

    #[test]
    fn stacked_cache_layers_scale_capacity_and_latency() {
        let single = SystemConfig::builder().tech(MemTech::SttRam).build();
        assert_eq!(single.stack_latency(), 0);
        assert_eq!(single.l2_read_service_latency(), 3);
        assert_eq!(single.l2_write_latency(), 33);
        assert_eq!(single.effective_capacity_factor(), 4);
        let stacked = single.rebuild().cache_layers(2).build();
        assert_eq!(stacked.stack_latency(), 2);
        assert_eq!(stacked.l2_read_service_latency(), 5);
        assert_eq!(stacked.l2_write_latency(), 35);
        assert_eq!(stacked.effective_capacity_factor(), 8);
        assert_eq!(stacked.l2_bank_capacity(), 8 * 1024 * 1024);
        assert!(SystemConfig::builder()
            .tune(|c| c.mem.cache_layers = 0)
            .try_build()
            .is_err());
    }

    #[test]
    fn validation_generalizes_beyond_8x8() {
        let sixteen = SystemConfig::builder()
            .tune(|c| {
                c.noc.width = 16;
                c.noc.height = 16;
            })
            .regions(16)
            .build();
        assert_eq!(sixteen.cores(), 256);
        assert_eq!(sixteen.geometry().tsb_nodes().len(), 16);
        assert!(SystemConfig::builder()
            .tune(|c| c.noc.width = 1)
            .try_build()
            .is_err());
        // 5 regions cannot tile an 8x8 mesh even though 5 fails the
        // divisibility test too; 2 regions can.
        assert!(SystemConfig::builder().regions(5).try_build().is_err());
        assert!(SystemConfig::builder().regions(2).try_build().is_ok());
    }

    #[test]
    fn bank_aware_flag() {
        assert!(!ArbitrationPolicy::RoundRobin.is_bank_aware());
        assert!(ArbitrationPolicy::BankAware {
            estimator: Estimator::WindowBased
        }
        .is_bank_aware());
    }
}
