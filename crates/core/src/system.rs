//! The assembled 3D CMP: 64 cores + L1s on the top die, 64 L2 banks +
//! 4 memory controllers on the bottom die, joined by the STT-RAM-aware
//! NoC.
//!
//! The system runs in one of two drive modes:
//!
//! * [`DriveMode::Profile`] — cores execute profile-driven streams;
//!   hit/miss classification rides in the generated addresses and the
//!   banks run tagless ([`TagMode::Probabilistic`]). The L2-side
//!   traffic matches Table 3 by construction. Used for the figure
//!   reproductions.
//! * [`DriveMode::FullStack`] — real L1 tag arrays and the MESI
//!   directory; coherence traffic (invalidations, forwards, writebacks
//!   through the home bank) emerges organically.
//!
//! One `System` simulates one cell: [`System::new`] builds it,
//! [`System::run`] drives warm-up and measurement, and the sweep
//! runner drops it when the cell ends. No state carries over to the
//! next cell, which gets a `System` of its own.

use crate::metrics::RunMetrics;
use snoc_common::config::SystemConfig;
use snoc_common::geom::{Coord, Layer, Mesh};
use snoc_common::ids::{BankId, CoreId, McId, NodeId};
use snoc_common::stats::{Accumulator, Histogram, Reservoir};
use snoc_common::Cycle;
use snoc_cpu::{Instr, InstructionStream, Issue, MemPort, OooCore};
use snoc_energy::{EnergyBreakdown, UncoreActivity};
use snoc_mem::l2bank::TagMode;
use snoc_mem::mem_ctrl::Fill;
use snoc_mem::protocol::{BankIn, BankMsg, L1In, L1Msg};
use snoc_mem::tech::TechParams;
use snoc_mem::{L1Cache, L2Bank, MemoryController};
use snoc_noc::{Network, NetworkParams, NocEnv, Packet, PacketKind, TrafficClass};
use snoc_workload::mixes::Workload;
use snoc_workload::{generator, BenchmarkProfile, FullStackStream, ProfileStream};
use std::collections::HashMap;

/// How the cores are driven (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveMode {
    /// Profile-driven, tagless banks.
    Profile,
    /// Real L1/L2 tags and MESI coherence.
    FullStack,
}

/// Voluntary PutM / InvAck marker token.
const PLAIN_TOKEN: u64 = u64::MAX;
/// Marks a Writeback/Ack as a forward response; low bits carry the
/// home transaction id.
const FWD_FLAG: u64 = 1 << 62;

fn compose_token(core: CoreId, token: u64) -> u64 {
    ((core.index() as u64) << 32) | (token & 0xFFFF_FFFF)
}

fn core_of_token(token: u64) -> CoreId {
    CoreId::new(((token >> 32) & 0xFFFF) as u16)
}

enum Stream {
    Profile(ProfileStream),
    Full(FullStackStream),
}

impl InstructionStream for Stream {
    fn next_instr(&mut self) -> Instr {
        match self {
            Stream::Profile(s) => s.next_instr(),
            Stream::Full(s) => s.next_instr(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingRead {
    core: CoreId,
    token: u64,
    issued: Cycle,
}

/// The complete simulated chip.
pub struct System {
    cfg: SystemConfig,
    mode: DriveMode,
    mesh: Mesh,
    net: Network,
    cores: Vec<OooCore>,
    streams: Vec<Stream>,
    l1s: Vec<L1Cache>,
    banks: Vec<L2Bank>,
    mcs: Vec<MemoryController>,
    mc_nodes: Vec<NodeId>,
    now: Cycle,
    pending_reads: HashMap<u64, PendingRead>,
    full_issue: HashMap<(u16, u64), Cycle>,
    uncore_rtt: Accumulator,
    uncore_rtt_tail: Reservoir,
    commit_base: Vec<u64>,
    /// Maximum packets allowed in a core NI's injection queue before
    /// the core stalls (models a bounded L1 writeback buffer).
    inject_cap: usize,
    /// Persistent sink for [`MemoryController::tick`] completions —
    /// cleared and refilled each cycle instead of allocating.
    fill_sink: Vec<Fill>,
    /// Persistent snapshot of [`Network::delivery_nodes`], refilled
    /// each cycle.
    delivery_nodes: Vec<u64>,
}

impl System {
    /// Builds a system running `workload` (one profile per core) in
    /// the given mode, with no NoC instrumentation (see
    /// [`System::enable_audit`], [`System::enable_telemetry`] and
    /// [`System::enable_faults`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SystemConfig::validate`] or
    /// the workload does not cover every core.
    pub fn new(cfg: SystemConfig, workload: &Workload, mode: DriveMode) -> Self {
        cfg.validate().expect("valid configuration");
        assert_eq!(workload.apps.len(), cfg.cores(), "one application per core");
        let banks_n = cfg.banks();
        let cap_factor = cfg.effective_capacity_factor();
        let tag_mode = match mode {
            DriveMode::Profile => TagMode::Probabilistic,
            DriveMode::FullStack => TagMode::Real,
        };
        let w = cfg.noc.width as u16;
        let h = cfg.noc.height as u16;
        Self {
            cfg,
            mode,
            mesh: Mesh::new(cfg.noc.width, cfg.noc.height),
            net: Network::new(NetworkParams::resolve(&cfg, &NocEnv::default())),
            now: 0,
            pending_reads: HashMap::new(),
            full_issue: HashMap::new(),
            uncore_rtt: Accumulator::new(),
            uncore_rtt_tail: Reservoir::new(4096),
            inject_cap: 24,
            fill_sink: Vec::new(),
            delivery_nodes: Vec::new(),
            cores: (0..cfg.cores())
                .map(|i| OooCore::new(CoreId::new(i as u16), cfg.core))
                .collect(),
            streams: workload
                .apps
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let core = CoreId::new(i as u16);
                    match mode {
                        DriveMode::Profile => Stream::Profile(ProfileStream::new(
                            p, core, banks_n, cap_factor, cfg.seed,
                        )),
                        DriveMode::FullStack => {
                            Stream::Full(FullStackStream::new(p, core, banks_n, cfg.seed))
                        }
                    }
                })
                .collect(),
            l1s: (0..cfg.cores())
                .map(|i| L1Cache::new(CoreId::new(i as u16), &cfg.mem, banks_n))
                .collect(),
            banks: (0..banks_n)
                .map(|i| {
                    L2Bank::new(
                        BankId::new(i as u16),
                        &cfg.mem,
                        cfg.tech,
                        cfg.write_buffer,
                        tag_mode,
                    )
                })
                .collect(),
            mc_nodes: [0, w - 1, (h - 1) * w, h * w - 1]
                .into_iter()
                .map(NodeId::new)
                .collect(),
            mcs: (0..cfg.mem.mem_controllers)
                .map(|i| {
                    MemoryController::new(
                        McId::new(i as u16),
                        cfg.mem.dram_latency,
                        cfg.mem.mc_outstanding,
                    )
                })
                .collect(),
            commit_base: vec![0; cfg.cores()],
        }
    }

    /// All 64 cores run `profile` in profile-driven mode (the standard
    /// setup for the figure reproductions).
    pub fn homogeneous(cfg: SystemConfig, profile: &'static BenchmarkProfile) -> Self {
        let cores = cfg.cores();
        let workload = Workload {
            name: profile.name.to_string(),
            apps: vec![profile; cores],
        };
        Self::new(cfg, &workload, DriveMode::Profile)
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The network (instrumentation).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The banks (instrumentation).
    pub fn banks(&self) -> &[L2Bank] {
        &self.banks
    }

    /// The cores (instrumentation).
    pub fn cores(&self) -> &[OooCore] {
        &self.cores
    }

    fn core_coord(&self, core: CoreId) -> Coord {
        self.mesh.coord(core.node(), Layer::Core)
    }

    fn cache_coord(&self, bank: BankId) -> Coord {
        self.mesh.coord(bank.node(), Layer::Cache)
    }

    fn mc_index(&self, block: u64) -> usize {
        ((block >> 7) % self.mcs.len() as u64) as usize
    }

    fn mc_coord(&self, block: u64) -> Coord {
        self.mesh
            .coord(self.mc_nodes[self.mc_index(block)], Layer::Cache)
    }

    fn l1msg_to_packet(&self, core: CoreId, msg: L1Msg) -> Packet {
        let src = self.core_coord(core);
        let dst = self.cache_coord(msg.home());
        match msg {
            L1Msg::GetS { block, .. } => Packet::new(
                PacketKind::BankRead,
                src,
                dst,
                block,
                compose_token(core, 0),
            ),
            L1Msg::GetM { block, .. } => Packet::new(
                PacketKind::BankWrite,
                src,
                dst,
                block,
                compose_token(core, 0),
            ),
            L1Msg::PutM { block, .. } => {
                Packet::new(PacketKind::Writeback, src, dst, block, PLAIN_TOKEN)
            }
            L1Msg::FwdData { block, txn, .. } => {
                Packet::new(PacketKind::Writeback, src, dst, block, FWD_FLAG | txn)
            }
            L1Msg::FwdMiss { block, txn, .. } => {
                Packet::new(PacketKind::Ack, src, dst, block, FWD_FLAG | txn)
            }
            L1Msg::InvAck { block, .. } => {
                Packet::new(PacketKind::Ack, src, dst, block, PLAIN_TOKEN)
            }
        }
    }

    fn bankmsg_to_packet(&self, bank: BankId, msg: BankMsg) -> Packet {
        let src = self.cache_coord(bank);
        match msg {
            BankMsg::Data {
                block,
                to,
                exclusive,
            } => Packet::new(
                PacketKind::DataReply,
                src,
                self.core_coord(to),
                block,
                exclusive as u64,
            ),
            BankMsg::Inv { block, to } => {
                Packet::new(PacketKind::Inv, src, self.core_coord(to), block, 0)
            }
            BankMsg::FwdGetS { block, to, txn } => {
                Packet::new(PacketKind::Fwd, src, self.core_coord(to), block, txn << 1)
            }
            BankMsg::FwdGetM { block, to, txn } => Packet::new(
                PacketKind::Fwd,
                src,
                self.core_coord(to),
                block,
                (txn << 1) | 1,
            ),
            BankMsg::Fetch { block } => Packet::new(
                PacketKind::MemFetch,
                src,
                self.mc_coord(block),
                block,
                bank.raw() as u64,
            ),
            BankMsg::WriteMem { block } => Packet::new(
                PacketKind::MemWriteback,
                src,
                self.mc_coord(block),
                block,
                bank.raw() as u64,
            ),
        }
    }

    /// Advances the whole chip by one cycle.
    pub fn step(&mut self) {
        let now = self.now;

        // 1. Cores fetch/issue/commit.
        {
            let mesh = self.mesh;
            let mode = self.mode;
            let l1_latency = self.cfg.mem.l1_latency;
            let inject_cap = self.inject_cap;
            for i in 0..self.cores.len() {
                let mut port = CorePort {
                    mode,
                    mesh,
                    net: &mut self.net,
                    l1: &mut self.l1s[i],
                    pending_reads: &mut self.pending_reads,
                    full_issue: &mut self.full_issue,
                    l1_latency,
                    inject_cap,
                };
                self.cores[i].tick(now, &mut self.streams[i], &mut port);
            }
        }

        // 2. The network moves flits.
        self.net.step();

        // 3. Deliveries, at the nodes whose NIs hold delivered packets
        // (ascending, cache side first). Bank intake is bounded: a
        // busy bank admits nothing new, so requests pile up in its NI
        // and then in the network — the congestion the bank-aware
        // schemes avoid. Deliveries only inject, so no outbox fills
        // during this loop and the snapshot stays complete.
        let mut nodes = std::mem::take(&mut self.delivery_nodes);
        self.net.delivery_nodes(&mut nodes);
        for (w, &bits) in nodes.iter().enumerate() {
            let mut word = bits;
            while word != 0 {
                let node_idx = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                let node = NodeId::new(node_idx as u16);
                let cache_at = self.mesh.coord(node, Layer::Cache);
                let room = self
                    .cfg
                    .mem
                    .bank_queue
                    .saturating_sub(self.banks[node_idx].controller().queue_len());
                for pkt in self.net.drain_delivered_up_to(cache_at, room) {
                    self.deliver_cache(node, pkt, now);
                }
                let core_at = self.mesh.coord(node, Layer::Core);
                for pkt in self.net.drain_delivered(core_at) {
                    self.deliver_core(node, pkt, now);
                }
            }
        }
        self.delivery_nodes = nodes;

        // 4. Banks service their queues; ticking an idle bank is a
        // no-op, so only busy ones are visited.
        for b in 0..self.banks.len() {
            if self.banks[b].is_idle() {
                continue;
            }
            let msgs = self.banks[b].tick(now);
            let bank = BankId::new(b as u16);
            for m in msgs {
                let p = self.bankmsg_to_packet(bank, m);
                self.net.inject(p);
            }
        }

        // 5. Memory controllers.
        let mut fills = std::mem::take(&mut self.fill_sink);
        for m in 0..self.mcs.len() {
            fills.clear();
            self.mcs[m].tick(now, &mut fills);
            let src = self.mesh.coord(self.mc_nodes[m], Layer::Cache);
            for f in &fills {
                let dst = self.cache_coord(f.to);
                self.net
                    .inject(Packet::new(PacketKind::MemFill, src, dst, f.block, 0));
            }
        }
        self.fill_sink = fills;

        self.now += 1;
    }

    fn deliver_cache(&mut self, node: NodeId, pkt: Packet, now: Cycle) {
        // Memory-controller traffic terminates at the corner MCs.
        match pkt.kind {
            PacketKind::MemFetch => {
                let mc = self.mc_index(pkt.addr);
                debug_assert_eq!(self.mc_nodes[mc], node, "fetch routed to its MC");
                self.mcs[mc].fetch(pkt.addr, BankId::new(pkt.token as u16), now);
                return;
            }
            PacketKind::MemWriteback => {
                let mc = self.mc_index(pkt.addr);
                self.mcs[mc].write(pkt.addr, BankId::new(pkt.token as u16), now);
                return;
            }
            _ => {}
        }
        let bank_id = BankId::new(node.raw());
        let from = self.mesh.node(Coord {
            layer: Layer::Core,
            ..pkt.src
        });
        let from_core = CoreId::new(from.raw());
        let forced_miss = generator::decode(pkt.addr).map(|a| a.miss).unwrap_or(false);
        let msg = match pkt.kind {
            PacketKind::BankRead => BankIn::GetS {
                block: pkt.addr,
                from: core_of_token(pkt.token),
            },
            PacketKind::BankWrite => BankIn::GetM {
                block: pkt.addr,
                from: core_of_token(pkt.token),
            },
            PacketKind::Writeback => {
                if pkt.token & FWD_FLAG != 0 {
                    BankIn::FwdData {
                        block: pkt.addr,
                        from: from_core,
                        txn: pkt.token & !FWD_FLAG,
                    }
                } else {
                    BankIn::PutM {
                        block: pkt.addr,
                        from: from_core,
                    }
                }
            }
            PacketKind::Ack => {
                if pkt.token & FWD_FLAG != 0 {
                    BankIn::FwdMiss {
                        block: pkt.addr,
                        from: from_core,
                        txn: pkt.token & !FWD_FLAG,
                    }
                } else {
                    BankIn::InvAck {
                        block: pkt.addr,
                        from: from_core,
                    }
                }
            }
            PacketKind::MemFill => BankIn::Fill { block: pkt.addr },
            other => unreachable!("unexpected packet at a cache node: {other:?}"),
        };
        // Timestamp jobs with the packet's arrival at the interface so
        // the NI wait counts as bank-side queuing (Figure 7's split).
        let arrived = pkt.ejected_at.min(now);
        let replies = self.banks[bank_id.index()].handle(msg, forced_miss, arrived);
        for m in replies {
            let p = self.bankmsg_to_packet(bank_id, m);
            self.net.inject(p);
        }
    }

    fn deliver_core(&mut self, node: NodeId, pkt: Packet, now: Cycle) {
        let core = CoreId::new(node.raw());
        match pkt.kind {
            PacketKind::DataReply => match self.mode {
                DriveMode::Profile => {
                    if let Some(p) = self.pending_reads.remove(&pkt.addr) {
                        self.cores[p.core.index()].complete(p.token, now);
                        self.uncore_rtt.record((now - p.issued) as f64);
                        self.uncore_rtt_tail.record((now - p.issued) as f64);
                    }
                }
                DriveMode::FullStack => {
                    if let Some(issued) = self.full_issue.remove(&(core.raw(), pkt.addr)) {
                        self.uncore_rtt.record((now - issued) as f64);
                        self.uncore_rtt_tail.record((now - issued) as f64);
                    }
                    let exclusive = pkt.token & 1 == 1;
                    let (msgs, retired) = self.l1s[core.index()].handle(L1In::Data {
                        block: pkt.addr,
                        exclusive,
                    });
                    for t in retired {
                        self.cores[core.index()].complete(t, now);
                    }
                    for m in msgs {
                        let p = self.l1msg_to_packet(core, m);
                        self.net.inject(p);
                    }
                }
            },
            PacketKind::Inv | PacketKind::Fwd => {
                let home_node = self.mesh.node(Coord {
                    layer: Layer::Cache,
                    ..pkt.src
                });
                let home = BankId::new(home_node.raw());
                let msg = match pkt.kind {
                    PacketKind::Inv => L1In::Inv {
                        block: pkt.addr,
                        home,
                    },
                    PacketKind::Fwd if pkt.token & 1 == 1 => L1In::FwdGetM {
                        block: pkt.addr,
                        home,
                        txn: pkt.token >> 1,
                    },
                    _ => L1In::FwdGetS {
                        block: pkt.addr,
                        home,
                        txn: pkt.token >> 1,
                    },
                };
                let (msgs, retired) = self.l1s[core.index()].handle(msg);
                for t in retired {
                    self.cores[core.index()].complete(t, now);
                }
                for m in msgs {
                    let p = self.l1msg_to_packet(core, m);
                    self.net.inject(p);
                }
            }
            other => unreachable!("unexpected packet at a core node: {other:?}"),
        }
    }

    /// Marks the end of warm-up: clears all statistics without
    /// disturbing in-flight state.
    pub fn begin_measurement(&mut self) {
        self.net.reset_stats();
        for b in &mut self.banks {
            b.reset_stats();
        }
        for m in &mut self.mcs {
            m.reset_stats();
        }
        self.uncore_rtt = Accumulator::new();
        self.uncore_rtt_tail = Reservoir::new(4096);
        for (i, c) in self.cores.iter().enumerate() {
            self.commit_base[i] = c.committed();
        }
    }

    /// Collects the metrics accumulated since
    /// [`System::begin_measurement`] over `cycles` measured cycles.
    pub fn metrics(&self, cycles: u64) -> RunMetrics {
        let per_core_committed: Vec<u64> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| c.committed() - self.commit_base[i])
            .collect();
        let mut queue_wait = Accumulator::new();
        let mut gaps = Histogram::fig3();
        let (mut reads, mut writes, mut busy, mut behind, mut after, mut fetches) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for b in &self.banks {
            let t = b.timing();
            queue_wait.merge(&t.queue_wait);
            gaps.merge(&t.post_write_gaps);
            reads += t.reads;
            writes += t.writes;
            busy += t.busy_cycles;
            behind += t.arrivals_behind_write;
            after += t.arrivals_after_write;
            fetches += b.stats.fetches;
        }
        let accesses = (reads + writes).max(1);
        let ns = self.net.stats();
        let activity = UncoreActivity {
            cycles,
            routers: 2 * self.mesh.nodes_per_layer(),
            banks: self.banks.len(),
            buffer_writes: self.net.buffer_writes(),
            switch_traversals: self.net.switch_traversals(),
            lateral_flits: ns.lateral_flits,
            vertical_flits: ns.vertical_flits,
            bank_reads: reads,
            bank_writes: writes,
        };
        let energy = EnergyBreakdown::compute(&activity, TechParams::of(self.cfg.tech), 3.0);
        RunMetrics {
            cycles,
            per_core_committed,
            net_request_latency: ns.request_latency.mean(),
            net_response_latency: ns.response_latency.mean(),
            bank_queue_wait: queue_wait.mean(),
            bank_service: busy as f64 / accesses as f64,
            uncore_rtt: self.uncore_rtt.mean(),
            uncore_rtt_p95: self.uncore_rtt_tail.p95(),
            bank_reads: reads,
            bank_writes: writes,
            mem_fetches: fetches,
            post_write_gaps: gaps,
            delayable_fraction: if after == 0 {
                0.0
            } else {
                behind as f64 / after as f64
            },
            child_queue_mean: self.net.child_queue_mean(),
            queue_mean_by_hops: [
                self.net.queue_mean_at_hops(1),
                self.net.queue_mean_at_hops(2),
                self.net.queue_mean_at_hops(3),
            ],
            held_packets: self.net.held_packets(),
            held_cycles: self.net.held_cycles(),
            energy,
            audit: self.net.audit_report().cloned(),
            telemetry: self.net.telemetry_summary(),
            faults: self.net.fault_summary(),
        }
    }

    /// Switches on NoC fault injection for this run. The summary lands
    /// in [`RunMetrics::faults`].
    pub fn enable_faults(&mut self, plan: snoc_noc::FaultPlan) {
        self.net.enable_faults(plan);
    }

    /// Switches on NoC invariant auditing for this run. The report
    /// lands in [`RunMetrics::audit`].
    pub fn enable_audit(&mut self, cfg: snoc_noc::AuditConfig) {
        self.net.enable_audit(cfg);
    }

    /// Switches on NoC telemetry collection for this run. The summary
    /// lands in [`RunMetrics::telemetry`].
    pub fn enable_telemetry(&mut self, cfg: snoc_noc::TelemetryConfig) {
        self.net.enable_telemetry(cfg);
    }

    /// Runs warm-up then the measurement window and returns the
    /// metrics.
    pub fn run(&mut self) -> RunMetrics {
        for _ in 0..self.cfg.warmup_cycles {
            self.step();
        }
        self.begin_measurement();
        for _ in 0..self.cfg.measure_cycles {
            self.step();
        }
        self.metrics(self.cfg.measure_cycles)
    }
}

/// The per-core memory port wiring the window model to the L1 (full
/// stack) or directly to the network (profile mode).
struct CorePort<'a> {
    mode: DriveMode,
    mesh: Mesh,
    net: &'a mut Network,
    l1: &'a mut L1Cache,
    pending_reads: &'a mut HashMap<u64, PendingRead>,
    full_issue: &'a mut HashMap<(u16, u64), Cycle>,
    l1_latency: u64,
    inject_cap: usize,
}

impl MemPort for CorePort<'_> {
    fn issue(&mut self, core: CoreId, addr: u64, is_write: bool, token: u64, now: Cycle) -> Issue {
        match self.mode {
            DriveMode::Profile => {
                let acc = generator::decode(addr).expect("profile streams encode addresses");
                if !acc.l2 {
                    return Issue::Done(now + self.l1_latency);
                }
                let src = self.mesh.coord(core.node(), Layer::Core);
                if self.net.inject_backlog(src) >= self.inject_cap {
                    return Issue::Retry;
                }
                let dst = self.mesh.coord(BankId::new(acc.bank).node(), Layer::Cache);
                // Both reads and writes are 1-flit address packets
                // from the core (Table 1); the write's data transfer
                // rides the unrestricted response path. The window
                // slot blocks until the bank answers.
                let kind = if is_write {
                    PacketKind::BankWrite
                } else {
                    PacketKind::BankRead
                };
                let full = compose_token(core, token);
                self.net.inject(Packet::new(kind, src, dst, addr, full));
                self.pending_reads.insert(
                    addr,
                    PendingRead {
                        core,
                        token,
                        issued: now,
                    },
                );
                Issue::Pending
            }
            DriveMode::FullStack => {
                let src = self.mesh.coord(core.node(), Layer::Core);
                if self.net.inject_backlog(src) >= self.inject_cap {
                    return Issue::Retry;
                }
                let (outcome, msgs) = self.l1.access(addr, is_write, token);
                let block = self.l1.block_of(addr);
                for m in &msgs {
                    let p = match m {
                        L1Msg::GetS { block, home } => Packet::new(
                            PacketKind::BankRead,
                            src,
                            self.mesh.coord(home.node(), Layer::Cache),
                            *block,
                            compose_token(core, 0),
                        ),
                        L1Msg::GetM { block, home } => Packet::new(
                            PacketKind::BankWrite,
                            src,
                            self.mesh.coord(home.node(), Layer::Cache),
                            *block,
                            compose_token(core, 0),
                        ),
                        other => {
                            unreachable!("access only produces GetS/GetM, got {other:?}")
                        }
                    };
                    self.net.inject(p);
                }
                match outcome {
                    snoc_mem::l1::AccessOutcome::Hit => Issue::Done(now + self.l1_latency),
                    snoc_mem::l1::AccessOutcome::Miss => {
                        self.full_issue.entry((core.raw(), block)).or_insert(now);
                        Issue::Pending
                    }
                    snoc_mem::l1::AccessOutcome::Blocked => Issue::Retry,
                }
            }
        }
    }
}

// A compile-time reminder that TrafficClass stays in sync with the
// packet kinds used here.
const _: fn(PacketKind) -> TrafficClass = PacketKind::class;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use snoc_workload::table3;

    fn small_cfg(s: Scenario) -> SystemConfig {
        let mut cfg = s.config();
        cfg.warmup_cycles = 300;
        cfg.measure_cycles = 2_000;
        cfg
    }

    #[test]
    fn profile_system_runs_and_commits() {
        let p = table3::by_name("tpcc").unwrap();
        let mut sys = System::homogeneous(small_cfg(Scenario::Sram64Tsb), p);
        let m = sys.run();
        assert!(
            m.instruction_throughput() > 1.0,
            "it={}",
            m.instruction_throughput()
        );
        assert!(m.bank_reads > 0);
        assert!(m.bank_writes > 0, "tpcc is write-heavy");
        assert!(
            m.uncore_rtt > 10.0,
            "reads take a round trip: {}",
            m.uncore_rtt
        );
    }

    #[test]
    fn stt_write_latency_hurts_write_heavy_apps() {
        let p = table3::by_name("tpcc").unwrap();
        let sram = System::homogeneous(small_cfg(Scenario::Sram64Tsb), p).run();
        let stt = System::homogeneous(small_cfg(Scenario::SttRam64Tsb), p).run();
        assert!(
            stt.bank_queue_wait > sram.bank_queue_wait * 1.5,
            "33-cycle writes must queue: sram {} vs stt {}",
            sram.bank_queue_wait,
            stt.bank_queue_wait
        );
    }

    #[test]
    fn full_stack_system_generates_coherence() {
        let p = table3::by_name("sclust").unwrap(); // multithreaded, write-heavy
        let cfg = small_cfg(Scenario::SttRam64Tsb);
        let cores = cfg.cores();
        let w = Workload {
            name: "sclust".into(),
            apps: vec![p; cores],
        };
        let mut sys = System::new(cfg, &w, DriveMode::FullStack);
        let m = sys.run();
        assert!(m.instruction_throughput() > 0.5);
        assert!(m.bank_reads > 0);
        let coh: u64 = sys
            .l1s
            .iter()
            .map(|l| l.stats.invalidations + l.stats.forwards)
            .sum();
        assert!(coh > 0, "shared blocks must create coherence traffic");
    }

    #[test]
    fn wb_scheme_holds_packets_for_bursty_writes() {
        let p = table3::by_name("lbm").unwrap();
        let mut sys = System::homogeneous(small_cfg(Scenario::SttRam4TsbWb), p);
        let m = sys.run();
        assert!(
            m.held_packets > 0,
            "bank-aware parents must delay some requests"
        );
        assert!(m.instruction_throughput() > 0.0);
    }

    #[test]
    fn deterministic_replay() {
        let p = table3::by_name("sap").unwrap();
        let run = || {
            let m = System::homogeneous(small_cfg(Scenario::SttRam4TsbWb), p).run();
            (
                m.per_core_committed.clone(),
                m.bank_reads,
                m.bank_writes,
                m.held_packets,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mem_fetches_reach_the_controllers() {
        let p = table3::by_name("milc").unwrap(); // streaming: misses a lot
        let mut sys = System::homogeneous(small_cfg(Scenario::SttRam64Tsb), p);
        let m = sys.run();
        assert!(m.mem_fetches > 0, "streaming app must fetch from memory");
        let serviced: u64 = sys.mcs.iter().map(|mc| mc.stats.fetches).sum();
        assert!(serviced > 0);
    }

    #[test]
    fn fig3_instrumentation_collects_gaps() {
        let p = table3::by_name("tpcc").unwrap();
        let mut sys = System::homogeneous(small_cfg(Scenario::SttRam64Tsb), p);
        let m = sys.run();
        assert!(m.post_write_gaps.total() > 0);
        assert!(m.delayable_fraction > 0.0 && m.delayable_fraction < 1.0);
    }
}
