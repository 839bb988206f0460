//! The traced stepper: `System::step` in profile mode, rebuilt from the
//! layer crates' public functions with a host-time span around each
//! call into a layer.
//!
//! Each cycle records one span per phase — cores, `Network::step`, the
//! delivery loop, bank ticks, memory-controller ticks — and per-packet
//! spans only around `Network::inject`, `L2Bank::handle` and
//! `MemoryController::fetch`/`write`. Instruction generation is timed
//! by `BatchedStream`, which pulls [`GEN_BATCH`] instructions at a
//! time from `ProfileStream::next_instr`. A layer's self time is its
//! span minus the child spans inside it; the time outside every phase
//! span is the stepper's own glue.
//!
//! The stepper must reproduce `System::run` exactly: the benchmark and
//! `tests/trace_equivalence.rs` compare its [`CellOutputs`] and network
//! counters with a plain `System` run of the same cell and fail on any
//! difference. The public functions it calls are listed in the
//! benchmark's README; the layer crates must keep them compatible.

use crate::digest::CellOutputs;
use snoc_common::config::SystemConfig;
use snoc_common::geom::{Coord, Layer, Mesh};
use snoc_common::ids::{BankId, CoreId, McId, NodeId};
use snoc_common::stats::{Accumulator, Reservoir};
use snoc_common::Cycle;
use snoc_core::sweep::RunSpec;
use snoc_core::system::DriveMode;
use snoc_cpu::{Instr, InstructionStream, Issue, MemPort, OooCore};
use snoc_mem::l2bank::TagMode;
use snoc_mem::mem_ctrl::Fill;
use snoc_mem::protocol::{BankIn, BankMsg};
use snoc_mem::{L2Bank, MemoryController};
use snoc_noc::{Network, NetworkParams, NocEnv, Packet, PacketKind};
use snoc_workload::{generator, ProfileStream};
use std::collections::HashMap;
use std::time::Instant;

/// Instructions pulled from a profile stream per timed batch.
pub const GEN_BATCH: usize = 256;

/// Packets allowed in a core NI's injection queue before the core
/// stalls (the value `System` uses).
const INJECT_CAP: usize = 24;

/// The phase a span or an injection belongs to.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Cores = 0,
    Deliver = 1,
    Banks = 2,
    Mcs = 3,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Host nanoseconds and event counts collected by one traced cell.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// The whole warm-up + measurement loop.
    pub total_ns: u64,
    /// Phase spans.
    pub cores_ns: u64,
    /// `Network::step`.
    pub step_ns: u64,
    /// The delivery loop over every endpoint.
    pub deliver_ns: u64,
    /// Bank ticks.
    pub banks_ns: u64,
    /// Memory-controller ticks.
    pub mcs_ns: u64,
    /// `Network::inject` spans, by the phase they ran in.
    pub inject_ns: [u64; 4],
    /// `L2Bank::handle` spans.
    pub handle_ns: u64,
    /// `MemoryController::fetch`/`write` spans.
    pub mem_access_ns: u64,
    /// Instruction generation (inside the cores phase).
    pub gen_ns: u64,
    /// Packets injected.
    pub injects: u64,
    /// Messages handed to banks.
    pub handles: u64,
    /// Fetches and writes handed to memory controllers.
    pub mem_accesses: u64,
    /// Instructions generated.
    pub instr_generated: u64,
    /// Cycles stepped (warm-up included).
    pub cycles: u64,
    /// Core-cycles stepped (cycles x cores).
    pub core_cycles: u64,
}

/// Per-layer self times in host nanoseconds; they partition
/// [`Spans::total_ns`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Instruction generation.
    pub workload: u64,
    /// Core ticks, less generation and injection.
    pub cpu: u64,
    /// `Network::step`.
    pub noc_step: u64,
    /// The delivery loop, less the bank, controller and inject calls it
    /// makes.
    pub noc_eject: u64,
    /// Every `Network::inject`.
    pub noc_inject: u64,
    /// Bank ticks, less injection.
    pub bank_tick: u64,
    /// `L2Bank::handle`.
    pub bank_handle: u64,
    /// Memory-controller ticks, fetches and writes, less injection.
    pub mc: u64,
    /// Everything outside the phase spans.
    pub glue: u64,
}

impl Spans {
    /// Splits the spans into per-layer self times.
    pub fn layers(&self) -> LayerTimes {
        let [inj_cores, inj_deliver, inj_banks, inj_mcs] = self.inject_ns;
        let phases = self.cores_ns + self.step_ns + self.deliver_ns + self.banks_ns + self.mcs_ns;
        LayerTimes {
            workload: self.gen_ns,
            cpu: self.cores_ns.saturating_sub(self.gen_ns + inj_cores),
            noc_step: self.step_ns,
            noc_eject: self
                .deliver_ns
                .saturating_sub(self.handle_ns + self.mem_access_ns + inj_deliver),
            noc_inject: self.inject_ns.iter().sum(),
            bank_tick: self.banks_ns.saturating_sub(inj_banks),
            bank_handle: self.handle_ns,
            mc: self.mcs_ns.saturating_sub(inj_mcs) + self.mem_access_ns,
            glue: self.total_ns.saturating_sub(phases),
        }
    }

    /// Adds another cell's spans to these.
    pub fn add(&mut self, o: &Spans) {
        self.total_ns += o.total_ns;
        self.cores_ns += o.cores_ns;
        self.step_ns += o.step_ns;
        self.deliver_ns += o.deliver_ns;
        self.banks_ns += o.banks_ns;
        self.mcs_ns += o.mcs_ns;
        for (a, b) in self.inject_ns.iter_mut().zip(o.inject_ns) {
            *a += b;
        }
        self.handle_ns += o.handle_ns;
        self.mem_access_ns += o.mem_access_ns;
        self.gen_ns += o.gen_ns;
        self.injects += o.injects;
        self.handles += o.handles;
        self.mem_accesses += o.mem_accesses;
        self.instr_generated += o.instr_generated;
        self.cycles += o.cycles;
        self.core_cycles += o.core_cycles;
    }
}

/// A profile stream read through a buffer refilled [`GEN_BATCH`]
/// instructions at a time, each refill timed. The stream is a pure
/// function of its seed, so reading ahead changes nothing the core sees.
struct BatchedStream {
    inner: ProfileStream,
    buf: Vec<Instr>,
    pos: usize,
    gen_ns: u64,
    generated: u64,
}

impl BatchedStream {
    fn new(inner: ProfileStream) -> Self {
        Self {
            inner,
            buf: Vec::with_capacity(GEN_BATCH),
            pos: 0,
            gen_ns: 0,
            generated: 0,
        }
    }

    fn refill(&mut self) {
        let t = Instant::now();
        self.buf.clear();
        for _ in 0..GEN_BATCH {
            self.buf.push(self.inner.next_instr());
        }
        self.gen_ns += ns_since(t);
        self.generated += GEN_BATCH as u64;
        self.pos = 0;
    }
}

impl InstructionStream for BatchedStream {
    fn next_instr(&mut self) -> Instr {
        if self.pos == self.buf.len() {
            self.refill();
        }
        let i = self.buf[self.pos];
        self.pos += 1;
        i
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingRead {
    core: CoreId,
    token: u64,
    issued: Cycle,
}

/// The network with every injection timed and attributed to a phase.
struct TracedNet {
    net: Network,
    inject_ns: [u64; 4],
    injects: u64,
}

impl TracedNet {
    fn inject(&mut self, p: Packet, phase: Phase) {
        let t = Instant::now();
        self.net.inject(p);
        self.inject_ns[phase as usize] += ns_since(t);
        self.injects += 1;
    }
}

/// Counters that `RunMetrics` does not carry. The network counters
/// cover the measured window (the network resets them after warm-up);
/// the core counters cover the whole cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Packets offered to the network (`NetStats::offered`).
    pub packets_injected: u64,
    /// Packets delivered (`NetStats::delivered`).
    pub packets_delivered: u64,
    /// Flits over in-layer links.
    pub flits_lateral: u64,
    /// Flits over TSV/TSB links.
    pub flits_vertical: u64,
    /// Core issue attempts refused by a full injection queue.
    pub issue_retries: u64,
    /// Memory operations the cores issued.
    pub mem_ops: u64,
}

impl CellCounts {
    /// Reads the counters of a finished cell's network and cores.
    pub fn read(net: &Network, cores: &[OooCore]) -> Self {
        let ns = net.stats();
        Self {
            packets_injected: ns.offered,
            packets_delivered: ns.delivered,
            flits_lateral: ns.lateral_flits,
            flits_vertical: ns.vertical_flits,
            issue_retries: cores.iter().map(|c| c.stats.retries).sum(),
            mem_ops: cores.iter().map(|c| c.stats.mem_ops).sum(),
        }
    }

    /// Adds another cell's counters to these.
    pub fn add(&mut self, o: &CellCounts) {
        self.packets_injected += o.packets_injected;
        self.packets_delivered += o.packets_delivered;
        self.flits_lateral += o.flits_lateral;
        self.flits_vertical += o.flits_vertical;
        self.issue_retries += o.issue_retries;
        self.mem_ops += o.mem_ops;
    }
}

/// What one traced cell produced.
#[derive(Debug, Clone)]
pub struct TracedCell {
    /// The simulated outputs (compared with `System::run`).
    pub outputs: CellOutputs,
    /// Counters outside `RunMetrics` (compared with the `System`'s).
    pub counts: CellCounts,
    /// Host-time spans.
    pub spans: Spans,
}

/// A profile-mode chip assembled from the layer crates, stepped with
/// spans.
pub struct TracedSystem {
    cfg: SystemConfig,
    mesh: Mesh,
    net: TracedNet,
    cores: Vec<OooCore>,
    streams: Vec<BatchedStream>,
    banks: Vec<L2Bank>,
    mcs: Vec<MemoryController>,
    mc_nodes: Vec<NodeId>,
    now: Cycle,
    pending_reads: HashMap<u64, PendingRead>,
    uncore_rtt: Accumulator,
    uncore_rtt_tail: Reservoir,
    commit_base: Vec<u64>,
    fill_sink: Vec<Fill>,
    spans: Spans,
}

impl TracedSystem {
    /// Builds the chip for one profile-mode cell.
    ///
    /// # Panics
    ///
    /// Panics on a full-stack cell, an instrumented cell (faults, audit
    /// or telemetry), or a configuration `System` would reject too.
    pub fn new(spec: &RunSpec) -> Self {
        assert_eq!(
            spec.mode,
            DriveMode::Profile,
            "the stepper traces profile mode"
        );
        assert!(
            spec.faults.is_none() && spec.audit.is_none() && spec.telemetry.is_none(),
            "the stepper traces uninstrumented cells"
        );
        let cfg = spec.cfg;
        cfg.validate().expect("valid configuration");
        assert_eq!(
            spec.workload.apps.len(),
            cfg.cores(),
            "one application per core"
        );
        let mesh = Mesh::new(cfg.noc.width, cfg.noc.height);
        let banks_n = cfg.banks();
        let cap_factor = cfg.effective_capacity_factor();
        let w = cfg.noc.width as u16;
        let h = cfg.noc.height as u16;
        Self {
            cfg,
            mesh,
            net: TracedNet {
                net: Network::new(NetworkParams::resolve(&cfg, &NocEnv::default())),
                inject_ns: [0; 4],
                injects: 0,
            },
            cores: (0..cfg.cores())
                .map(|i| OooCore::new(CoreId::new(i as u16), cfg.core))
                .collect(),
            streams: spec
                .workload
                .apps
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let core = CoreId::new(i as u16);
                    BatchedStream::new(ProfileStream::new(p, core, banks_n, cap_factor, cfg.seed))
                })
                .collect(),
            banks: (0..banks_n)
                .map(|i| {
                    L2Bank::new(
                        BankId::new(i as u16),
                        &cfg.mem,
                        cfg.tech,
                        cfg.write_buffer,
                        TagMode::Probabilistic,
                    )
                })
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
            mc_nodes: [0, w - 1, (h - 1) * w, h * w - 1]
                .into_iter()
                .map(NodeId::new)
                .collect(),
            now: 0,
            pending_reads: HashMap::new(),
            uncore_rtt: Accumulator::new(),
            uncore_rtt_tail: Reservoir::new(4096),
            commit_base: vec![0; cfg.cores()],
            fill_sink: Vec::new(),
            spans: Spans::default(),
        }
    }

    /// Runs warm-up and the measurement window, as `System::run` does.
    pub fn run(mut self) -> TracedCell {
        let t = Instant::now();
        for _ in 0..self.cfg.warmup_cycles {
            self.step();
        }
        self.begin_measurement();
        for _ in 0..self.cfg.measure_cycles {
            self.step();
        }
        self.spans.total_ns = ns_since(t);
        self.finish()
    }

    fn cache_coord(&self, bank: BankId) -> Coord {
        self.mesh.coord(bank.node(), Layer::Cache)
    }

    fn mc_index(&self, block: u64) -> usize {
        ((block >> 7) % self.mcs.len() as u64) as usize
    }

    fn bankmsg_to_packet(&self, bank: BankId, msg: BankMsg) -> Packet {
        let src = self.cache_coord(bank);
        let mc_coord = |block| {
            self.mesh
                .coord(self.mc_nodes[self.mc_index(block)], Layer::Cache)
        };
        match msg {
            BankMsg::Data {
                block,
                to,
                exclusive,
            } => Packet::new(
                PacketKind::DataReply,
                src,
                self.mesh.coord(to.node(), Layer::Core),
                block,
                exclusive as u64,
            ),
            BankMsg::Fetch { block } => Packet::new(
                PacketKind::MemFetch,
                src,
                mc_coord(block),
                block,
                bank.raw() as u64,
            ),
            BankMsg::WriteMem { block } => Packet::new(
                PacketKind::MemWriteback,
                src,
                mc_coord(block),
                block,
                bank.raw() as u64,
            ),
            other => unreachable!("profile-mode banks keep no directory: {other:?}"),
        }
    }

    fn step(&mut self) {
        let now = self.now;
        let t0 = Instant::now();

        // 1. Cores fetch/issue/commit.
        let l1_latency = self.cfg.mem.l1_latency;
        for i in 0..self.cores.len() {
            let mut port = Port {
                mesh: self.mesh,
                net: &mut self.net,
                pending_reads: &mut self.pending_reads,
                l1_latency,
            };
            self.cores[i].tick(now, &mut self.streams[i], &mut port);
        }
        let t1 = Instant::now();

        // 2. The network moves flits.
        self.net.net.step();
        let t2 = Instant::now();

        // 3. Deliveries, with bounded bank intake.
        for node_idx in 0..self.mesh.nodes_per_layer() as u16 {
            let node = NodeId::new(node_idx);
            let cache_at = self.mesh.coord(node, Layer::Cache);
            let room = self
                .cfg
                .mem
                .bank_queue
                .saturating_sub(self.banks[node_idx as usize].controller().queue_len());
            for pkt in self.net.net.drain_delivered_up_to(cache_at, room) {
                self.deliver_cache(node, pkt, now);
            }
            let core_at = self.mesh.coord(node, Layer::Core);
            for pkt in self.net.net.drain_delivered(core_at) {
                self.deliver_core(pkt, now);
            }
        }
        let t3 = Instant::now();

        // 4. Banks service their queues.
        for b in 0..self.banks.len() {
            let msgs = self.banks[b].tick(now);
            let bank = BankId::new(b as u16);
            for m in msgs {
                let p = self.bankmsg_to_packet(bank, m);
                self.net.inject(p, Phase::Banks);
            }
        }
        let t4 = Instant::now();

        // 5. Memory controllers.
        let mut fills = std::mem::take(&mut self.fill_sink);
        for m in 0..self.mcs.len() {
            fills.clear();
            self.mcs[m].tick(now, &mut fills);
            let src = self.mesh.coord(self.mc_nodes[m], Layer::Cache);
            for f in &fills {
                let dst = self.cache_coord(f.to);
                self.net.inject(
                    Packet::new(PacketKind::MemFill, src, dst, f.block, 0),
                    Phase::Mcs,
                );
            }
        }
        self.fill_sink = fills;
        let t5 = Instant::now();

        let s = &mut self.spans;
        s.cores_ns += (t1 - t0).as_nanos() as u64;
        s.step_ns += (t2 - t1).as_nanos() as u64;
        s.deliver_ns += (t3 - t2).as_nanos() as u64;
        s.banks_ns += (t4 - t3).as_nanos() as u64;
        s.mcs_ns += (t5 - t4).as_nanos() as u64;
        s.cycles += 1;
        s.core_cycles += self.cores.len() as u64;
        self.now += 1;
    }

    fn deliver_cache(&mut self, node: NodeId, pkt: Packet, now: Cycle) {
        match pkt.kind {
            PacketKind::MemFetch | PacketKind::MemWriteback => {
                let mc = self.mc_index(pkt.addr);
                let bank = BankId::new(pkt.token as u16);
                let t = Instant::now();
                if pkt.kind == PacketKind::MemFetch {
                    self.mcs[mc].fetch(pkt.addr, bank, now);
                } else {
                    self.mcs[mc].write(pkt.addr, bank, now);
                }
                self.spans.mem_access_ns += ns_since(t);
                self.spans.mem_accesses += 1;
                return;
            }
            _ => {}
        }
        let bank_id = BankId::new(node.raw());
        let forced_miss = generator::decode(pkt.addr).is_some_and(|a| a.miss);
        let from = CoreId::new((pkt.token >> 32) as u16);
        let msg = match pkt.kind {
            PacketKind::BankRead => BankIn::GetS {
                block: pkt.addr,
                from,
            },
            PacketKind::BankWrite => BankIn::GetM {
                block: pkt.addr,
                from,
            },
            PacketKind::MemFill => BankIn::Fill { block: pkt.addr },
            other => unreachable!("unexpected packet at a profile-mode cache node: {other:?}"),
        };
        let arrived = pkt.ejected_at.min(now);
        let t = Instant::now();
        let replies = self.banks[bank_id.index()].handle(msg, forced_miss, arrived);
        self.spans.handle_ns += ns_since(t);
        self.spans.handles += 1;
        for m in replies {
            let p = self.bankmsg_to_packet(bank_id, m);
            self.net.inject(p, Phase::Deliver);
        }
    }

    fn deliver_core(&mut self, pkt: Packet, now: Cycle) {
        match pkt.kind {
            PacketKind::DataReply => {
                if let Some(p) = self.pending_reads.remove(&pkt.addr) {
                    self.cores[p.core.index()].complete(p.token, now);
                    self.uncore_rtt.record((now - p.issued) as f64);
                    self.uncore_rtt_tail.record((now - p.issued) as f64);
                }
            }
            other => unreachable!("unexpected packet at a profile-mode core node: {other:?}"),
        }
    }

    fn begin_measurement(&mut self) {
        self.net.net.reset_stats();
        for b in &mut self.banks {
            b.reset_stats();
        }
        for m in &mut self.mcs {
            m.reset_stats();
        }
        self.uncore_rtt = Accumulator::new();
        self.uncore_rtt_tail = Reservoir::new(4096);
        for (base, c) in self.commit_base.iter_mut().zip(&self.cores) {
            *base = c.committed();
        }
    }

    fn finish(mut self) -> TracedCell {
        let per_core_committed: Vec<u64> = self
            .cores
            .iter()
            .zip(&self.commit_base)
            .map(|(c, base)| c.committed() - base)
            .collect();
        let mut queue_wait = Accumulator::new();
        let (mut reads, mut writes, mut busy, mut behind, mut after, mut fetches) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for b in &self.banks {
            let t = b.timing();
            queue_wait.merge(&t.queue_wait);
            reads += t.reads;
            writes += t.writes;
            busy += t.busy_cycles;
            behind += t.arrivals_behind_write;
            after += t.arrivals_after_write;
            fetches += b.stats.fetches;
        }
        let net = &self.net.net;
        let ns = net.stats();
        let outputs = CellOutputs {
            cycles: self.cfg.measure_cycles,
            per_core_committed,
            net_request_latency: ns.request_latency.mean(),
            net_response_latency: ns.response_latency.mean(),
            bank_queue_wait: queue_wait.mean(),
            bank_service: busy as f64 / (reads + writes).max(1) as f64,
            uncore_rtt: self.uncore_rtt.mean(),
            uncore_rtt_p95: self.uncore_rtt_tail.p95(),
            bank_reads: reads,
            bank_writes: writes,
            mem_fetches: fetches,
            delayable_fraction: if after == 0 {
                0.0
            } else {
                behind as f64 / after as f64
            },
            child_queue_mean: net.child_queue_mean(),
            queue_mean_by_hops: [
                net.queue_mean_at_hops(1),
                net.queue_mean_at_hops(2),
                net.queue_mean_at_hops(3),
            ],
            held_packets: net.held_packets(),
            held_cycles: net.held_cycles(),
        };
        let counts = CellCounts::read(net, &self.cores);
        self.spans.inject_ns = self.net.inject_ns;
        self.spans.injects = self.net.injects;
        for s in &self.streams {
            self.spans.gen_ns += s.gen_ns;
            self.spans.instr_generated += s.generated;
        }
        TracedCell {
            outputs,
            counts,
            spans: self.spans,
        }
    }
}

/// The cores' memory port in profile mode: L1 hits complete locally,
/// L2 accesses become one-flit request packets.
struct Port<'a> {
    mesh: Mesh,
    net: &'a mut TracedNet,
    pending_reads: &'a mut HashMap<u64, PendingRead>,
    l1_latency: u64,
}

impl MemPort for Port<'_> {
    fn issue(&mut self, core: CoreId, addr: u64, is_write: bool, token: u64, now: Cycle) -> Issue {
        let acc = generator::decode(addr).expect("profile streams encode addresses");
        if !acc.l2 {
            return Issue::Done(now + self.l1_latency);
        }
        let src = self.mesh.coord(core.node(), Layer::Core);
        if self.net.net.inject_backlog(src) >= INJECT_CAP {
            return Issue::Retry;
        }
        let dst = self.mesh.coord(BankId::new(acc.bank).node(), Layer::Cache);
        let kind = if is_write {
            PacketKind::BankWrite
        } else {
            PacketKind::BankRead
        };
        let full = ((core.index() as u64) << 32) | (token & 0xFFFF_FFFF);
        self.net
            .inject(Packet::new(kind, src, dst, addr, full), Phase::Cores);
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
}
