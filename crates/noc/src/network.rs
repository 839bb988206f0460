//! The assembled 3D network: 128 routers in two stacked 8x8 meshes,
//! their network interfaces, the routing/region/parent machinery and
//! the congestion estimators, advanced cycle by cycle.

use crate::arena::Arena;
use crate::audit::{AuditConfig, AuditReport, NetAuditor};
use crate::estimator::{EstimatorState, RcaState, WbEstimator};
use crate::fault::{FaultPlan, FaultState, FaultSummary};
use crate::nic::{DeliveryEvent, Nic};
use crate::packet::{Flit, Packet, TrafficClass, WbTag};
use crate::parent::{ChildInfo, ParentMap};
use crate::regions::RegionMap;
use crate::router::{NetView, Router, StepParams, SwitchMove, MAX_BURST, PORTS};
use crate::routing::RoutingTable;
use crate::telemetry::{NetTelemetry, TelemetryConfig, TelemetrySummary};
use crate::workspace::NocWorkspace;
use snoc_common::config::{
    ArbitrationPolicy, Estimator, NocConfig, RequestPathMode, SystemConfig, TsbPlacement,
};
use snoc_common::geom::{Coord, Direction, Layer, Mesh};
use snoc_common::ids::{BankId, NodeId, PacketId, RegionId};
use snoc_common::stats::Accumulator;
use snoc_common::Cycle;
use std::collections::HashMap;

/// Construction parameters for a [`Network`].
#[derive(Debug, Clone, Copy)]
pub struct NetworkParams {
    /// Router/topology parameters.
    pub noc: NocConfig,
    /// How core->cache requests cross between dies.
    pub path_mode: RequestPathMode,
    /// Number of logical cache-layer regions.
    pub regions: usize,
    /// TSB placement rule.
    pub placement: TsbPlacement,
    /// Parent-child re-ordering distance (hops).
    pub parent_hops: u32,
    /// Arbitration policy.
    pub arbitration: ArbitrationPolicy,
    /// WB estimator sampling window.
    pub wb_window: u32,
    /// Bank read service latency (for busy prediction).
    pub bank_read_latency: u64,
    /// Bank write service latency (for busy prediction).
    pub bank_write_latency: u64,
    /// NI outbox capacity at cache-layer nodes (bounded: busy banks
    /// push back into the network).
    pub cache_outbox_cap: usize,
    /// NI outbox capacity at core-layer nodes.
    pub core_outbox_cap: usize,
    /// Livelock guard: maximum hold duration at a parent.
    pub max_hold: Cycle,
    /// Release slack for held packets (cycles).
    pub hold_slack: Cycle,
    /// Invariant auditing configuration (`None` = off).
    pub audit: Option<AuditConfig>,
    /// Telemetry collection configuration (`None` = off).
    pub telemetry: Option<TelemetryConfig>,
    /// Fault-injection campaign (`None` = off).
    pub faults: Option<FaultPlan>,
}

/// The NoC instrumentation a caller asks for: invariant auditing,
/// telemetry and fault injection, each `None` when off.
///
/// The library never reads the process environment. The `snoc` binary
/// parses `SNOC_AUDIT`, `SNOC_TELEMETRY` and `SNOC_FAULTS` into one of
/// these at start-up and hands it down; everything else passes
/// `NocEnv::default()`, which switches all three off. The name stays
/// because the `benchmark/` crate compiles against it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NocEnv {
    /// Invariant auditing (`None` = off).
    pub audit: Option<AuditConfig>,
    /// Telemetry collection (`None` = off).
    pub telemetry: Option<TelemetryConfig>,
    /// Fault-injection campaign (`None` = off).
    pub faults: Option<FaultPlan>,
}

impl NetworkParams {
    /// Derives the network parameters from a full system
    /// configuration, with the instrumentation `env` asks for.
    pub fn resolve(cfg: &SystemConfig, env: &NocEnv) -> Self {
        Self {
            noc: cfg.noc,
            path_mode: cfg.path_mode,
            regions: cfg.regions,
            placement: cfg.tsb_placement,
            parent_hops: cfg.parent_hops,
            arbitration: cfg.arbitration,
            wb_window: cfg.wb_window,
            bank_read_latency: cfg.l2_read_service_latency(),
            bank_write_latency: cfg.l2_write_latency(),
            cache_outbox_cap: 4,
            core_outbox_cap: 64,
            max_hold: 3 * cfg.mem.stt_write_latency,
            hold_slack: cfg.noc.hold_slack,
            audit: env.audit,
            telemetry: env.telemetry,
            faults: env.faults,
        }
    }
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Packets handed to `inject`.
    pub offered: u64,
    /// Packets delivered to endpoint outboxes.
    pub delivered: u64,
    /// End-to-end latency of delivered packets.
    pub latency: Accumulator,
    /// Latency of request-class packets.
    pub request_latency: Accumulator,
    /// Latency of response-class packets.
    pub response_latency: Accumulator,
    /// Latency of coherence-class packets.
    pub coherence_latency: Accumulator,
    /// Flits over horizontal (in-layer) links.
    pub lateral_flits: u64,
    /// Flits over vertical TSV/TSB links.
    pub vertical_flits: u64,
    /// Vertical flits that rode the second lane of a wide TSB.
    pub wide_tsb_flits: u64,
    /// Window-based estimator acks processed.
    pub tag_acks: u64,
}

/// A wake list over `n` indexed components, stored as a bitmask so
/// membership updates are O(1) and iteration visits members in
/// ascending index order — exactly the order the former full scans
/// used, which keeps activity-driven stepping byte-identical to
/// stepping everything and skipping the idle.
///
/// A list may hold idle members (visiting one does nothing) but must
/// never miss a member with work; the auditor checks the latter.
#[derive(Debug, Clone)]
pub(crate) struct WakeMask {
    bits: Vec<u64>,
}

impl WakeMask {
    fn new(n: usize) -> Self {
        Self {
            bits: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.bits[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.bits[i >> 6] &= !(1 << (i & 63));
    }

    /// Whether member `i` is on the list.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.bits[i >> 6] & (1 << (i & 63)) != 0
    }

    /// The members in ascending order (for loops that leave the list
    /// itself unchanged).
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &bits)| {
            let mut word = bits;
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let i = (w << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    i
                })
            })
        })
    }

    fn words(&self) -> usize {
        self.bits.len()
    }

    /// Puts every member back to sleep.
    fn zero(&mut self) {
        self.bits.fill(0);
    }

    /// Snapshot of one 64-bit word (safe to take while clearing bits
    /// of the same mask or setting bits of *other* masks).
    #[inline]
    fn word(&self, w: usize) -> u64 {
        self.bits[w]
    }
}

/// Marks a port with no neighbour (mesh edge, or the vertical port
/// that leads off the stack) in [`Network`]'s neighbour table.
const NO_NEIGHBOUR: u32 = u32::MAX;

/// The index of the router at `c`: the core layer's routers come first,
/// then the cache layer's, each in node order.
fn router_index(mesh: Mesh, c: Coord) -> usize {
    let base = if c.layer == Layer::Cache {
        mesh.nodes_per_layer()
    } else {
        0
    };
    base + mesh.node(c).index()
}

/// The network view handed to routers.
struct View<'a> {
    arena: &'a Arena,
    routing: &'a RoutingTable,
    mesh: Mesh,
}

impl NetView for View<'_> {
    fn packet(&self, id: PacketId) -> &Packet {
        self.arena.get(id)
    }
    fn route(&self, at: Coord, packet: &Packet) -> Direction {
        self.routing.next_hop(at, packet)
    }
    fn dest_bank(&self, packet: &Packet) -> Option<BankId> {
        packet.dest_bank(self.mesh)
    }
}

/// Everything the network keeps that derives from its region map.
/// [`Wiring::new`] builds it at construction, and again when
/// [`Network::rehome_region`] moves a region onto another TSB.
#[derive(Debug)]
pub(crate) struct Wiring {
    /// The memoized routing function; owns the region map.
    pub(crate) routing: RoutingTable,
    /// The parent/child serialization points.
    parents: ParentMap,
    /// Per router, whether its Down port is a wide region TSB.
    wide_down: Vec<bool>,
    /// Indices of parent routers (non-empty child list), ascending.
    parent_idxs: Vec<u32>,
}

impl Wiring {
    /// Derives the region wiring from `regions`: the parent map (and
    /// with it every router's child banks), the wide-down lanes, the
    /// parent index list, the WB estimator map (into `estimator`, when
    /// it is window-based) and the routing table.
    fn new(
        params: &NetworkParams,
        mesh: Mesh,
        regions: RegionMap,
        estimator: &mut EstimatorState,
    ) -> Self {
        let parents = ParentMap::new(
            mesh,
            &regions,
            params.parent_hops,
            params.noc.router_stages,
            params.noc.link_latency,
        );
        let mut wide_down = vec![false; 2 * mesh.nodes_per_layer()];
        if params.path_mode == RequestPathMode::RegionTsbs {
            for r in 0..regions.regions() {
                let t = regions.tsb_node(RegionId::new(r as u16));
                wide_down[t.index()] = true; // core-layer router above the TSB
            }
        }
        let mut parent_idxs: Vec<u32> = parents
            .parents()
            .map(|p| router_index(mesh, p) as u32)
            .collect();
        parent_idxs.sort_unstable();
        if let EstimatorState::WindowBased(map) = estimator {
            *map = parents
                .parents()
                .map(|p| {
                    let kids = parents.children_of(p).unwrap().iter().map(|c| c.bank);
                    (p, WbEstimator::new(kids))
                })
                .collect();
        }
        Self {
            routing: RoutingTable::new(mesh, params.path_mode, regions),
            parents,
            wide_down,
            parent_idxs,
        }
    }

    /// The child banks the router at `router` manages as a parent
    /// (empty if it is none).
    fn children(&self, router: Coord) -> Vec<ChildInfo> {
        self.parents
            .children_of(router)
            .map(<[_]>::to_vec)
            .unwrap_or_default()
    }
}

/// The cycle-level 3D NoC simulator.
#[derive(Debug)]
pub struct Network {
    params: NetworkParams,
    mesh: Mesh,
    pub(crate) wiring: Wiring,
    pub(crate) routers: Vec<Router>,
    /// The structure-of-arrays store holding every router's VC
    /// buffer, credit and hold lanes.
    ws: NocWorkspace,
    pub(crate) nics: Vec<Nic>,
    pub(crate) arena: Arena,
    pub(crate) estimator: EstimatorState,
    /// Per router, the router index behind each port (`NO_NEIGHBOUR`
    /// at the edges); fixed by the geometry.
    neighbours: Vec<[u32; PORTS]>,
    now: Cycle,
    stats: NetStats,
    /// Routers that may have work: a router is woken when a flit
    /// enters it and put back to sleep when visited empty.
    pub(crate) router_wake: WakeMask,
    /// NICs with injection backlog (woken on enqueue).
    pub(crate) nic_inject_wake: WakeMask,
    /// NICs with buffered ejection flits (woken on ejection).
    pub(crate) nic_eject_wake: WakeMask,
    /// NICs with delivered packets in their outbox (woken when the
    /// ejection drain assembles one, put to sleep when the endpoint
    /// empties the outbox).
    pub(crate) nic_deliver_wake: WakeMask,
    /// WB parents whose estimator took an ack since their `child_cong`
    /// was last refreshed. Only an ack changes a WB estimate, so every
    /// other parent's `child_cong` is already current.
    pub(crate) wb_dirty: WakeMask,
    /// Per-router buffer occupancy (0..=255) read by RCA propagation;
    /// persistent scratch, rewritten every cycle.
    occupancy: Vec<u8>,
    /// Switch moves granted this cycle, in VA/SA visit order, written
    /// once by `Router::step_sa` and applied by reference after every
    /// router has allocated (persistent scratch).
    moves: Vec<(usize, SwitchMove)>,
    /// Persistent scratch for the NIC drain credit sink.
    eject_credits: Vec<(usize, u8)>,
    /// Persistent scratch for the NIC drain event sink.
    eject_events: Vec<DeliveryEvent>,
    /// Optional invariant checker, boxed off the hot state.
    auditor: Option<Box<NetAuditor>>,
    /// Optional telemetry collector, boxed off the hot state.
    telemetry: Option<Box<NetTelemetry>>,
    /// Optional fault-injection campaign, boxed off the hot state.
    faults: Option<Box<FaultState>>,
}

impl Network {
    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics if the region count cannot tile the mesh.
    pub fn new(params: NetworkParams) -> Self {
        assert!(
            params.noc.tsb_width_factor <= MAX_BURST,
            "tsb_width_factor {} exceeds the supported burst bound {MAX_BURST}",
            params.noc.tsb_width_factor
        );
        let mesh = Mesh::new(params.noc.width, params.noc.height);
        let n = mesh.nodes_per_layer();
        let mut estimator = match params.arbitration {
            ArbitrationPolicy::BankAware {
                estimator: Estimator::Rca,
            } => EstimatorState::Rca(RcaState::new(2 * n)),
            // The wiring gives every parent its estimator.
            ArbitrationPolicy::BankAware {
                estimator: Estimator::WindowBased,
            } => EstimatorState::WindowBased(HashMap::new()),
            _ => EstimatorState::Simple,
        };
        let regions = RegionMap::new(mesh, params.regions, params.placement);
        let wiring = Wiring::new(&params, mesh, regions, &mut estimator);

        let mut routers = Vec::with_capacity(2 * n);
        let mut nics = Vec::with_capacity(2 * n);
        for layer in [Layer::Core, Layer::Cache] {
            for node in mesh.nodes() {
                let coord = mesh.coord(node, layer);
                routers.push(Router::new(
                    routers.len(),
                    coord,
                    params.noc.vcs_per_port,
                    params.noc.vc_depth,
                    wiring.children(coord),
                ));
                let cap = match layer {
                    Layer::Core => params.core_outbox_cap,
                    Layer::Cache => params.cache_outbox_cap,
                };
                nics.push(Nic::new(
                    coord,
                    params.noc.vcs_per_port,
                    params.noc.vc_depth,
                    params.noc.data_flits,
                    cap,
                ));
            }
        }

        let ws = NocWorkspace::new(routers.len(), params.noc.vcs_per_port, params.noc.vc_depth);
        let neighbours = routers
            .iter()
            .map(|r| {
                Direction::ALL.map(|dir| {
                    mesh.neighbour(r.coord(), dir)
                        .map_or(NO_NEIGHBOUR, |c| router_index(mesh, c) as u32)
                })
            })
            .collect();
        let mut net = Self {
            params,
            mesh,
            wiring,
            router_wake: WakeMask::new(routers.len()),
            nic_inject_wake: WakeMask::new(routers.len()),
            nic_eject_wake: WakeMask::new(routers.len()),
            nic_deliver_wake: WakeMask::new(routers.len()),
            wb_dirty: WakeMask::new(routers.len()),
            occupancy: vec![0; routers.len()],
            neighbours,
            moves: Vec::new(),
            eject_credits: Vec::new(),
            eject_events: Vec::new(),
            ws,
            routers,
            nics,
            arena: Arena::new(),
            estimator,
            now: 0,
            stats: NetStats::default(),
            auditor: None,
            telemetry: None,
            faults: None,
        };
        if let Some(cfg) = params.audit {
            net.enable_audit(cfg);
        }
        if let Some(cfg) = params.telemetry {
            net.enable_telemetry(cfg);
        }
        if let Some(plan) = params.faults {
            net.enable_faults(plan);
        }
        net
    }

    /// The mesh geometry.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The region map in force.
    pub fn regions(&self) -> &RegionMap {
        self.wiring.routing.regions()
    }

    /// The parent/child mapping in force.
    pub fn parents(&self) -> &ParentMap {
        &self.wiring.parents
    }

    /// The construction parameters.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// Current simulation cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Packets currently in flight (injected or queued, not yet
    /// consumed by an endpoint).
    pub fn in_flight(&self) -> usize {
        self.arena.live()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The audit report, when auditing is enabled.
    pub fn audit_report(&self) -> Option<&AuditReport> {
        self.auditor.as_deref().map(NetAuditor::report)
    }

    /// Router index for a coordinate.
    pub(crate) fn ridx(&self, c: Coord) -> usize {
        router_index(self.mesh, c)
    }

    /// The index of the router behind port `dir` of router `idx`, if
    /// any (neighbour-table lookup).
    #[inline]
    fn neighbour_idx(&self, idx: usize, dir: Direction) -> Option<usize> {
        let n = self.neighbours[idx][dir.port()];
        (n != NO_NEIGHBOUR).then_some(n as usize)
    }

    /// Read access to the router at a coordinate.
    pub fn router(&self, c: Coord) -> &Router {
        &self.routers[self.ridx(c)]
    }

    /// The structure-of-arrays lane store behind every router
    /// (instrumentation and conformance tests).
    pub fn workspace(&self) -> &NocWorkspace {
        &self.ws
    }

    /// Iterates all routers.
    pub fn routers(&self) -> impl Iterator<Item = &Router> {
        self.routers.iter()
    }

    /// Packets waiting in the injection queues of the NI at `at`
    /// (endpoint back-pressure probe).
    pub fn inject_backlog(&self, at: Coord) -> usize {
        self.nics[self.ridx(at)].inject_backlog()
    }

    /// Queues a packet for injection at its source NI; returns its id.
    pub fn inject(&mut self, packet: Packet) -> PacketId {
        let src = packet.src;
        let class = packet.kind.class();
        let id = self.arena.insert(packet);
        if let Some(a) = &mut self.auditor {
            a.note_offered(self.arena.get(id).uid, self.now);
        }
        if let Some(t) = &mut self.telemetry {
            t.note_inject(self.arena.get(id).uid, src, self.now);
        }
        let idx = self.ridx(src);
        self.nics[idx].enqueue(id, class);
        self.nic_inject_wake.set(idx);
        self.stats.offered += 1;
        id
    }

    /// Takes the packets delivered at a node since the last drain.
    pub fn drain_delivered(&mut self, at: Coord) -> Vec<Packet> {
        self.drain_delivered_up_to(at, usize::MAX)
    }

    /// Takes at most `max` delivered packets at a node; the remainder
    /// stays in the NI outbox and back-pressures the network (the
    /// paper's "queued at the network interface").
    pub fn drain_delivered_up_to(&mut self, at: Coord, max: usize) -> Vec<Packet> {
        let idx = self.ridx(at);
        let mut delivered = self.nics[idx].pop_delivered_up_to(&mut self.arena, max);
        if self.nics[idx].outbox_len() == 0 {
            self.nic_deliver_wake.clear(idx);
        }
        for p in &delivered {
            if let Some(a) = &mut self.auditor {
                a.note_delivered(p.uid, self.now);
            }
            let lat = p.net_latency() as f64;
            self.stats.delivered += 1;
            self.stats.latency.record(lat);
            match p.kind.class() {
                TrafficClass::Request => self.stats.request_latency.record(lat),
                TrafficClass::Response => self.stats.response_latency.record(lat),
                TrafficClass::Coherence => self.stats.coherence_latency.record(lat),
            }
            if let Some(t) = &mut self.telemetry {
                let hops = p.src.manhattan(p.dst) + u32::from(p.src.layer != p.dst.layer);
                t.note_deliver(p.uid, at, p.kind.class(), hops, p.net_latency(), self.now);
            }
        }
        // Fault injection: a bank in a dropped-ack episode may lose a
        // request *after* network delivery (the network conserved the
        // packet — the auditor and latency stats above already saw it —
        // but the endpoint never does; the NI timeout re-injects it).
        if let Some(f) = &mut self.faults {
            if f.may_drop() {
                let (mesh, now) = (self.mesh, self.now);
                delivered.retain(|p| f.filter_delivery(p, mesh, now));
            }
        }
        delivered
    }

    /// Fills `nodes` with a bitmask over layer-local node ids: bit
    /// `node` is set when the core- or cache-side NI at that node may
    /// hold delivered packets. Every node with a non-empty outbox is
    /// set; a set node may have nothing to drain. Draining and
    /// injecting never fill an outbox (only [`Network::step`] does),
    /// so the snapshot stays a superset until the next step.
    pub fn delivery_nodes(&self, nodes: &mut Vec<u64>) {
        let n = self.mesh.nodes_per_layer();
        nodes.clear();
        nodes.resize(n.div_ceil(64), 0);
        for i in self.nic_deliver_wake.iter() {
            let node = i % n;
            nodes[node >> 6] |= 1 << (node & 63);
        }
    }

    /// Advances the network by one cycle.
    ///
    /// The cycle runs in phases: injection at the NICs, VC and switch
    /// allocation at the routers, then the granted switch moves (link
    /// flit transfers and credit returns) applied in allocation order,
    /// then ejection. Deferring the moves until every router has
    /// allocated means no router sees a flit or credit that another
    /// router's grant produced in the same cycle.
    ///
    /// Each phase walks its wake list instead of every component: the
    /// lists hold a superset of the components with work, are visited
    /// in ascending index order (identical to the former full scans),
    /// and members found idle are dropped — so quiescent corners of
    /// the two meshes cost zero work per cycle.
    pub fn step(&mut self) {
        self.fault_tick();
        let now = self.now;
        self.refresh_child_cong();

        self.inject_and_allocate(now);
        self.apply_moves(now);
        self.drain_ejection(now);

        // Estimator upkeep. Each router's occupancy is read once; a
        // router off the wake list holds no flits, so it reads 0.
        if let EstimatorState::Rca(rca) = &mut self.estimator {
            let occ = &mut self.occupancy;
            occ.fill(0);
            for i in self.router_wake.iter() {
                occ[i] = self.ws.occupancy_byte(i);
            }
            let neighbours = &self.neighbours;
            rca.propagate(
                |i| occ[i],
                |i, dir| {
                    let nb = neighbours[i][dir.port()];
                    (nb != NO_NEIGHBOUR).then_some(nb as usize)
                },
            );
        }
        if now.is_multiple_of(self.params.noc.wb_expire_period) {
            if let EstimatorState::WindowBased(map) = &mut self.estimator {
                for wb in map.values_mut() {
                    wb.expire_stale(now, self.params.noc.wb_tag_timeout);
                }
            }
        }

        // Telemetry sees the same end-of-step state the auditor checks.
        if let Some(t) = &mut self.telemetry {
            t.on_cycle_end(
                now,
                &self.routers,
                &self.ws,
                self.arena.live(),
                self.stats.delivered,
                &self.wiring.wide_down,
            );
        }

        // Invariants hold at end-of-step: flit movement and credit
        // returns are synchronous, so there is no on-the-wire state.
        if let Some(mut a) = self.auditor.take() {
            a.audit_cycle(self);
            self.auditor = Some(a);
        }

        self.now += 1;
    }

    /// Injection at every woken NI (one flit each), then VC and switch
    /// allocation at every woken router, both in ascending index
    /// order. Granted switch moves queue in `moves`.
    #[inline]
    fn inject_and_allocate(&mut self, now: Cycle) {
        let ws = &mut self.ws;
        let iw = &mut self.nic_inject_wake;
        let rw = &mut self.router_wake;
        let router_stages = self.params.noc.router_stages;

        // Injection: one flit per woken NI per cycle.
        for w in 0..iw.words() {
            let mut word = iw.word(w);
            while word != 0 {
                let i = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                if self.nics[i].inject_backlog() == 0 {
                    iw.clear(i);
                    continue;
                }
                if self.nics[i].inject_step(
                    &mut self.routers[i],
                    ws,
                    &mut self.arena,
                    now,
                    router_stages,
                ) {
                    rw.set(i);
                }
                if self.nics[i].inject_backlog() == 0 {
                    iw.clear(i);
                }
            }
        }

        // VC allocation and switch allocation at every active router.
        let view = View {
            arena: &self.arena,
            routing: &self.wiring.routing,
            mesh: self.mesh,
        };
        let tsb_extra = self.params.noc.tsb_width_factor.saturating_sub(1);
        let fault_blocked = self.faults.as_deref().map(FaultState::blocked_masks);
        for w in 0..rw.words() {
            let mut word = rw.word(w);
            while word != 0 {
                let idx = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                if ws.buffered(idx) == 0 {
                    rw.clear(idx);
                    continue;
                }
                let p = StepParams {
                    now,
                    policy: self.params.arbitration,
                    max_hold: self.params.max_hold,
                    hold_slack: self.params.hold_slack,
                    wide_down: self.wiring.wide_down[idx],
                    tsb_extra,
                    blocked: fault_blocked.map_or(0, |b| b[idx]),
                };
                self.routers[idx].step_va(ws, &view, p);
                self.routers[idx].step_sa(ws, &view, p, &mut self.moves);
            }
        }
    }

    /// Drains the routers' telemetry taps in ascending router order,
    /// then applies the cycle's switch moves in allocation order.
    #[inline]
    fn apply_moves(&mut self, now: Cycle) {
        if let Some(t) = &mut self.telemetry {
            for (idx, r) in self.routers.iter_mut().enumerate() {
                let coord = r.coord();
                if let Some(tap) = r.tap.as_mut() {
                    for &(pid, dir, vc) in &tap.va_grants {
                        t.note_va(self.arena.get(pid).uid, coord, dir, vc, now);
                    }
                    for &delay in &tap.hold_delays {
                        t.note_hold(idx, delay);
                    }
                    tap.clear();
                }
            }
        }

        let mut moves = std::mem::take(&mut self.moves);
        for (idx, m) in &moves {
            self.apply_move(*idx, m, now);
        }
        moves.clear();
        self.moves = moves;
    }

    /// Ejection, assembly and estimator events, in ascending NIC order.
    #[inline]
    fn drain_ejection(&mut self, now: Cycle) {
        let mut credits = std::mem::take(&mut self.eject_credits);
        let mut events = std::mem::take(&mut self.eject_events);
        for w in 0..self.nic_eject_wake.words() {
            let mut word = self.nic_eject_wake.word(w);
            while word != 0 {
                let i = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                credits.clear();
                self.nics[i].drain_eject(&mut self.arena, now, &mut credits, &mut events);
                for &(vc, k) in &credits {
                    self.routers[i].return_credit(&mut self.ws, Direction::Local, vc, k);
                }
                for e in events.drain(..) {
                    self.handle_event(e);
                }
                // Draining may have enqueued a tag ack for injection.
                if self.nics[i].inject_backlog() > 0 {
                    self.nic_inject_wake.set(i);
                }
                if self.nics[i].outbox_len() > 0 {
                    self.nic_deliver_wake.set(i);
                }
                // Back-pressured tails stay buffered and keep the NI
                // on the wake list.
                if self.nics[i].eject_buffered() == 0 {
                    self.nic_eject_wake.clear(i);
                }
            }
        }
        self.eject_credits = credits;
        self.eject_events = events;
    }

    /// Runs `cycles` network cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// One cycle of the fault campaign: expire finished episodes, draw
    /// this cycle's events (fixed order, so the schedule is a pure
    /// function of the plan seed), fire the permanent TSB kill, sweep
    /// wedged busy horizons and re-inject due retries. No-op when
    /// injection is off.
    fn fault_tick(&mut self) {
        let Some(mut f) = self.faults.take() else {
            return;
        };
        let now = self.now;
        let plan = *f.plan();
        let n = self.mesh.nodes_per_layer();
        let mut degraded = f.expire(now);

        let (tsb, link, port, bank) = f.draw_events();
        if tsb {
            // A TSB outage severs the vertical hop in both directions:
            // the Down port of the core-layer router above it and the
            // Up port of the cache-layer router below it.
            f.summary.tsb_faults += 1;
            let regions = self.wiring.routing.regions();
            let r = f.rng().below(regions.regions());
            let t = regions.tsb_node(RegionId::new(r as u16));
            let until = now + plan.outage_cycles;
            f.push_outage(t.index(), 1 << Direction::Down.port(), until);
            f.push_outage(n + t.index(), 1 << Direction::Up.port(), until);
            degraded = true;
        }
        if link {
            f.summary.link_faults += 1;
            let r = f.rng().below(2 * n);
            let dir = f.draw_lateral();
            f.push_outage(r, 1 << dir.port(), now + plan.outage_cycles);
            degraded = true;
        }
        if port {
            f.summary.port_faults += 1;
            let r = f.rng().below(2 * n);
            let p = f.rng().below(PORTS);
            f.push_outage(r, 1 << p, now + plan.outage_cycles);
            degraded = true;
        }
        if bank {
            f.summary.bank_faults += 1;
            let b = BankId::new(f.rng().below(n) as u16);
            if f.rng().chance(0.5) {
                // Stuck-busy: the parent's prediction wedges far out;
                // the periodic expiry sweep below is what un-wedges it.
                let idx = self.ridx(self.wiring.parents.parent_of(b));
                self.routers[idx]
                    .busy
                    .force_busy(b, now + plan.stuck_cycles);
            } else {
                f.push_dropping(b, now + plan.outage_cycles);
            }
            degraded = true;
        }

        if !f.killed {
            if let Some(at) = plan.kill_tsb_at {
                if now >= at
                    && self.params.path_mode == RequestPathMode::RegionTsbs
                    && self.params.regions > 1
                {
                    let regions = self.wiring.routing.regions();
                    let victim = RegionId::new(f.rng().below(regions.regions()) as u16);
                    let dead = self.mesh.coord(regions.tsb_node(victim), Layer::Cache);
                    // Re-home onto the nearest surviving TSB (ties break
                    // towards the lowest region index).
                    let survivor = (0..regions.regions() as u16)
                        .filter(|&r| r != victim.raw())
                        .map(|r| regions.tsb_node(RegionId::new(r)))
                        .min_by_key(|&t| dead.manhattan(self.mesh.coord(t, Layer::Cache)));
                    if let Some(survivor) = survivor {
                        self.rehome_region(victim, survivor);
                        f.killed = true;
                        f.summary.rehomed_regions += 1;
                    }
                }
            }
        }

        if plan.expiry_period > 0 && now > 0 && now.is_multiple_of(plan.expiry_period) {
            for &idx in &self.wiring.parent_idxs {
                let clamped = self.routers[idx as usize]
                    .busy
                    .expire_stale(now, plan.busy_cap);
                f.summary.busy_expiries += clamped as u64;
            }
        }

        let mut due = Vec::new();
        f.due_retries(now, &mut due);
        for p in due {
            self.inject(p);
        }

        if degraded || f.killed {
            f.summary.degraded_cycles += 1;
        }
        self.faults = Some(f);
    }

    /// Re-homes `region`'s request traffic onto the TSB at `new_tsb`
    /// (fail-stop degradation after a permanent TSB death).
    ///
    /// Rewires everything derived from the region map, through the
    /// derivation construction uses: the memoized routing table, the
    /// parent/child serialization points (and each router's
    /// busy/congestion tables via [`Router::set_children`]), the
    /// wide-TSB lane set and the window-based estimator state (WB
    /// estimates restart from empty). Router VC and credit state is
    /// untouched, so traffic already in flight drains normally — routes
    /// are recomputed per-position at each VC allocation, stale WB tag
    /// acks are ignored by the estimator's stamp check, and packets
    /// held at a router that stops being a parent release at its next
    /// allocation pass. The dead TSB's port is deliberately *not*
    /// blocked: already-switched flits must drain, and new requests no
    /// longer route through it.
    pub fn rehome_region(&mut self, region: RegionId, new_tsb: NodeId) {
        let mut regions = self.wiring.routing.regions().clone();
        regions.retarget_tsb(region, new_tsb);
        self.wiring = Wiring::new(&self.params, self.mesh, regions, &mut self.estimator);
        for r in &mut self.routers {
            r.set_children(self.wiring.children(r.coord()));
        }
    }

    /// Switches fault injection on before the first cycle.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        self.params.faults = Some(plan);
        self.faults = Some(Box::new(FaultState::new(plan, self.routers.len())));
    }

    /// Switches invariant auditing on before the first cycle.
    pub fn enable_audit(&mut self, cfg: AuditConfig) {
        self.params.audit = Some(cfg);
        self.auditor = Some(Box::new(NetAuditor::new(cfg)));
    }

    /// Switches telemetry collection on before the first cycle. Also
    /// installs the per-router taps the collector drains.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.params.telemetry = Some(cfg);
        self.telemetry = Some(Box::new(NetTelemetry::new(
            cfg,
            self.routers.len(),
            self.params.noc.vcs_per_port,
        )));
        for r in &mut self.routers {
            r.tap = Some(Box::default());
        }
    }

    /// The fault campaign's summary so far, when injection is enabled.
    pub fn fault_summary(&self) -> Option<FaultSummary> {
        self.faults.as_deref().map(|f| f.summary.clone())
    }

    fn refresh_child_cong(&mut self) {
        if !self.params.arbitration.is_bank_aware() {
            return;
        }
        match &self.estimator {
            EstimatorState::Simple => {}
            EstimatorState::Rca(rca) => {
                let per_hop = self.params.noc.vc_depth * self.params.noc.vcs_per_port;
                for &idx in &self.wiring.parent_idxs {
                    let idx = idx as usize;
                    self.routers[idx].refresh_child_cong_with(|c| {
                        rca.estimate_cycles(idx, c.first_hop, per_hop, c.hops)
                            .min(3 * c.base_latency)
                    });
                }
            }
            EstimatorState::WindowBased(map) => {
                for idx in self.wb_dirty.iter() {
                    let coord = self.routers[idx].coord();
                    let Some(wb) = map.get(&coord) else { continue };
                    self.routers[idx]
                        .refresh_child_cong_with(|c| wb.estimate(c.bank).min(3 * c.base_latency));
                }
                self.wb_dirty.zero();
            }
        }
    }

    fn apply_move(&mut self, idx: usize, m: &SwitchMove, now: Cycle) {
        let coord = self.routers[idx].coord();
        let nflits = m.flits.len() as u8;

        // Parent bookkeeping: busy-table update and WB tagging happen
        // when the head flit of a bank request is forwarded by the
        // destination bank's parent.
        if m.flits[0].head {
            let pid = m.flits[0].packet;
            let (kind, bank) = {
                let p = self.arena.get(pid);
                (p.kind, p.dest_bank(self.mesh))
            };
            if let Some(bank) = bank {
                if self.routers[idx].manages(bank) {
                    if let EstimatorState::WindowBased(map) = &mut self.estimator {
                        if let Some(wb) = map.get_mut(&coord) {
                            if let Some(stamp) = wb.on_forward(bank, now, self.params.wb_window) {
                                self.arena.get_mut(pid).wb_tag = Some(WbTag {
                                    stamp,
                                    parent: coord,
                                    child: bank,
                                });
                            }
                        }
                    }
                    let service = if kind.is_bank_write() {
                        self.params.bank_write_latency
                    } else {
                        self.params.bank_read_latency
                    };
                    let extra = (kind.flits(self.params.noc.data_flits) - 1) as u64;
                    let view = View {
                        arena: &self.arena,
                        routing: &self.wiring.routing,
                        mesh: self.mesh,
                    };
                    self.routers[idx].note_forward(
                        &self.ws,
                        bank,
                        kind.is_bank_write(),
                        service,
                        extra,
                        now,
                        &view,
                    );
                }
            }
        }

        if let Some(t) = &mut self.telemetry {
            let uid = self.arena.get(m.flits[0].packet).uid;
            t.note_link(idx, coord, uid, m.out_dir, m.out_vc as u8, nflits, now);
        }

        // Return credits upstream for the freed buffer slots.
        let in_dir = Direction::ALL[m.in_port];
        if in_dir == Direction::Local {
            self.nics[idx].return_credit(m.in_vc, nflits);
        } else {
            let uidx = self
                .neighbour_idx(idx, in_dir)
                .expect("input port has an upstream");
            self.routers[uidx].return_credit(&mut self.ws, in_dir.arrival_port(), m.in_vc, nflits);
        }

        // Deliver the flits.
        match m.out_dir {
            Direction::Local => {
                for f in &m.flits {
                    self.nics[idx].accept_eject(m.out_vc, *f);
                }
                self.nic_eject_wake.set(idx);
            }
            dir => {
                let tidx = self.neighbour_idx(idx, dir).expect("route stays on chip");
                let in_port = dir.arrival_port().port();
                let ready = now + self.params.noc.link_latency + self.params.noc.router_stages;
                for f in &m.flits {
                    self.routers[tidx].accept(
                        &mut self.ws,
                        in_port,
                        m.out_vc,
                        Flit {
                            ready_at: ready,
                            ..*f
                        },
                    );
                }
                self.router_wake.set(tidx);
                if matches!(dir, Direction::Up | Direction::Down) {
                    self.stats.vertical_flits += nflits as u64;
                    if nflits > 1 {
                        self.stats.wide_tsb_flits += (nflits - 1) as u64;
                    }
                } else {
                    self.stats.lateral_flits += nflits as u64;
                }
            }
        }
    }

    fn handle_event(&mut self, event: DeliveryEvent) {
        match event {
            DeliveryEvent::TagAck(tag, when) => {
                // A bank mid dropped-ack episode may swallow its
                // estimator acks; the WB estimator's periodic stale-tag
                // expiry unwedges the prediction.
                if let Some(f) = &mut self.faults {
                    if f.swallow_ack(tag.child) {
                        return;
                    }
                }
                self.stats.tag_acks += 1;
                let base = self
                    .wiring
                    .parents
                    .child_info(tag.parent, tag.child)
                    .map(|c| c.base_latency)
                    .unwrap_or(0);
                if let EstimatorState::WindowBased(map) = &mut self.estimator {
                    if let Some(wb) = map.get_mut(&tag.parent) {
                        let before = wb.estimate(tag.child);
                        let Some(sample) = wb.on_ack(tag.child, tag.stamp, when, base) else {
                            return;
                        };
                        let parent = self.ridx(tag.parent);
                        self.wb_dirty.set(parent);
                        if let Some(t) = &mut self.telemetry {
                            t.note_estimator(before, sample);
                        }
                    }
                }
            }
        }
    }

    /// Clears all statistics (end of warm-up); in-flight traffic is
    /// unaffected.
    pub fn reset_stats(&mut self) {
        self.stats = NetStats::default();
        for r in &mut self.routers {
            r.reset_stats();
        }
        if let Some(t) = &mut self.telemetry {
            t.reset();
        }
    }

    /// The collected telemetry so far, when telemetry is enabled.
    pub fn telemetry_summary(&self) -> Option<TelemetrySummary> {
        self.telemetry.as_deref().map(NetTelemetry::summary)
    }

    /// Total packets held at parent routers so far.
    pub fn held_packets(&self) -> u64 {
        self.routers.iter().map(|r| r.stats.held_packets).sum()
    }

    /// Total hold cycles accumulated at parent routers.
    pub fn held_cycles(&self) -> u64 {
        self.routers.iter().map(|r| r.stats.held_cycles).sum()
    }

    /// Bank requests forwarded by parent routers.
    pub fn forwarded_requests(&self) -> u64 {
        self.routers
            .iter()
            .map(|r| r.stats.forwarded_to_children)
            .sum()
    }

    /// Mean number of request packets buffered in a sampled router
    /// whose destination is exactly `hops` (1..=3) away, sampled at
    /// write forwards (Figure 3 inset / Figure 13a).
    pub fn queue_mean_at_hops(&self, hops: u32) -> f64 {
        assert!((1..=3).contains(&hops));
        let sum: u64 = self
            .routers
            .iter()
            .map(|r| r.stats.queue_by_hops[(hops - 1) as usize])
            .sum();
        let n: u64 = self
            .routers
            .iter()
            .map(|r| r.stats.child_queue_samples)
            .sum();
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// [`Network::queue_mean_at_hops`] at the paper's default H = 2.
    pub fn child_queue_mean(&self) -> f64 {
        self.queue_mean_at_hops(2)
    }

    /// Total flits written into router buffers (energy accounting).
    pub fn buffer_writes(&self) -> u64 {
        self.routers.iter().map(|r| r.stats.buffer_writes).sum()
    }

    /// Total crossbar traversals (energy accounting).
    pub fn switch_traversals(&self) -> u64 {
        self.routers.iter().map(|r| r.stats.switch_traversals).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    fn params(mode: RequestPathMode, arbitration: ArbitrationPolicy) -> NetworkParams {
        NetworkParams {
            noc: NocConfig::default(),
            path_mode: mode,
            regions: 4,
            placement: TsbPlacement::Corner,
            parent_hops: 2,
            arbitration,
            wb_window: 100,
            bank_read_latency: 3,
            bank_write_latency: 33,
            cache_outbox_cap: 4,
            core_outbox_cap: 64,
            max_hold: 99,
            hold_slack: 0,
            audit: None,
            telemetry: None,
            faults: None,
        }
    }

    fn core(net: &Network, node: u16) -> Coord {
        net.mesh()
            .coord(snoc_common::ids::NodeId::new(node), Layer::Core)
    }

    fn cache(net: &Network, node: u16) -> Coord {
        net.mesh()
            .coord(snoc_common::ids::NodeId::new(node), Layer::Cache)
    }

    fn deliver(net: &mut Network, at: Coord, max_cycles: u64) -> Vec<Packet> {
        for _ in 0..max_cycles {
            net.step();
            let got = net.drain_delivered(at);
            if !got.is_empty() {
                return got;
            }
        }
        panic!("nothing delivered at {at} within {max_cycles} cycles");
    }

    #[test]
    fn read_request_crosses_the_chip() {
        let mut net = Network::new(params(
            RequestPathMode::AllTsvs,
            ArbitrationPolicy::RoundRobin,
        ));
        let src = core(&net, 0);
        let dst = cache(&net, 63);
        net.inject(Packet::new(PacketKind::BankRead, src, dst, 0x1000, 5));
        let got = deliver(&mut net, dst, 200);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].token, 5);
        assert_eq!(got[0].addr, 0x1000);
        // 15 hops * 3 cycles + endpoint overheads: sane bounds.
        let lat = got[0].net_latency();
        assert!((45..90).contains(&lat), "latency {lat}");
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn data_packet_arrives_intact() {
        let mut net = Network::new(params(
            RequestPathMode::AllTsvs,
            ArbitrationPolicy::RoundRobin,
        ));
        let src = cache(&net, 9);
        let dst = core(&net, 54);
        net.inject(Packet::new(PacketKind::DataReply, src, dst, 0xBEEF, 9));
        let got = deliver(&mut net, dst, 300);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].addr, 0xBEEF);
    }

    #[test]
    fn region_tsb_requests_ride_the_wide_tsb() {
        // Flit combining needs back-to-back flits buffered at the TSB
        // router, which only happens under contention: converge
        // several writebacks from different cores on one region.
        let mut net = Network::new(params(
            RequestPathMode::RegionTsbs,
            ArbitrationPolicy::RoundRobin,
        ));
        let banks = [25u16, 18, 11, 24, 17, 10, 9, 16];
        for (i, &b) in banks.iter().enumerate() {
            let src = core(&net, (i * 9) as u16);
            let dst = cache(&net, b); // all in region 0
            net.inject(Packet::new(
                PacketKind::Writeback,
                src,
                dst,
                i as u64,
                i as u64,
            ));
        }
        net.run(1500);
        let delivered: usize = banks
            .iter()
            .map(|&b| net.drain_delivered(cache(&net, b)).len())
            .sum();
        assert_eq!(delivered, banks.len());
        assert!(
            net.stats().wide_tsb_flits > 0,
            "contended TSB should combine flits"
        );
    }

    #[test]
    fn many_packets_all_arrive_exactly_once() {
        let mut net = Network::new(params(
            RequestPathMode::RegionTsbs,
            ArbitrationPolicy::RoundRobin,
        ));
        let n = 200;
        for i in 0..n {
            let src = core(&net, (i * 7) % 64);
            let dst = cache(&net, (i * 13) % 64);
            net.inject(Packet::new(
                PacketKind::BankRead,
                src,
                dst,
                i as u64,
                i as u64,
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3000 {
            net.step();
            for node in 0..64u16 {
                let at = cache(&net, node);
                for p in net.drain_delivered(at) {
                    assert!(seen.insert(p.token), "duplicate delivery of {}", p.token);
                }
            }
            if seen.len() == n as usize {
                break;
            }
        }
        assert_eq!(seen.len(), n as usize, "all packets delivered");
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn bank_aware_holds_back_to_back_writes() {
        let aware = ArbitrationPolicy::BankAware {
            estimator: Estimator::Simple,
        };
        let mut net = Network::new(params(RequestPathMode::RegionTsbs, aware));
        let src = core(&net, 7);
        let dst = cache(&net, 25); // managed by parent chip node 91
        for i in 0..4 {
            net.inject(Packet::new(PacketKind::Writeback, src, dst, i, i));
        }
        let mut delivered = 0;
        for _ in 0..2000 {
            net.step();
            delivered += net.drain_delivered(dst).len();
            if delivered == 4 {
                break;
            }
        }
        assert_eq!(delivered, 4);
        assert!(
            net.held_packets() >= 1,
            "later writes must be held at the parent"
        );
        assert!(net.held_cycles() > 0);
    }

    #[test]
    fn round_robin_never_holds() {
        let mut net = Network::new(params(
            RequestPathMode::RegionTsbs,
            ArbitrationPolicy::RoundRobin,
        ));
        let src = core(&net, 7);
        let dst = cache(&net, 25);
        for i in 0..4 {
            net.inject(Packet::new(PacketKind::Writeback, src, dst, i, i));
        }
        net.run(1500);
        assert_eq!(net.held_packets(), 0);
    }

    #[test]
    fn wb_estimator_closes_the_tag_loop() {
        let aware = ArbitrationPolicy::BankAware {
            estimator: Estimator::WindowBased,
        };
        let mut p = params(RequestPathMode::RegionTsbs, aware);
        p.wb_window = 2; // tag frequently so the test is quick
        let mut net = Network::new(p);
        let src = core(&net, 7);
        let dst = cache(&net, 25);
        let mut injected = 0u64;
        let mut drained = 0;
        for cycle in 0..3000 {
            if cycle % 20 == 0 && injected < 30 {
                net.inject(Packet::new(
                    PacketKind::BankRead,
                    src,
                    dst,
                    injected,
                    injected,
                ));
                injected += 1;
            }
            net.step();
            drained += net.drain_delivered(dst).len();
        }
        assert_eq!(drained, 30);
        assert!(
            net.stats().tag_acks > 0,
            "acks must flow back to the parent"
        );
        assert_eq!(net.in_flight(), 0, "tag acks are consumed internally");
    }

    #[test]
    fn outbox_backpressure_throttles_delivery() {
        // Never drain the destination: deliveries stop at the outbox
        // cap while the network holds the rest without losing packets.
        let mut net = Network::new(params(
            RequestPathMode::RegionTsbs,
            ArbitrationPolicy::RoundRobin,
        ));
        let dst = cache(&net, 25);
        for i in 0..40 {
            let src = core(&net, (i % 64) as u16);
            net.inject(Packet::new(
                PacketKind::BankRead,
                src,
                dst,
                i as u64,
                i as u64,
            ));
        }
        net.run(2000);
        assert_eq!(net.stats().delivered, 0, "nothing drained yet");
        let got = net.drain_delivered(dst);
        assert_eq!(got.len(), 4, "outbox cap bounds undrained deliveries");
        net.run(500);
        let got2 = net.drain_delivered_up_to(dst, 2);
        assert_eq!(got2.len(), 2, "partial drain respects the bound");
        net.run(500);
        let got3 = net.drain_delivered(dst);
        assert!(
            !got3.is_empty(),
            "backpressured packets flow after draining"
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let aware = ArbitrationPolicy::BankAware {
                estimator: Estimator::WindowBased,
            };
            let mut net = Network::new(params(RequestPathMode::RegionTsbs, aware));
            for i in 0..100u64 {
                let src = core(&net, ((i * 11) % 64) as u16);
                let dst = cache(&net, ((i * 29) % 64) as u16);
                let kind = if i % 3 == 0 {
                    PacketKind::Writeback
                } else {
                    PacketKind::BankRead
                };
                net.inject(Packet::new(kind, src, dst, i, i));
            }
            net.run(2500);
            for node in 0..64u16 {
                let at = cache(&net, node);
                net.drain_delivered(at);
            }
            (
                net.stats().delivered,
                net.stats().latency.mean(),
                net.held_packets(),
                net.stats().vertical_flits,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn audited_mixed_run_is_clean() {
        let aware = ArbitrationPolicy::BankAware {
            estimator: Estimator::WindowBased,
        };
        let mut p = params(RequestPathMode::RegionTsbs, aware);
        p.wb_window = 2;
        p.audit = Some(AuditConfig::default());
        let mut net = Network::new(p);
        for i in 0..100u64 {
            let src = core(&net, ((i * 11) % 64) as u16);
            let dst = cache(&net, ((i * 29) % 64) as u16);
            let kind = if i % 3 == 0 {
                PacketKind::Writeback
            } else {
                PacketKind::BankRead
            };
            net.inject(Packet::new(kind, src, dst, i, i));
        }
        let mut delivered = 0;
        for _ in 0..2500 {
            net.step();
            for node in 0..64u16 {
                let at = cache(&net, node);
                delivered += net.drain_delivered(at).len();
            }
        }
        assert_eq!(delivered, 100);
        let report = net.audit_report().expect("auditor is on");
        assert!(report.violations == 0, "violations: {:?}", report.samples);
        assert!(report.clean());
        assert!(report.checked_cycles == 2500);
    }

    #[test]
    fn auditor_flags_a_packet_past_the_age_bound() {
        let mut p = params(RequestPathMode::RegionTsbs, ArbitrationPolicy::RoundRobin);
        p.audit = Some(AuditConfig {
            max_age: 50,
            ..AuditConfig::default()
        });
        let mut net = Network::new(p);
        let src = core(&net, 7);
        let dst = cache(&net, 25);
        net.inject(Packet::new(PacketKind::BankRead, src, dst, 0, 0));
        // Never drain the destination: the packet sits in the outbox
        // and trips the watchdog.
        net.run(200);
        let report = net.audit_report().unwrap();
        assert_eq!(report.violations, 1, "age bound reported exactly once");
        assert!(report.samples[0].contains("age bound"));
    }

    /// Re-runs the network's auditor on its current end-of-step state
    /// and returns the violations that pass reported.
    fn audit_now(net: &mut Network) -> Vec<String> {
        let mut a = net.auditor.take().expect("auditor is on");
        let seen = a.report().samples.len();
        a.audit_cycle(net);
        let found = a.report().samples[seen..].to_vec();
        net.auditor = Some(a);
        found
    }

    #[test]
    fn auditor_flags_a_live_outbox_off_the_delivery_list() {
        let mut p = params(RequestPathMode::RegionTsbs, ArbitrationPolicy::RoundRobin);
        p.audit = Some(AuditConfig::default());
        let mut net = Network::new(p);
        let dst = cache(&net, 25);
        net.inject(Packet::new(PacketKind::BankRead, core(&net, 7), dst, 0, 0));
        let idx = net.ridx(dst);
        for _ in 0..200 {
            net.step();
            if net.nics[idx].outbox_len() > 0 {
                break;
            }
        }
        assert_eq!(net.nics[idx].outbox_len(), 1, "the read reached the outbox");
        assert_eq!(audit_now(&mut net), Vec::<String>::new());
        net.nic_deliver_wake.clear(idx);
        let found = audit_now(&mut net);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("off the delivery list"), "{found:?}");
    }

    #[test]
    fn config_validation_admits_exactly_what_the_allocator_represents() {
        let mut cfg = SystemConfig::default();
        cfg.noc.vcs_per_port = 64 / PORTS;
        cfg.noc.tsb_width_factor = MAX_BURST;
        assert!(cfg.validate().is_ok());
        let net = Network::new(NetworkParams::resolve(&cfg, &NocEnv::default()));
        assert_eq!(net.workspace().vcs(), 64 / PORTS);
        cfg.noc.vcs_per_port += 1;
        assert!(cfg.validate().is_err(), "one VC past the allocation mask");
        cfg.noc.vcs_per_port = 3;
        assert!(cfg.validate().is_ok(), "one VC per traffic class");
        cfg.noc.tsb_width_factor = MAX_BURST + 1;
        assert!(cfg.validate().is_err(), "a burst past MAX_BURST");
    }

    /// Injects one data reply and steps until `pick` accepts some
    /// router; returns that router's index.
    fn step_until_router(net: &mut Network, pick: impl Fn(&Network, usize) -> bool) -> usize {
        let dst = cache(net, 25);
        net.inject(Packet::new(PacketKind::DataReply, core(net, 7), dst, 0, 0));
        for _ in 0..200 {
            net.step();
            if let Some(idx) = (0..net.routers.len()).find(|&i| pick(net, i)) {
                return idx;
            }
        }
        panic!("no router reached the wanted state");
    }

    #[test]
    fn auditor_flags_a_stale_front_ready_cache() {
        let mut p = params(RequestPathMode::RegionTsbs, ArbitrationPolicy::RoundRobin);
        p.audit = Some(AuditConfig::default());
        let mut net = Network::new(p);
        let idx = step_until_router(&mut net, |net, i| net.ws.buffered(i) > 0);
        assert_eq!(audit_now(&mut net), Vec::<String>::new());
        let lane = (0..PORTS * net.ws.vcs())
            .map(|flat| net.ws.router_base(idx) + flat)
            .find(|&lane| net.ws.vc_len(lane) > 0)
            .expect("a buffered lane");
        let ready = net.ws.front_ready_at(lane);
        net.ws.corrupt_front_ready(lane, ready + 1);
        let found = audit_now(&mut net);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("front-ready cache"), "{found:?}");
    }

    #[test]
    fn auditor_flags_an_sa_port_mask_off_its_sa_mask_words() {
        let mut p = params(RequestPathMode::RegionTsbs, ArbitrationPolicy::RoundRobin);
        p.audit = Some(AuditConfig::default());
        let mut net = Network::new(p);
        let idx = step_until_router(&mut net, |net, i| net.routers[i].sa_port_masks().0 != 0);
        assert_eq!(audit_now(&mut net), Vec::<String>::new());
        let (ports, _) = net.routers[idx].sa_port_masks();
        net.routers[idx].corrupt_sa_ports(ports & (ports - 1));
        let found = audit_now(&mut net);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("SA port mask"), "{found:?}");
    }

    #[test]
    fn auditor_flags_a_wb_parent_that_skips_its_refresh() {
        let aware = ArbitrationPolicy::BankAware {
            estimator: Estimator::WindowBased,
        };
        let mut p = params(RequestPathMode::RegionTsbs, aware);
        p.wb_window = 1;
        p.audit = Some(AuditConfig::default());
        let mut net = Network::new(p);
        // Writebacks from every core converge on one slowly drained
        // bank, so tagged requests queue and their acks report
        // congestion.
        let dst = cache(&net, 25);
        for i in 0..64u16 {
            net.inject(Packet::new(
                PacketKind::Writeback,
                core(&net, i),
                dst,
                u64::from(i),
                u64::from(i),
            ));
        }
        // A parent whose pending refresh would change its child_cong.
        let stale = |net: &Network, idx: usize| {
            let EstimatorState::WindowBased(map) = &net.estimator else {
                unreachable!("WB network");
            };
            let r = &net.routers[idx];
            map.get(&r.coord()).is_some_and(|wb| {
                r.children()
                    .iter()
                    .zip(&r.child_cong)
                    .any(|(c, &have)| wb.estimate(c.bank).min(3 * c.base_latency) != have)
            })
        };
        for cycle in 0..5_000 {
            net.step();
            if cycle % 8 == 0 {
                net.drain_delivered_up_to(dst, 1);
            }
            let Some(idx) =
                (0..net.routers.len()).find(|&i| net.wb_dirty.contains(i) && stale(&net, i))
            else {
                continue;
            };
            let refresh = |f: &String| f.contains("not marked for refresh");
            assert!(!audit_now(&mut net).iter().any(refresh));
            net.wb_dirty.clear(idx);
            let found = audit_now(&mut net);
            assert!(found.iter().any(refresh), "{found:?}");
            return;
        }
        panic!("no ack changed a WB estimate");
    }

    #[test]
    fn outbox_backpressure_never_drops_a_delivery() {
        // Satellite regression: with the auditor on, saturate one
        // cache NI (cap 4) far beyond its outbox capacity, drain
        // slowly, and verify every offered packet is delivered exactly
        // once with zero conservation violations.
        let mut p = params(RequestPathMode::RegionTsbs, ArbitrationPolicy::RoundRobin);
        p.audit = Some(AuditConfig::default());
        let mut net = Network::new(p);
        let dst = cache(&net, 25);
        for i in 0..40u64 {
            let src = core(&net, (i % 64) as u16);
            net.inject(Packet::new(PacketKind::BankRead, src, dst, i, i));
        }
        let mut seen = std::collections::HashSet::new();
        for cycle in 0..6000 {
            net.step();
            // Drain at most one packet every 16 cycles: the outbox
            // stays pinned at its cap most of the time.
            if cycle % 16 == 0 {
                for packet in net.drain_delivered_up_to(dst, 1) {
                    assert!(seen.insert(packet.token), "duplicate {}", packet.token);
                }
            }
        }
        for packet in net.drain_delivered(dst) {
            assert!(seen.insert(packet.token), "duplicate {}", packet.token);
        }
        assert_eq!(seen.len(), 40, "every offered packet delivered");
        assert_eq!(net.in_flight(), 0);
        let report = net.audit_report().unwrap();
        assert!(report.violations == 0, "violations: {:?}", report.samples);
    }

    #[test]
    fn telemetry_collects_without_changing_the_run() {
        let aware = ArbitrationPolicy::BankAware {
            estimator: Estimator::WindowBased,
        };
        let run = |telemetry: Option<TelemetryConfig>| {
            let mut p = params(RequestPathMode::RegionTsbs, aware);
            p.wb_window = 2;
            p.telemetry = telemetry;
            let mut net = Network::new(p);
            for i in 0..100u64 {
                let src = core(&net, ((i * 11) % 64) as u16);
                let dst = cache(&net, ((i * 29) % 64) as u16);
                let kind = if i % 3 == 0 {
                    PacketKind::Writeback
                } else {
                    PacketKind::BankRead
                };
                net.inject(Packet::new(kind, src, dst, i, i));
            }
            let mut delivered = 0;
            for _ in 0..2500 {
                net.step();
                for node in 0..64u16 {
                    delivered += net.drain_delivered(cache(&net, node)).len();
                }
            }
            let fp = (
                delivered,
                net.stats().latency.mean(),
                net.held_packets(),
                net.stats().vertical_flits,
                net.stats().tag_acks,
            );
            (fp, net.telemetry_summary())
        };
        let (fp_off, none) = run(None);
        let (fp_on, summary) = run(Some(TelemetryConfig::default()));
        assert!(none.is_none());
        assert_eq!(fp_off, fp_on, "collection must not perturb the run");
        let s = summary.expect("telemetry was on");
        assert!(s.epochs_sampled > 0);
        assert_eq!(s.router_util.len(), 128);
        assert_eq!(
            s.class_latency.iter().map(|h| h.total()).sum::<u64>(),
            100,
            "every delivery lands in a class histogram"
        );
        assert_eq!(
            s.hop_latency.iter().map(|h| h.total()).sum::<u64>(),
            100,
            "and in a hop histogram"
        );
        assert!(s.hold_delay.total() > 0, "bank-aware holds were recorded");
        assert!(
            s.trace
                .iter()
                .any(|e| e.stage == crate::telemetry::TraceStage::Deliver),
            "the trace retains deliveries"
        );
        assert!(
            s.link_flits.iter().flatten().sum::<u64>() > 0,
            "link counters move"
        );
    }

    #[test]
    fn blocked_port_outage_delays_but_never_loses_traffic() {
        use crate::fault::FaultPlan;
        // A long outage on the TSB's Down port while requests stream
        // through it: everything still arrives (as backpressure, not
        // loss), and an identical fault-free run is strictly faster.
        let run = |faults: Option<FaultPlan>| {
            let mut p = params(RequestPathMode::RegionTsbs, ArbitrationPolicy::RoundRobin);
            p.faults = faults;
            let mut net = Network::new(p);
            let mut tokens = std::collections::HashSet::new();
            let mut injected = 0u64;
            for cycle in 0..4000u64 {
                // Stream requests so the outages always overlap live
                // traffic somewhere on the chip.
                if cycle % 10 == 0 && injected < 100 {
                    let src = core(&net, ((injected * 7) % 64) as u16);
                    let dst = cache(&net, ((injected * 5) % 64) as u16);
                    net.inject(Packet::new(
                        PacketKind::BankRead,
                        src,
                        dst,
                        injected,
                        injected,
                    ));
                    injected += 1;
                }
                net.step();
                for node in 0..64u16 {
                    for p in net.drain_delivered(cache(&net, node)) {
                        tokens.insert(p.token);
                    }
                }
            }
            (tokens.len(), net.stats().latency.mean(), net.in_flight())
        };
        let plan = FaultPlan {
            tsb_rate: 0.02, // dozens of outages across the run
            link_rate: 0.0,
            port_rate: 0.0,
            bank_rate: 0.0,
            outage_cycles: 100,
            ..FaultPlan::default()
        };
        let (clean_n, clean_lat, clean_flight) = run(None);
        let (fault_n, fault_lat, fault_flight) = run(Some(plan));
        assert_eq!(clean_n, 100);
        assert_eq!(fault_n, 100, "outages delay, never drop");
        assert_eq!((clean_flight, fault_flight), (0, 0));
        assert!(
            fault_lat > clean_lat,
            "outages must cost latency: {fault_lat} vs {clean_lat}"
        );
    }

    #[test]
    fn dropped_requests_are_retried_to_completion() {
        use crate::fault::FaultPlan;
        let mut p = params(RequestPathMode::RegionTsbs, ArbitrationPolicy::RoundRobin);
        // No random events: drive the dropped-ack machinery directly so
        // the retry path is exercised deterministically.
        p.faults = Some(FaultPlan {
            tsb_rate: 0.0,
            link_rate: 0.0,
            port_rate: 0.0,
            bank_rate: 0.0,
            drop_rate: 1.0,
            retry_base: 32,
            retry_cap: 256,
            ..FaultPlan::default()
        });
        p.audit = Some(AuditConfig::default());
        let mut net = Network::new(p);
        let dst = cache(&net, 25);
        let bank = BankId::new(25);
        // The bank drops everything for 300 cycles.
        {
            let f = net.faults.as_mut().unwrap();
            f.push_dropping(bank, 300);
        }
        let src = core(&net, 7);
        net.inject(Packet::new(PacketKind::BankRead, src, dst, 0xAB, 1));
        let mut got = Vec::new();
        for _ in 0..3000 {
            net.step();
            got.extend(net.drain_delivered(dst));
            if !got.is_empty() {
                break;
            }
        }
        assert_eq!(got.len(), 1, "the retried request eventually lands");
        assert_eq!((got[0].addr, got[0].token), (0xAB, 1));
        let s = net.fault_summary().unwrap();
        assert!(s.dropped >= 1, "at least the first attempt was eaten");
        assert_eq!(s.retries, s.dropped, "every drop scheduled a retry");
        assert_eq!(s.abandoned, 0);
        assert!(s.degraded_cycles > 0);
        let report = net.audit_report().unwrap();
        assert!(report.violations == 0, "violations: {:?}", report.samples);
    }

    #[test]
    fn rehoming_moves_request_traffic_onto_the_survivor() {
        let mut net = Network::new(params(
            RequestPathMode::RegionTsbs,
            ArbitrationPolicy::RoundRobin,
        ));
        let victim_bank = NodeId::new(0); // SW region, TSB at node 27
        let victim = net.regions().region_of(victim_bank);
        let dead = net.regions().tsb_node(victim);
        let survivor_region = (0..4u16).map(RegionId::new).find(|&r| r != victim).unwrap();
        let survivor = net.regions().tsb_node(survivor_region);
        net.rehome_region(victim, survivor);
        assert_eq!(net.regions().tsb_node(victim), survivor);
        assert!(!net.regions().is_tsb_node(dead));
        // The dead TSB's core-layer router lost its wide-down lane.
        assert!(!net.wiring.wide_down[dead.index()]);
        assert!(net.wiring.wide_down[survivor.index()]);
        // Requests into the victim region still arrive, via the
        // survivor's vertical hop.
        let src = core(&net, 63);
        let dst = cache(&net, 0);
        net.inject(Packet::new(PacketKind::BankRead, src, dst, 0xF, 3));
        let got = deliver(&mut net, dst, 400);
        assert_eq!(got.len(), 1);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn killing_a_tsb_mid_run_degrades_gracefully() {
        use crate::fault::FaultPlan;
        let aware = ArbitrationPolicy::BankAware {
            estimator: Estimator::WindowBased,
        };
        let mut p = params(RequestPathMode::RegionTsbs, aware);
        p.wb_window = 2;
        p.faults = Some(FaultPlan {
            tsb_rate: 0.0,
            link_rate: 0.0,
            port_rate: 0.0,
            bank_rate: 0.0,
            kill_tsb_at: Some(500),
            ..FaultPlan::default()
        });
        p.audit = Some(AuditConfig::default());
        let mut net = Network::new(p);
        let mut seen = std::collections::HashSet::new();
        let mut injected = 0u64;
        for cycle in 0..6000u64 {
            // Keep a steady trickle flowing across the kill boundary.
            if cycle % 25 == 0 && injected < 120 {
                let src = core(&net, ((injected * 11) % 64) as u16);
                let dst = cache(&net, ((injected * 29) % 64) as u16);
                let kind = if injected.is_multiple_of(3) {
                    PacketKind::Writeback
                } else {
                    PacketKind::BankRead
                };
                net.inject(Packet::new(kind, src, dst, injected, injected));
                injected += 1;
            }
            net.step();
            for node in 0..64u16 {
                for p in net.drain_delivered(cache(&net, node)) {
                    assert!(seen.insert(p.token), "duplicate {}", p.token);
                }
            }
        }
        assert_eq!(seen.len(), 120, "traffic survives the TSB death");
        assert_eq!(net.in_flight(), 0);
        let s = net.fault_summary().unwrap();
        assert_eq!(s.rehomed_regions, 1);
        assert!(s.degraded_cycles > 0);
        let report = net.audit_report().unwrap();
        assert!(report.violations == 0, "violations: {:?}", report.samples);
    }

    #[test]
    fn faulty_runs_replay_byte_identically_per_seed() {
        use crate::fault::FaultPlan;
        let run = |seed: u64| {
            let aware = ArbitrationPolicy::BankAware {
                estimator: Estimator::WindowBased,
            };
            let mut p = params(RequestPathMode::RegionTsbs, aware);
            p.wb_window = 2;
            p.faults = Some(FaultPlan {
                seed,
                tsb_rate: 2e-3,
                link_rate: 4e-3,
                port_rate: 4e-3,
                bank_rate: 8e-3,
                kill_tsb_at: Some(400),
                ..FaultPlan::default()
            });
            let mut net = Network::new(p);
            for i in 0..100u64 {
                let src = core(&net, ((i * 11) % 64) as u16);
                let dst = cache(&net, ((i * 29) % 64) as u16);
                let kind = if i % 3 == 0 {
                    PacketKind::Writeback
                } else {
                    PacketKind::BankRead
                };
                net.inject(Packet::new(kind, src, dst, i, i));
            }
            let mut tokens: Vec<u64> = Vec::new();
            for _ in 0..4000 {
                net.step();
                for node in 0..64u16 {
                    tokens.extend(
                        net.drain_delivered(cache(&net, node))
                            .iter()
                            .map(|p| p.token),
                    );
                }
            }
            let s = net.fault_summary().unwrap();
            (
                tokens,
                net.stats().latency.mean(),
                net.stats().vertical_flits,
                s.injected(),
                s.dropped,
                s.retries,
                s.degraded_cycles,
            )
        };
        let a = run(7);
        let b = run(7);
        assert!(a.3 > 0, "the campaign injected something");
        assert_eq!(a, b, "same seed, same faults, same run");
        let c = run(8);
        assert_ne!(a, c, "a different seed draws a different schedule");
    }

    #[test]
    fn coherence_traffic_reaches_cores() {
        let mut net = Network::new(params(
            RequestPathMode::RegionTsbs,
            ArbitrationPolicy::RoundRobin,
        ));
        let src = cache(&net, 12);
        let dst = core(&net, 51);
        net.inject(Packet::new(PacketKind::Inv, src, dst, 0xA, 1));
        let got = deliver(&mut net, dst, 200);
        assert_eq!(got[0].kind, PacketKind::Inv);
        assert!(net.stats().coherence_latency.count() == 1);
    }
}
