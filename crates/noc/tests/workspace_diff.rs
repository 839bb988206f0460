//! Differential test: the workspace-backed router against a naive
//! reference implementation, plus property tests for the allocation
//! bitmask sweeps and audited whole-network runs at several mesh
//! geometries.
//!
//! The reference router is written independently of the production
//! code (same idiom as `routing_diff.rs`): per-VC `VecDeque` buffers,
//! scalar credit counters and explicit `Option` allocation state,
//! stepped with the textbook two-phase VA/SA round-robin. Both routers
//! are driven in lockstep by the same randomized multi-flit traffic
//! and credit-return schedule for thousands of cycles; every switch
//! move and every piece of observable state (buffer contents, routes,
//! owners, credits) must agree, cycle by cycle. The allocator's port
//! bits and rotations depend on the VC count, so the lockstep runs at
//! every geometry in [`VC_GEOMETRIES`].

use snoc_common::config::{ArbitrationPolicy, Estimator, NocConfig, RequestPathMode, TsbPlacement};
use snoc_common::geom::{Coord, Direction, Layer};
use snoc_common::ids::{BankId, NodeId, PacketId};
use snoc_common::rng::SimRng;
use snoc_common::Cycle;
use snoc_noc::network::{Network, NetworkParams};
use snoc_noc::packet::{Flit, Packet, PacketKind};
use snoc_noc::parent::ChildInfo;
use snoc_noc::router::{NetView, OutRoute, Router, StepParams, PORTS};
use snoc_noc::workspace::NocWorkspace;
use snoc_noc::AuditConfig;
use std::collections::VecDeque;

/// VCs per port under test: every count the ablation sweep uses, 4 to
/// 8, among them 7, the "+1 VC" scenario's.
const VC_GEOMETRIES: [usize; 5] = [4, 5, 6, 7, 8];
const DEPTH: usize = 5;
const STAGES: Cycle = 2;

fn at() -> Coord {
    Coord::new(3, 3, Layer::Cache)
}

/// A network view with one fixed route (and optional destination
/// bank) per packet, so routing is an explicit test input instead of
/// a function of coordinates.
struct TestView {
    packets: Vec<Packet>,
    routes: Vec<Direction>,
    banks: Vec<Option<BankId>>,
}

impl TestView {
    fn new() -> Self {
        Self {
            packets: Vec::new(),
            routes: Vec::new(),
            banks: Vec::new(),
        }
    }

    fn add(&mut self, kind: PacketKind, route: Direction, bank: Option<BankId>) -> PacketId {
        let id = PacketId::new(self.packets.len() as u16);
        let mut p = Packet::new(kind, Coord::new(0, 0, Layer::Core), at(), 0, 0);
        p.id = id;
        self.packets.push(p);
        self.routes.push(route);
        self.banks.push(bank);
        id
    }
}

impl NetView for TestView {
    fn packet(&self, id: PacketId) -> &Packet {
        &self.packets[id.index()]
    }
    fn route(&self, _at: Coord, packet: &Packet) -> Direction {
        self.routes[packet.id.index()]
    }
    fn dest_bank(&self, packet: &Packet) -> Option<BankId> {
        self.banks[packet.id.index()]
    }
}

/// One granted move of the reference router.
#[derive(Debug, PartialEq, Eq)]
struct RefMove {
    in_port: usize,
    in_vc: usize,
    out_dir: Direction,
    out_vc: usize,
    flits: Vec<(PacketId, u16, bool, bool)>,
}

/// First eligible index in rotating order starting after `last`.
fn rotate_pick(last: usize, n: usize, mut eligible: impl FnMut(usize) -> bool) -> Option<usize> {
    (1..=n).map(|off| (last + off) % n).find(|&i| eligible(i))
}

/// The naive reference: nested queues and scalars, no bitmasks, no
/// shared lane store. Implements plain round-robin VA/SA (the
/// `SystemConfig::default()` fast path) from the allocation spec:
/// a head flit that has cleared the pipeline claims a free credited
/// output VC of its class (preferring empty downstream buffers), and
/// each output port grants one routed, ready, credited input VC per
/// cycle in rotating priority, at most one grant per input port.
struct RefRouter {
    vcs: usize,
    inputs: Vec<VecDeque<Flit>>,
    route: Vec<Option<(usize, usize)>>,
    credits: Vec<u8>,
    owner: Vec<Option<(usize, usize)>>,
    va_rr: [usize; PORTS],
    sa_rr: [usize; PORTS],
}

impl RefRouter {
    fn new(vcs: usize) -> Self {
        Self {
            vcs,
            inputs: (0..PORTS * vcs).map(|_| VecDeque::new()).collect(),
            route: vec![None; PORTS * vcs],
            credits: vec![DEPTH as u8; PORTS * vcs],
            owner: vec![None; PORTS * vcs],
            va_rr: [0; PORTS],
            sa_rr: [0; PORTS],
        }
    }

    fn step_va(&mut self, view: &TestView, now: Cycle) {
        let vcs = self.vcs;
        for flat in 0..PORTS * vcs {
            let Some(front) = self.inputs[flat].front() else {
                continue;
            };
            if !front.head || self.route[flat].is_some() || front.ready_at > now {
                continue;
            }
            let packet = view.packet(front.packet);
            let dp = view.route(at(), packet).port();
            let range = packet.kind.class().vc_range(vcs);
            let free = |v: usize| {
                range.contains(&v)
                    && self.owner[dp * vcs + v].is_none()
                    && self.credits[dp * vcs + v] > 0
            };
            let pick = rotate_pick(self.va_rr[dp], vcs, |v| {
                free(v) && self.credits[dp * vcs + v] == DEPTH as u8
            })
            .or_else(|| rotate_pick(self.va_rr[dp], vcs, free));
            if let Some(v) = pick {
                self.va_rr[dp] = v;
                self.owner[dp * vcs + v] = Some((flat / vcs, flat % vcs));
                self.route[flat] = Some((dp, v));
            }
        }
    }

    fn step_sa(&mut self, now: Cycle) -> Vec<RefMove> {
        let vcs = self.vcs;
        let mut moves = Vec::new();
        let mut used = [false; PORTS];
        for out_dir in Direction::ALL {
            let op = out_dir.port();
            let n = PORTS * vcs;
            let rr = self.sa_rr[op];
            // Rotating priority: indices above the last winner first.
            let order = (rr + 1..n).chain(0..=rr);
            let mut winner = None;
            for i in order {
                if used[i / vcs] {
                    continue;
                }
                let Some((dp, ov)) = self.route[i] else {
                    continue;
                };
                if dp != op || self.credits[op * vcs + ov] == 0 {
                    continue;
                }
                match self.inputs[i].front() {
                    Some(f) if f.ready_at <= now => {}
                    _ => continue,
                }
                winner = Some((i, ov));
                break;
            }
            let Some((i, ov)) = winner else { continue };
            self.sa_rr[op] = i;
            used[i / vcs] = true;
            let flit = self.inputs[i].pop_front().expect("winner has a flit");
            self.credits[op * vcs + ov] -= 1;
            if flit.tail {
                self.owner[op * vcs + ov] = None;
                self.route[i] = None;
            }
            moves.push(RefMove {
                in_port: i / vcs,
                in_vc: i % vcs,
                out_dir,
                out_vc: ov,
                flits: vec![(flit.packet, flit.seq, flit.head, flit.tail)],
            });
        }
        moves
    }
}

fn params(now: Cycle, policy: ArbitrationPolicy) -> StepParams {
    StepParams {
        now,
        policy,
        max_hold: 32,
        hold_slack: 4,
        wide_down: false,
        tsb_extra: 0,
        blocked: 0,
    }
}

/// A packet mid-injection into one input VC.
struct Stream {
    flits: VecDeque<Flit>,
}

fn random_packet(view: &mut TestView, rng: &mut SimRng) -> (PacketId, usize) {
    let (kind, bank) = match rng.below(4) {
        0 => (PacketKind::BankRead, None),
        1 => (PacketKind::Inv, None),
        2 => (PacketKind::DataReply, None),
        _ => (PacketKind::BankWrite, None),
    };
    let dir = Direction::ALL[rng.below(PORTS)];
    let id = view.add(kind, dir, bank);
    let nflits = 1 + rng.below(4);
    (id, nflits)
}

fn assert_same_state(ws: &NocWorkspace, r: &Router, rf: &RefRouter, cycle: Cycle) {
    let vcs = rf.vcs;
    for port in 0..PORTS {
        for vc in 0..vcs {
            let flat = port * vcs + vc;
            let real = r.input_vc(ws, port, vc);
            let q = &rf.inputs[flat];
            assert_eq!(
                real.len(),
                q.len(),
                "{vcs} VCs, cycle {cycle}: len at {port}/{vc}"
            );
            for (k, want) in q.iter().enumerate() {
                let got = real.flit(k);
                assert_eq!(
                    (got.packet, got.seq, got.head, got.tail),
                    (want.packet, want.seq, want.head, want.tail),
                    "cycle {cycle}: flit {k} at {port}/{vc}"
                );
            }
            let want_route = rf.route[flat].map(|(dp, v)| OutRoute {
                dir: Direction::ALL[dp],
                vc: v,
            });
            assert_eq!(
                real.route(),
                want_route,
                "cycle {cycle}: route at {port}/{vc}"
            );
            let out = ws.port(0, port);
            assert_eq!(
                out.credits(vc),
                rf.credits[flat],
                "cycle {cycle}: credits at {port}/{vc}"
            );
            assert_eq!(
                out.owner(vc),
                rf.owner[flat].map(|(p, v)| (p as u8, v as u8)),
                "cycle {cycle}: owner at {port}/{vc}"
            );
        }
    }
}

#[test]
fn workspace_router_matches_the_naive_reference_over_mixed_traffic() {
    for vcs in VC_GEOMETRIES {
        lockstep_against_the_reference(vcs);
    }
}

/// Drives the workspace router and the reference at `vcs` VCs per
/// port in lockstep over randomized traffic.
fn lockstep_against_the_reference(vcs: usize) {
    let mut ws = NocWorkspace::new(1, vcs, DEPTH);
    let mut r = Router::new(0, at(), vcs, DEPTH, vec![]);
    let mut rf = RefRouter::new(vcs);
    let mut view = TestView::new();
    let mut rng = SimRng::for_stream(0xD1FF, vcs as u64);
    let mut granted = Vec::new();

    // Per input VC: the packet currently being injected and the
    // upstream link credits gating it.
    let mut streams: Vec<Option<Stream>> = (0..PORTS * vcs).map(|_| None).collect();
    let mut upstream: Vec<u8> = vec![DEPTH as u8; PORTS * vcs];
    // Scheduled downstream credit returns: (due, out port, out vc).
    let mut returns: Vec<(Cycle, usize, usize)> = Vec::new();
    let mut total_moves = 0usize;

    let horizon = 4_000;
    for cycle in 0..horizon + 500 {
        // Downstream neighbours return credits.
        for &(due, dp, ov) in &returns {
            if due == cycle {
                r.return_credit(&mut ws, Direction::ALL[dp], ov, 1);
                rf.credits[dp * vcs + ov] += 1;
            }
        }
        returns.retain(|&(due, _, _)| due != cycle);

        // Start a new packet on a free lane of its class (injection
        // stops at the horizon so the tail of the run drains).
        if cycle < horizon && rng.chance(0.7) {
            let (id, nflits) = random_packet(&mut view, &mut rng);
            let class = view.packet(id).kind.class();
            let port = rng.below(PORTS);
            let lane = class
                .vc_range(vcs)
                .find(|&v| streams[port * vcs + v].is_none());
            if let Some(vc) = lane {
                streams[port * vcs + vc] = Some(Stream {
                    flits: Flit::sequence(id, nflits).collect(),
                });
            }
        }

        // One flit per lane per cycle, gated by upstream credits —
        // identical arrivals into both routers.
        for flat in 0..PORTS * vcs {
            let Some(stream) = &mut streams[flat] else {
                continue;
            };
            if upstream[flat] == 0 {
                continue;
            }
            let mut flit = stream.flits.pop_front().expect("streams are non-empty");
            flit.ready_at = cycle + STAGES;
            upstream[flat] -= 1;
            r.accept(&mut ws, flat / vcs, flat % vcs, flit);
            rf.inputs[flat].push_back(flit);
            if stream.flits.is_empty() {
                streams[flat] = None;
            }
        }

        // Both routers step VA then SA within the cycle.
        let p = params(cycle, ArbitrationPolicy::RoundRobin);
        r.step_va(&mut ws, &view, p);
        granted.clear();
        r.step_sa(&mut ws, &view, p, &mut granted);
        let moves: Vec<RefMove> = granted
            .iter()
            .map(|(_, m)| RefMove {
                in_port: m.in_port,
                in_vc: m.in_vc,
                out_dir: m.out_dir,
                out_vc: m.out_vc,
                flits: m
                    .flits
                    .iter()
                    .map(|f| (f.packet, f.seq, f.head, f.tail))
                    .collect(),
            })
            .collect();
        rf.step_va(&view, cycle);
        let want = rf.step_sa(cycle);
        assert_eq!(
            moves, want,
            "{vcs} VCs, cycle {cycle}: switch moves diverged"
        );
        total_moves += moves.len();

        for m in &moves {
            upstream[m.in_port * vcs + m.in_vc] += m.flits.len() as u8;
            let delay = 1 + rng.below(6) as u64;
            for _ in 0..m.flits.len() {
                returns.push((cycle + delay, m.out_dir.port(), m.out_vc));
            }
        }

        if cycle % 64 == 0 || cycle >= horizon {
            assert_same_state(&ws, &r, &rf, cycle);
        }
    }

    assert!(
        total_moves > 2_000,
        "{vcs} VCs: traffic too thin: {total_moves} moves"
    );
    assert_eq!(ws.buffered(0), 0, "run must drain");
    assert!(rf.inputs.iter().all(VecDeque::is_empty));
}

/// Property tests for the allocation sweeps, including the bank-aware
/// policy the reference above does not model: whatever the traffic
/// and busy-table state, allocation must never double-grant an output
/// VC and credits must stay within `0..=depth`.
#[test]
fn allocation_sweep_never_double_grants_and_credits_stay_bounded() {
    for vcs in VC_GEOMETRIES {
        bank_aware_sweep_properties(vcs);
    }
}

/// Drives a bank-aware parent router at `vcs` VCs per port over
/// randomized traffic and busy-table churn, checking the allocation
/// properties every cycle.
fn bank_aware_sweep_properties(vcs: usize) {
    let children = vec![
        ChildInfo {
            bank: BankId::new(9),
            base_latency: 4,
            first_hop: Direction::South,
            hops: 2,
        },
        ChildInfo {
            bank: BankId::new(10),
            base_latency: 3,
            first_hop: Direction::East,
            hops: 1,
        },
    ];
    let mut ws = NocWorkspace::new(1, vcs, DEPTH);
    let mut r = Router::new(0, at(), vcs, DEPTH, children);
    let mut view = TestView::new();
    let mut rng = SimRng::for_stream(0xBA2C, vcs as u64);
    let policy = ArbitrationPolicy::BankAware {
        estimator: Estimator::WindowBased,
    };

    let mut streams: Vec<Option<Stream>> = (0..PORTS * vcs).map(|_| None).collect();
    let mut upstream: Vec<u8> = vec![DEPTH as u8; PORTS * vcs];
    let mut returns: Vec<(Cycle, usize, usize)> = Vec::new();
    // Per output lane: credits spent and not yet returned.
    let mut outstanding = vec![0u8; PORTS * vcs];
    let mut total_moves = 0usize;
    let mut granted = Vec::new();

    let horizon = 3_000;
    for cycle in 0..horizon + 500 {
        for &(due, dp, ov) in &returns {
            if due == cycle {
                r.return_credit(&mut ws, Direction::ALL[dp], ov, 1);
                outstanding[dp * vcs + ov] -= 1;
            }
        }
        returns.retain(|&(due, _, _)| due != cycle);

        if cycle < horizon && rng.chance(0.6) {
            // Half the traffic is bank requests to managed children,
            // so the hold/release and priority paths all run.
            let (kind, bank) = match rng.below(6) {
                0 | 1 => (PacketKind::BankRead, Some(BankId::new(9))),
                2 => (PacketKind::BankWrite, Some(BankId::new(10))),
                3 => (PacketKind::Inv, None),
                4 => (PacketKind::DataReply, None),
                _ => (PacketKind::Writeback, Some(BankId::new(9))),
            };
            let dir = Direction::ALL[rng.below(PORTS)];
            let id = view.add(kind, dir, bank);
            let nflits = 1 + rng.below(4);
            let port = rng.below(PORTS);
            let class = view.packet(id).kind.class();
            if let Some(vc) = class
                .vc_range(vcs)
                .find(|&v| streams[port * vcs + v].is_none())
            {
                streams[port * vcs + vc] = Some(Stream {
                    flits: Flit::sequence(id, nflits).collect(),
                });
            }
        }
        if cycle < horizon && rng.chance(0.1) {
            let bank = BankId::new(if rng.chance(0.5) { 9 } else { 10 });
            r.busy.force_busy(bank, cycle + 1 + rng.below(30) as u64);
        }

        for flat in 0..PORTS * vcs {
            let Some(stream) = &mut streams[flat] else {
                continue;
            };
            if upstream[flat] == 0 {
                continue;
            }
            let mut flit = stream.flits.pop_front().expect("streams are non-empty");
            flit.ready_at = cycle + STAGES;
            upstream[flat] -= 1;
            r.accept(&mut ws, flat / vcs, flat % vcs, flit);
            if stream.flits.is_empty() {
                streams[flat] = None;
            }
        }

        let p = params(cycle, policy);
        r.step_va(&mut ws, &view, p);
        granted.clear();
        r.step_sa(&mut ws, &view, p, &mut granted);
        let moves: Vec<_> = granted.iter().map(|(_, m)| m).collect();
        total_moves += moves.len();

        // SA properties: one grant per output port, one per input port.
        let mut out_seen = [false; PORTS];
        let mut in_seen = [false; PORTS];
        for m in &moves {
            assert!(!out_seen[m.out_dir.port()], "output port double-granted");
            assert!(!in_seen[m.in_port], "input port double-granted");
            out_seen[m.out_dir.port()] = true;
            in_seen[m.in_port] = true;
            assert!(!m.flits.is_empty());
        }

        let scheduled: Vec<(usize, usize, usize)> = moves
            .iter()
            .map(|m| (m.in_port * vcs + m.in_vc, m.out_dir.port(), m.out_vc))
            .collect();
        for (in_flat, dp, ov) in scheduled {
            upstream[in_flat] += 1;
            outstanding[dp * vcs + ov] += 1;
            let delay = 1 + rng.below(6) as u64;
            returns.push((cycle + delay, dp, ov));
        }

        // VA properties: every routed input VC targets a distinct
        // output VC, every owner points back at its input VC, and
        // credit conservation holds lane by lane.
        let mut claimed = std::collections::HashSet::new();
        for port in 0..PORTS {
            for vc in 0..vcs {
                if let Some(route) = r.input_vc(&ws, port, vc).route() {
                    assert!(
                        claimed.insert((route.dir.port(), route.vc)),
                        "cycle {cycle}: output VC double-granted"
                    );
                    assert_eq!(
                        ws.port(0, route.dir.port()).owner(route.vc),
                        Some((port as u8, vc as u8)),
                        "cycle {cycle}: owner does not point back"
                    );
                }
                let flat = port * vcs + vc;
                let credits = ws.port(0, port).credits(vc);
                assert!(credits as usize <= DEPTH, "credit overflow");
                assert_eq!(
                    credits + outstanding[flat],
                    DEPTH as u8,
                    "cycle {cycle}: credit conservation at {port}/{vc}"
                );
            }
        }
        for (port, vc) in (0..PORTS).flat_map(|p| (0..vcs).map(move |v| (p, v))) {
            if let Some((ip, iv)) = ws.port(0, port).owner(vc) {
                assert_eq!(
                    r.input_vc(&ws, ip as usize, iv as usize)
                        .route()
                        .map(|o| (o.dir.port(), o.vc)),
                    Some((port, vc)),
                    "cycle {cycle}: owned output VC without a matching route"
                );
            }
        }
    }

    assert!(total_moves > 1_500, "traffic too thin: {total_moves} moves");
    assert_eq!(ws.buffered(0), 0, "run must drain (no livelock from holds)");
}

/// One audited run of a fresh network at the given geometry under
/// randomized request, response and coherence traffic: every packet
/// must arrive exactly once, the network must drain, and the auditor
/// (conservation, credits, holds, wake lists) must stay clean. These
/// are the network-level runs at a non-square mesh and at 16x16 with
/// all three traffic classes mixed.
fn audited_mixed_run(
    width: u8,
    height: u8,
    regions: usize,
    horizon: u64,
    drain: u64,
    min_offered: usize,
) {
    let params = NetworkParams {
        noc: NocConfig {
            width,
            height,
            ..NocConfig::default()
        },
        path_mode: RequestPathMode::RegionTsbs,
        regions,
        placement: TsbPlacement::Corner,
        parent_hops: 2,
        arbitration: ArbitrationPolicy::BankAware {
            estimator: Estimator::WindowBased,
        },
        wb_window: 4,
        bank_read_latency: 3,
        bank_write_latency: 33,
        cache_outbox_cap: 4,
        core_outbox_cap: 64,
        max_hold: 99,
        hold_slack: 0,
        audit: Some(AuditConfig::default()),
        telemetry: None,
        faults: None,
    };
    let stream = ((width as u64) << 8) | height as u64;

    let mut net = Network::new(params);
    let mesh = net.mesh();
    let npl = mesh.nodes_per_layer();
    let mut rng = SimRng::for_stream(0x5AAD, stream);
    let mut arrived = vec![false; horizon as usize];
    let mut delivered = 0usize;
    let mut offered = 0usize;
    for cycle in 0..horizon + drain {
        if cycle < horizon && rng.chance(0.5) {
            // One randomized packet, tagged with its offer index.
            let token = offered as u64;
            let s = NodeId::new(rng.below(npl) as u16);
            let d = NodeId::new(rng.below(npl) as u16);
            let (kind, up) = match rng.below(5) {
                0 => (PacketKind::BankRead, true),
                1 => (PacketKind::BankWrite, true),
                2 => (PacketKind::Writeback, true),
                3 => (PacketKind::DataReply, false),
                _ => (PacketKind::Inv, false),
            };
            let (src, dst) = if up {
                (mesh.coord(s, Layer::Core), mesh.coord(d, Layer::Cache))
            } else {
                (mesh.coord(s, Layer::Cache), mesh.coord(d, Layer::Core))
            };
            net.inject(Packet::new(kind, src, dst, token, token));
            offered += 1;
        }
        net.step();
        for node in 0..2 * npl {
            let at = if node < npl {
                mesh.coord(NodeId::new(node as u16), Layer::Core)
            } else {
                mesh.coord(NodeId::new((node - npl) as u16), Layer::Cache)
            };
            for p in net.drain_delivered(at) {
                let token = p.token as usize;
                assert!(
                    !std::mem::replace(&mut arrived[token], true),
                    "cycle {cycle}: packet {token} delivered twice"
                );
                delivered += 1;
            }
        }
    }

    assert!(offered > min_offered, "traffic too thin: {offered} offered");
    assert_eq!(delivered, offered, "every packet arrives exactly once");
    assert_eq!(net.in_flight(), 0, "the run must drain");
    assert_eq!(net.stats().delivered, offered as u64);
    let audit = net.audit_report().expect("auditing is on");
    assert!(audit.clean(), "violations: {:?}", audit.samples);
}

/// The audited run at the paper's 8x8 / 4-region point.
#[test]
fn audited_mixed_traffic_drains_at_8x8() {
    audited_mixed_run(8, 8, 4, 1_500, 1_000, 500);
}

/// The same run at a non-square mesh: 4x8, 4 regions (2x2 tiles of
/// 2x4 nodes).
#[test]
fn audited_mixed_traffic_drains_at_4x8() {
    audited_mixed_run(4, 8, 4, 1_200, 900, 300);
}

/// The same run at 16x16 with 16 regions: 512 routers, 21504 VC
/// lanes, `VcKey` packing well beyond the 8x8 point (shorter horizon;
/// each cycle steps 4x the routers).
#[test]
fn audited_mixed_traffic_drains_at_16x16() {
    audited_mixed_run(16, 16, 16, 400, 900, 100);
}
