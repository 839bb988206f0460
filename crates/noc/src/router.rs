//! The two-stage wormhole router (Table 1: 2-stage pipeline, 6 VCs per
//! port, 5-flit buffers, credit-based virtual-channel flow control).
//!
//! Each router has seven ports (four cardinal, up, down, local). A flit
//! arriving on an input VC becomes eligible for allocation
//! `router_stages` cycles later, modelling the pipeline. The head flit
//! performs route computation and VC allocation (VA); every flit then
//! competes in switch allocation (SA) — one grant per output port and
//! per input port each cycle — and departs over the link.
//!
//! All VC buffer, credit and hold state lives in the shared
//! [`NocWorkspace`](crate::workspace::NocWorkspace) structure-of-arrays
//! store; the router itself keeps only its allocation bitmasks,
//! round-robin pointers and statistics, and steps by sweeping its
//! workspace lanes. Callers thread the workspace through every
//! stepping call, and switch allocation appends its grants straight
//! to the caller's move list.
//!
//! Parent routers additionally implement the paper's STT-RAM-aware
//! arbitration: a head flit whose destination bank is predicted busy is
//! *held* in its VC (VA is withheld) until its release time, and
//! requests to predicted-busy banks lose SA arbitration to coherence,
//! memory-controller and idle-bank traffic.

use crate::arbiter::rr_pick;
use crate::busy::BusyTable;
use crate::packet::{Flit, Packet};
use crate::parent::ChildInfo;
use crate::workspace::{NocWorkspace, VcRef};
use snoc_common::config::ArbitrationPolicy;
use snoc_common::geom::{Coord, Direction};
use snoc_common::ids::{BankId, PacketId};
use snoc_common::Cycle;

/// Number of router ports.
pub const PORTS: usize = 7;

/// What a router can see of the rest of the network: packet contents,
/// the routing function and the request/bank classification.
pub trait NetView {
    /// The packet with the given id.
    fn packet(&self, id: PacketId) -> &Packet;
    /// The output direction for `packet` at router position `at`.
    fn route(&self, at: Coord, packet: &Packet) -> Direction;
    /// The destination bank, if `packet` is a core-side bank request.
    fn dest_bank(&self, packet: &Packet) -> Option<BankId>;
}

/// An allocated output for the packet occupying an input VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutRoute {
    /// Output port direction.
    pub dir: Direction,
    /// Output virtual channel.
    pub vc: usize,
}

/// Largest burst one switch grant can carry: a wide TSB moves
/// `tsb_width_factor` flits per cycle, and every supported
/// configuration fits in this bound (checked at network construction).
pub const MAX_BURST: usize = 4;

/// An inline, fixed-capacity run of flits leaving in one grant — the
/// hot path moves these by value instead of heap-allocating a `Vec`
/// per grant per cycle.
#[derive(Debug, Clone, Copy)]
pub struct FlitBurst {
    len: u8,
    flits: [Flit; MAX_BURST],
}

impl FlitBurst {
    /// A burst holding a single flit.
    fn one(flit: Flit) -> Self {
        Self {
            len: 1,
            flits: [flit; MAX_BURST],
        }
    }

    /// Appends a flit. Panics past [`MAX_BURST`].
    fn push(&mut self, flit: Flit) {
        self.flits[self.len as usize] = flit;
        self.len += 1;
    }
}

impl std::ops::Deref for FlitBurst {
    type Target = [Flit];
    fn deref(&self) -> &[Flit] {
        &self.flits[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a FlitBurst {
    type Item = &'a Flit;
    type IntoIter = std::slice::Iter<'a, Flit>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A granted switch traversal: flits leaving through an output port.
#[derive(Debug, Clone, Copy)]
pub struct SwitchMove {
    /// Source input port.
    pub in_port: usize,
    /// Source input VC.
    pub in_vc: usize,
    /// Output direction.
    pub out_dir: Direction,
    /// Output VC (= downstream input VC).
    pub out_vc: usize,
    /// The departing flits (more than one only over a wide TSB).
    pub flits: FlitBurst,
}

/// Per-cycle scalar parameters for a router step.
#[derive(Debug, Clone, Copy)]
pub struct StepParams {
    /// Current cycle.
    pub now: Cycle,
    /// Arbitration policy in force.
    pub policy: ArbitrationPolicy,
    /// Upper bound on how long a packet may be held (livelock guard).
    pub max_hold: Cycle,
    /// Release slack: let a held packet go this many cycles before the
    /// predicted idle time to cover allocation/switch contention.
    pub hold_slack: Cycle,
    /// `true` when this router's Down port is a wide region TSB.
    pub wide_down: bool,
    /// Extra flits a wide TSB may send per grant (width factor - 1).
    pub tsb_extra: usize,
    /// Output ports disabled this cycle (fault injection), as a
    /// bitmask over [`Direction::port`] indices. A blocked port simply
    /// loses switch allocation: buffered flits wait in their VCs as
    /// ordinary backpressure, no credit moves, so every flow-control
    /// invariant holds while the outage lasts. Zero when fault
    /// injection is off.
    pub blocked: u8,
}

/// Per-cycle telemetry scratch a router fills during VA when the
/// network's telemetry collector is on; drained (and cleared) by the
/// network right after the router steps. Boxed off the router so the
/// telemetry-off hot path pays one cold-pointer branch.
#[derive(Debug, Default)]
pub(crate) struct RouterTap {
    /// Output VCs granted this cycle: (packet, direction, output VC).
    pub va_grants: Vec<(PacketId, Direction, u8)>,
    /// Bank-aware holds that ended at those grants, in cycles.
    pub hold_delays: Vec<Cycle>,
}

impl RouterTap {
    pub fn clear(&mut self) {
        self.va_grants.clear();
        self.hold_delays.clear();
    }
}

/// Counters a router keeps for the evaluation figures.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Bank requests forwarded towards child banks.
    pub forwarded_to_children: u64,
    /// Of those, writes.
    pub writes_to_children: u64,
    /// Packets that were held at least one cycle.
    pub held_packets: u64,
    /// Total cycles packets spent held.
    pub held_cycles: u64,
    /// Sum over write-forward events of the number of buffered
    /// request packets whose destination is exactly H hops away from
    /// this router, for H = 1, 2, 3 (Figure 3 inset / Figure 13a).
    pub queue_by_hops: [u64; 3],
    /// Number of write-forward sampling events.
    pub child_queue_samples: u64,
    /// Flits that traversed the crossbar here.
    pub switch_traversals: u64,
    /// Flits written into input buffers here.
    pub buffer_writes: u64,
}

/// One router of the 3D mesh. Owns allocation masks, round-robin
/// state, the parent busy table and statistics; buffer/credit/hold
/// lanes live in the [`NocWorkspace`] it is stepped against.
#[derive(Debug)]
pub struct Router {
    coord: Coord,
    /// This router's index in the workspace lane space.
    idx: usize,
    vcs: usize,
    depth: u8,
    /// Per output port: last granted output VC (rotating VA priority).
    va_rr: [u8; PORTS],
    /// Per output port: last granted flat input index (rotating SA
    /// priority over the candidate bitmask).
    sa_rr: [u8; PORTS],
    /// Flat (port*vcs+vc) bitmask of VCs whose front flit is a header
    /// awaiting VC allocation.
    va_mask: u64,
    /// Per output port: flat bitmask of input VCs routed to it.
    sa_mask: [u64; PORTS],
    /// Bitmask over output ports whose `sa_mask` word is non-zero: the
    /// ports switch allocation visits.
    sa_ports: u8,
    /// Child banks managed by this router (empty if not a parent).
    children: Vec<ChildInfo>,
    /// Direct-index lookup: raw bank id -> position in `children`
    /// (`u8::MAX` = not managed), so the hot-path child lookups are a
    /// single array access.
    child_lut: Box<[u8]>,
    /// Predicted busy horizons for the children.
    pub busy: BusyTable,
    /// Per-child congestion estimates, refreshed each cycle by the
    /// network (parallel to `children`).
    pub child_cong: Vec<Cycle>,
    /// Statistics.
    pub stats: RouterStats,
    /// Telemetry scratch (present only while telemetry is on).
    pub(crate) tap: Option<Box<RouterTap>>,
}

impl Router {
    /// Creates the router at workspace index `idx` with `vcs` VCs of
    /// `depth` flits on each port, managing `children` as a parent.
    pub fn new(
        idx: usize,
        coord: Coord,
        vcs: usize,
        depth: usize,
        children: Vec<ChildInfo>,
    ) -> Self {
        let mut router = Self {
            coord,
            idx,
            vcs,
            depth: depth as u8,
            va_rr: [0; PORTS],
            sa_rr: [0; PORTS],
            va_mask: 0,
            sa_mask: [0; PORTS],
            sa_ports: 0,
            children: Vec::new(),
            child_lut: Box::default(),
            busy: BusyTable::default(),
            child_cong: Vec::new(),
            stats: RouterStats::default(),
            tap: None,
        };
        router.set_children(children);
        router
    }

    /// This router's position.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// This router's index in the workspace lane space.
    pub fn idx(&self) -> usize {
        self.idx
    }

    /// The banks this router manages as a parent.
    pub fn children(&self) -> &[ChildInfo] {
        &self.children
    }

    /// Replaces this router's child-bank assignment and rebuilds the
    /// busy table, congestion estimates and lookup table from it.
    /// Construction assigns the first children; TSB re-homing moves
    /// them, since the serialization points (and with them the busy
    /// tables) follow a region's request traffic to its surviving TSB.
    /// In-flight VC, credit and statistics state is deliberately
    /// untouched so the network keeps draining under the old wiring
    /// while new requests follow the new one.
    pub fn set_children(&mut self, children: Vec<ChildInfo>) {
        assert!(children.len() < u8::MAX as usize, "child slots fit in u8");
        self.busy = BusyTable::new(children.iter().map(|c| c.bank));
        self.child_cong = vec![0; children.len()];
        let lut_len = children
            .iter()
            .map(|c| c.bank.index() + 1)
            .max()
            .unwrap_or(0);
        let mut child_lut = vec![u8::MAX; lut_len].into_boxed_slice();
        for (i, c) in children.iter().enumerate() {
            child_lut[c.bank.index()] = i as u8;
        }
        self.child_lut = child_lut;
        self.children = children;
    }

    /// The position of `bank` in `children`/`child_cong`, if managed.
    #[inline]
    fn child_slot(&self, bank: BankId) -> Option<usize> {
        match self.child_lut.get(bank.index()) {
            Some(&slot) if slot != u8::MAX => Some(slot as usize),
            _ => None,
        }
    }

    /// Recomputes the per-child congestion estimates in place (called
    /// by the network each cycle on parent routers; writes into the
    /// persistent `child_cong` instead of allocating a fresh vector).
    pub fn refresh_child_cong_with(&mut self, mut estimate: impl FnMut(&ChildInfo) -> Cycle) {
        for i in 0..self.children.len() {
            self.child_cong[i] = estimate(&self.children[i]);
        }
    }

    /// `true` if this router is the parent of `bank`.
    pub fn manages(&self, bank: BankId) -> bool {
        self.child_slot(bank).is_some()
    }

    /// Total buffered flits (for RCA occupancy and fast idle skip).
    pub fn buffered_flits(&self, ws: &NocWorkspace) -> usize {
        ws.buffered(self.idx)
    }

    /// Buffer occupancy as a 0..=255 fraction of capacity.
    pub fn occupancy_byte(&self, ws: &NocWorkspace) -> u8 {
        ws.occupancy_byte(self.idx)
    }

    /// Read access to an input VC (tests and instrumentation).
    pub fn input_vc<'w>(&self, ws: &'w NocWorkspace, port: usize, vc: usize) -> VcRef<'w> {
        ws.vc(self.idx, port, vc)
    }

    /// Remaining credits for an output VC.
    pub fn credits(&self, ws: &NocWorkspace, dir: Direction, vc: usize) -> u8 {
        ws.port(self.idx, dir.port()).credits(vc)
    }

    /// VCs per port.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Buffer depth per VC in flits.
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// `true` if the output port in `dir` has an unowned VC with
    /// credits available inside `range` — i.e. VC allocation towards
    /// `dir` could succeed right now for a packet of that class
    /// (audit instrumentation).
    pub fn has_free_credited_vc(
        &self,
        ws: &NocWorkspace,
        dir: Direction,
        range: std::ops::Range<usize>,
    ) -> bool {
        ws.port(self.idx, dir.port()).has_free_credited_vc(range)
    }

    /// Accepts a flit into an input VC (link arrival or NI injection).
    pub fn accept(&mut self, ws: &mut NocWorkspace, port: usize, vc: usize, flit: Flit) {
        let lane = ws.lane(self.idx, port, vc);
        let was_empty = ws.push_back(self.idx, lane, flit);
        if was_empty && flit.head {
            self.va_mask |= 1 << (port * self.vcs + vc);
        }
        self.stats.buffer_writes += 1;
    }

    /// Clears the statistics (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = RouterStats::default();
    }

    /// Returns `credits` slots to an output VC.
    pub fn return_credit(&self, ws: &mut NocWorkspace, dir: Direction, vc: usize, credits: u8) {
        ws.refund_credits(ws.lane(self.idx, dir.port(), vc), credits);
    }

    #[cfg(test)]
    fn drain_credits(&self, ws: &mut NocWorkspace, dir: Direction, vc: usize) -> u8 {
        ws.drain_credits_lane(ws.lane(self.idx, dir.port(), vc))
    }

    /// The congestion-adjusted arrival estimate for a request sent now
    /// towards child `bank`, or `None` if this router does not manage
    /// `bank`.
    pub fn arrival_estimate(&self, bank: BankId) -> Option<Cycle> {
        let idx = self.child_slot(bank)?;
        Some(self.children[idx].base_latency + self.child_cong[idx])
    }

    /// Virtual-channel allocation: for every input VC whose head flit
    /// is ready and has no output yet, compute the route and try to
    /// claim a free output VC in the packet's class partition.
    ///
    /// Bank-aware policy: if this router is the destination bank's
    /// parent and the bank is predicted busy at the packet's estimated
    /// arrival, VA is withheld until the computed release cycle — the
    /// packet waits in its (already buffered) VC.
    pub fn step_va(&mut self, ws: &mut NocWorkspace, view: &impl NetView, p: StepParams) {
        let base = ws.router_base(self.idx);
        let mut mask = self.va_mask;
        while mask != 0 {
            let flat = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let lane = base + flat;
            if ws.vc_len(lane) == 0 {
                self.va_mask &= !(1 << flat);
                continue;
            }
            debug_assert!(ws.front_is_head(lane) && ws.route_parts(lane).is_none());
            if ws.front_ready_at(lane) > p.now {
                continue;
            }
            let pid = ws.front_packet(lane);
            let packet = view.packet(pid);

            // Bank-aware hold decision, re-evaluated every cycle
            // against the live busy horizon: once an earlier
            // request is forwarded and extends the horizon, the
            // next held packet keeps waiting, so a parent spaces
            // back-to-back requests by the bank service time.
            if p.policy.is_bank_aware() {
                if let Some(bank) = view.dest_bank(packet) {
                    if let Some(arrival) = self.arrival_estimate(bank) {
                        let held_since = ws.held_anchor(lane);
                        let over_limit = held_since
                            .map(|s| p.now.saturating_sub(s) >= p.max_hold)
                            .unwrap_or(false);
                        // A held head must not block bystanders —
                        // but packets behind it headed to the SAME
                        // busy bank are not bystanders (they would
                        // only queue at the bank). Release when a
                        // foreign-destination packet is stuck
                        // behind, or when this input port has no
                        // spare request VC left (a blockade would
                        // stall the whole port).
                        let blocking = (0..ws.vc_len(lane)).any(|k| {
                            let f = ws.flit_at(lane, k);
                            f.head
                                && f.packet != pid
                                && view.dest_bank(view.packet(f.packet)) != Some(bank)
                        });
                        if !over_limit
                            && !blocking
                            && self
                                .busy
                                .would_queue_with_slack(bank, p.now, arrival, p.hold_slack)
                        {
                            if held_since.is_none() {
                                ws.set_held(lane, p.now);
                                self.stats.held_packets += 1;
                            }
                            ws.set_policy_held(lane, true);
                            continue;
                        }
                    }
                }
            }
            // Reaching here means the policy is not withholding VA
            // this cycle; any remaining wait is backpressure. The
            // hold anchor stays so a later re-hold keeps counting
            // against the same `max_hold` budget.
            ws.set_policy_held(lane, false);

            let dir = view.route(self.coord, packet);
            let class = packet.kind.class();
            let range = class.vc_range(self.vcs);
            let dp = dir.port();
            let obase = base + dp * self.vcs;
            // Unowned output VCs of the class with full credits, and
            // with any credit.
            let (mut full, mut credited) = (0u64, 0u64);
            for v in range {
                if ws.owner_is_none(obase + v) {
                    let c = ws.credit(obase + v);
                    full |= u64::from(c == self.depth) << v;
                    credited |= u64::from(c > 0) << v;
                }
            }
            // Prefer an output VC whose downstream buffer is empty
            // (full credits): packets then spread across VCs
            // instead of stacking behind a possibly-held head.
            let rr = self.va_rr[dp] as usize;
            let pick = rr_pick(full, rr).or_else(|| rr_pick(credited, rr));
            if let Some(out_vc) = pick {
                let (port, vc) = (flat / self.vcs, flat % self.vcs);
                self.va_rr[dp] = out_vc as u8;
                ws.set_owner(obase + out_vc, port as u8, vc as u8);
                let held = ws.take_held(lane);
                if let Some(since) = held {
                    self.stats.held_cycles += p.now - since;
                }
                if let Some(tap) = &mut self.tap {
                    tap.va_grants.push((pid, dir, out_vc as u8));
                    if let Some(since) = held {
                        tap.hold_delays.push(p.now - since);
                    }
                }
                ws.set_route(lane, dp, out_vc);
                self.va_mask &= !(1 << flat);
                self.sa_mask[dp] |= 1 << flat;
                self.sa_ports |= 1 << dp;
            }
        }
    }

    /// `true` when the input VC at `base + flat`, routed to output port
    /// `op`, may compete for it this cycle: presenting a pipeline-ready
    /// front flit, with a downstream credit available.
    #[inline]
    fn sa_candidate(
        &self,
        ws: &NocWorkspace,
        base: usize,
        flat: usize,
        op: usize,
        now: Cycle,
    ) -> bool {
        let lane = base + flat;
        if ws.vc_len(lane) == 0 || ws.front_ready_at(lane) > now {
            return false;
        }
        let Some((dp, out_vc)) = ws.route_parts(lane) else {
            return false;
        };
        debug_assert_eq!(dp, op, "sa_mask[{op}] holds a VC routed to {dp}");
        ws.credit(base + op * self.vcs + out_vc) > 0
    }

    /// Switch allocation: one grant per output port, at most one grant
    /// per input port, prioritized when the bank-aware policy is on.
    ///
    /// Appends each grant to `moves` as `(router index, move)`, in
    /// output-port order; flits are already popped and credits
    /// decremented.
    pub fn step_sa(
        &mut self,
        ws: &mut NocWorkspace,
        view: &impl NetView,
        p: StepParams,
        moves: &mut Vec<(usize, SwitchMove)>,
    ) {
        let base = ws.router_base(self.idx);
        // The flat (port, vc) bits of input ports already granted.
        let port_bits = (1u64 << self.vcs) - 1;
        let mut used_inputs = 0u64;
        // `Direction::ALL` is port-index order, so ascending bits visit
        // the output ports in the same order.
        let mut ports = self.sa_ports & !p.blocked; // faulted ports wait
        while ports != 0 {
            let op = ports.trailing_zeros() as usize;
            ports &= ports - 1;
            let rr = self.sa_rr[op] as usize;
            // Rotating priority over the candidate bits: bits above
            // the last winner first, then the wrap-around.
            let mut bits = self.sa_mask[op] & !used_inputs;
            let mut winner = None;
            let mut best_rank = 0u8;
            let mut fallback = None;
            while let Some(i) = rr_pick(bits, rr) {
                bits &= !(1 << i);
                if !self.sa_candidate(ws, base, i, op, p.now) {
                    continue;
                }
                if !p.policy.is_bank_aware() {
                    winner = Some(i);
                    break;
                }
                let rank = self.sa_priority(ws, base + i, view, p.now);
                if rank == 2 {
                    winner = Some(i);
                    break;
                }
                if fallback.is_none() || rank > best_rank {
                    fallback = Some(i);
                    best_rank = rank;
                }
            }
            let Some(winner) = winner.or(fallback) else {
                continue;
            };
            self.sa_rr[op] = winner as u8;
            let (port, vc) = (winner / self.vcs, winner % self.vcs);
            used_inputs |= port_bits << (port * self.vcs);
            self.grant(ws, port, vc, p, moves);
        }
    }

    /// Three-level SA priority (the re-ordering of Figure 2(c)):
    /// 2 — idle-bank requests, coherence, memory-controller traffic
    /// and responses; 1 — reads to predicted-busy banks (Section 4.2:
    /// "read packets ... are prioritized over write packets" when the
    /// destination bank is busy); 0 — writes to predicted-busy banks.
    fn sa_priority(&self, ws: &NocWorkspace, lane: usize, view: &impl NetView, now: Cycle) -> u8 {
        if ws.vc_len(lane) == 0 {
            return 2;
        }
        let packet = view.packet(ws.front_packet(lane));
        if let Some(bank) = view.dest_bank(packet) {
            if let Some(arrival) = self.arrival_estimate(bank) {
                if self.busy.would_queue(bank, now, arrival) {
                    return if packet.kind.is_bank_write() { 0 } else { 1 };
                }
            }
        }
        2
    }

    /// Pops the granted flit(s), consuming credits and releasing the
    /// output VC on the tail flit, and appends the move to `moves`.
    fn grant(
        &mut self,
        ws: &mut NocWorkspace,
        port: usize,
        vc: usize,
        p: StepParams,
        moves: &mut Vec<(usize, SwitchMove)>,
    ) {
        let base = ws.router_base(self.idx);
        let lane = base + port * self.vcs + vc;
        let (dp, out_vc) = ws.route_parts(lane).expect("granted VC has a route");
        let out_dir = Direction::ALL[dp];
        let olane = base + dp * self.vcs + out_vc;
        // A wide (256b) region TSB carries up to `1 + tsb_extra` flits
        // of the same packet per cycle (XShare-style combining).
        let burst = if out_dir == Direction::Down && p.wide_down {
            1 + p.tsb_extra
        } else {
            1
        };
        debug_assert!(burst <= MAX_BURST);
        // SA candidacy guarantees a ready front flit with credit.
        debug_assert!(ws.vc_len(lane) > 0 && ws.front_ready_at(lane) <= p.now);
        let first = ws.pop_front(self.idx, lane);
        ws.spend_credit(olane);
        let mut flits = FlitBurst::one(first);
        let mut tail_sent = first.tail;
        for _ in 1..burst {
            if tail_sent
                || ws.credit(olane) == 0
                || ws.vc_len(lane) == 0
                || ws.front_ready_at(lane) > p.now
            {
                break;
            }
            let flit = ws.pop_front(self.idx, lane);
            ws.spend_credit(olane);
            tail_sent = flit.tail;
            flits.push(flit);
        }
        self.stats.switch_traversals += flits.len() as u64;
        if tail_sent {
            ws.clear_owner(olane);
            let flat = port * self.vcs + vc;
            self.sa_mask[dp] &= !(1 << flat);
            if self.sa_mask[dp] == 0 {
                self.sa_ports &= !(1 << dp);
            }
            ws.clear_route(lane);
            ws.take_held(lane);
            ws.set_policy_held(lane, false);
            if ws.vc_len(lane) > 0 && ws.front_is_head(lane) {
                self.va_mask |= 1 << flat;
            }
        }
        moves.push((
            self.idx,
            SwitchMove {
                in_port: port,
                in_vc: vc,
                out_dir,
                out_vc,
                flits,
            },
        ));
    }

    /// The cached SA port mask and the one the `sa_mask` words imply;
    /// equal at every cycle boundary (audit instrumentation).
    pub(crate) fn sa_port_masks(&self) -> (u8, u8) {
        let derived = (0..PORTS)
            .filter(|&op| self.sa_mask[op] != 0)
            .fold(0u8, |m, op| m | 1 << op);
        (self.sa_ports, derived)
    }

    /// Overwrites the cached SA port mask (auditor tests only).
    #[cfg(test)]
    pub(crate) fn corrupt_sa_ports(&mut self, ports: u8) {
        self.sa_ports = ports;
    }

    /// Called by the network when this (parent) router forwards the
    /// head flit of a bank request towards child `bank`: updates the
    /// busy table and samples the child-bound queue depth on writes.
    ///
    /// `extra_serialization` accounts for the remaining flits of a
    /// multi-flit packet (the bank starts service on the tail flit).
    #[allow(clippy::too_many_arguments)]
    pub fn note_forward(
        &mut self,
        ws: &NocWorkspace,
        bank: BankId,
        is_write: bool,
        service: Cycle,
        extra_serialization: Cycle,
        now: Cycle,
        view: &impl NetView,
    ) {
        // The busy horizon uses the uncontended arrival: congestion
        // estimates time the *release* of held packets but should not
        // inflate the bank's predicted service chain.
        let Some(idx) = self.child_slot(bank) else {
            return;
        };
        let base = self.children[idx].base_latency;
        self.busy
            .on_forward(bank, now, base + extra_serialization, service);
        self.stats.forwarded_to_children += 1;
        if is_write {
            self.stats.writes_to_children += 1;
            // Figure 3 inset / Figure 13a: buffered request packets in
            // this router whose destination lies exactly H hops away,
            // sampled when a write is forwarded.
            let lane_base = ws.router_base(self.idx);
            let mut queued = [0u64; 3];
            for flat in 0..PORTS * self.vcs {
                let lane = lane_base + flat;
                if ws.vc_len(lane) > 0 && ws.front_is_head(lane) {
                    let pkt = view.packet(ws.front_packet(lane));
                    if pkt.kind.is_bank_request() {
                        let d = self.coord.manhattan(pkt.dst)
                            + u32::from(self.coord.layer != pkt.dst.layer);
                        if (1..=3).contains(&d) {
                            queued[(d - 1) as usize] += 1;
                        }
                    }
                }
            }
            for (s, q) in self.stats.queue_by_hops.iter_mut().zip(queued) {
                *s += q;
            }
            self.stats.child_queue_samples += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use snoc_common::config::Estimator;
    use snoc_common::geom::Layer;

    /// A test network view with a fixed per-packet route table.
    struct TestView {
        packets: Vec<Packet>,
        routes: Vec<Direction>,
        banks: Vec<Option<BankId>>,
    }

    impl TestView {
        fn new(specs: Vec<(PacketKind, Direction, Option<BankId>)>) -> Self {
            let src = Coord::new(0, 0, Layer::Core);
            let dst = Coord::new(3, 1, Layer::Cache);
            let mut packets = Vec::new();
            let mut routes = Vec::new();
            let mut banks = Vec::new();
            for (i, (kind, dir, bank)) in specs.into_iter().enumerate() {
                let mut p = Packet::new(kind, src, dst, 0, 0);
                p.id = PacketId::new(i as u16);
                packets.push(p);
                routes.push(dir);
                banks.push(bank);
            }
            Self {
                packets,
                routes,
                banks,
            }
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

    fn params(now: Cycle, policy: ArbitrationPolicy) -> StepParams {
        StepParams {
            now,
            policy,
            max_hold: 100,
            hold_slack: 0,
            wide_down: false,
            tsb_extra: 0,
            blocked: 0,
        }
    }

    /// One switch-allocation pass through the router's single entry
    /// point; the moves it granted.
    fn sa(
        r: &mut Router,
        ws: &mut NocWorkspace,
        view: &TestView,
        p: StepParams,
    ) -> Vec<SwitchMove> {
        let mut moves = Vec::new();
        r.step_sa(ws, view, p, &mut moves);
        assert!(moves.iter().all(|&(idx, _)| idx == r.idx()));
        moves.into_iter().map(|(_, m)| m).collect()
    }

    const AWARE: ArbitrationPolicy = ArbitrationPolicy::BankAware {
        estimator: Estimator::Simple,
    };

    fn mk_router(children: Vec<ChildInfo>) -> (NocWorkspace, Router) {
        (
            NocWorkspace::new(1, 6, 5),
            Router::new(0, Coord::new(3, 3, Layer::Cache), 6, 5, children),
        )
    }

    fn parent_children() -> Vec<ChildInfo> {
        vec![ChildInfo {
            bank: BankId::new(11),
            base_latency: 9,
            first_hop: Direction::South,
            hops: 2,
        }]
    }

    fn put_single(r: &mut Router, ws: &mut NocWorkspace, port: usize, vc: usize, pid: usize) {
        r.accept(
            ws,
            port,
            vc,
            Flit {
                packet: PacketId::new(pid as u16),
                seq: 0,
                head: true,
                tail: true,
                ready_at: 0,
            },
        );
    }

    #[test]
    fn va_then_sa_moves_a_flit() {
        let view = TestView::new(vec![(PacketKind::BankRead, Direction::South, None)]);
        let (mut ws, mut r) = mk_router(vec![]);
        put_single(&mut r, &mut ws, 0, 0, 0);
        let p = params(10, ArbitrationPolicy::RoundRobin);
        r.step_va(&mut ws, &view, p);
        assert!(r.input_vc(&ws, 0, 0).route().is_some());
        let moves = sa(&mut r, &mut ws, &view, p);
        assert_eq!(moves.len(), 1);
        let mv = moves[0];
        assert_eq!(mv.out_dir, Direction::South);
        assert_eq!(r.buffered_flits(&ws), 0);
        assert_eq!(r.credits(&ws, Direction::South, mv.out_vc), 4);
        assert_eq!(r.stats.switch_traversals, 1);
        assert_eq!(r.stats.buffer_writes, 1);
    }

    #[test]
    fn pipeline_delay_gates_allocation() {
        let view = TestView::new(vec![(PacketKind::BankRead, Direction::South, None)]);
        let (mut ws, mut r) = mk_router(vec![]);
        r.accept(
            &mut ws,
            0,
            0,
            Flit {
                packet: PacketId::new(0),
                seq: 0,
                head: true,
                tail: true,
                ready_at: 12,
            },
        );
        r.step_va(&mut ws, &view, params(10, ArbitrationPolicy::RoundRobin));
        assert!(
            r.input_vc(&ws, 0, 0).route().is_none(),
            "not ready until cycle 12"
        );
        assert!(!r.input_vc(&ws, 0, 0).valid(10), "pipeline gates validity");
        r.step_va(&mut ws, &view, params(12, ArbitrationPolicy::RoundRobin));
        assert!(r.input_vc(&ws, 0, 0).route().is_some());
    }

    #[test]
    fn requests_and_responses_use_disjoint_vcs() {
        use crate::packet::TrafficClass;
        let view = TestView::new(vec![
            (PacketKind::BankRead, Direction::South, None),
            (PacketKind::DataReply, Direction::South, None),
        ]);
        let (mut ws, mut r) = mk_router(vec![]);
        put_single(&mut r, &mut ws, 0, 0, 0);
        put_single(&mut r, &mut ws, 1, 4, 1);
        r.step_va(&mut ws, &view, params(10, ArbitrationPolicy::RoundRobin));
        let req_vc = r.input_vc(&ws, 0, 0).route().unwrap().vc;
        let rsp_vc = r.input_vc(&ws, 1, 4).route().unwrap().vc;
        assert!(TrafficClass::Request.vc_range(6).contains(&req_vc));
        assert!(TrafficClass::Response.vc_range(6).contains(&rsp_vc));
    }

    #[test]
    fn no_grant_without_credits() {
        let view = TestView::new(vec![(PacketKind::BankRead, Direction::South, None)]);
        let (mut ws, mut r) = mk_router(vec![]);
        put_single(&mut r, &mut ws, 0, 0, 0);
        let p = params(10, ArbitrationPolicy::RoundRobin);
        r.step_va(&mut ws, &view, p);
        let vc = r.input_vc(&ws, 0, 0).route().unwrap().vc;
        let had = r.drain_credits(&mut ws, Direction::South, vc);
        assert!(sa(&mut r, &mut ws, &view, p).is_empty());
        r.return_credit(&mut ws, Direction::South, vc, had);
        assert_eq!(sa(&mut r, &mut ws, &view, p).len(), 1);
    }

    #[test]
    fn bank_aware_holds_request_to_busy_child() {
        let view = TestView::new(vec![(
            PacketKind::BankRead,
            Direction::South,
            Some(BankId::new(11)),
        )]);
        let (mut ws, mut r) = mk_router(parent_children());
        r.busy.on_forward(BankId::new(11), 0, 9, 33); // busy until 42
        put_single(&mut r, &mut ws, 0, 0, 0);
        r.step_va(&mut ws, &view, params(5, AWARE));
        assert!(
            r.input_vc(&ws, 0, 0).route().is_none(),
            "held packet gets no VC"
        );
        assert!(r.input_vc(&ws, 0, 0).is_held());
        assert_eq!(r.stats.held_packets, 1);
        // Release at busy_until - arrival = 42 - 9 = 33.
        r.step_va(&mut ws, &view, params(33, AWARE));
        assert!(r.input_vc(&ws, 0, 0).route().is_some());
        assert_eq!(r.stats.held_cycles, 33 - 5);
    }

    #[test]
    fn round_robin_does_not_hold() {
        let view = TestView::new(vec![(
            PacketKind::BankRead,
            Direction::South,
            Some(BankId::new(11)),
        )]);
        let (mut ws, mut r) = mk_router(parent_children());
        r.busy.on_forward(BankId::new(11), 0, 9, 33);
        put_single(&mut r, &mut ws, 0, 0, 0);
        r.step_va(&mut ws, &view, params(5, ArbitrationPolicy::RoundRobin));
        assert!(
            r.input_vc(&ws, 0, 0).route().is_some(),
            "RR is STT-RAM oblivious"
        );
        assert_eq!(r.stats.held_packets, 0);
    }

    #[test]
    fn congestion_estimate_extends_the_hold_decision() {
        let view = TestView::new(vec![(
            PacketKind::BankRead,
            Direction::South,
            Some(BankId::new(11)),
        )]);
        let (mut ws, mut r) = mk_router(parent_children());
        r.busy.on_forward(BankId::new(11), 0, 9, 33); // busy until 42
        r.child_cong[0] = 20; // heavy congestion: arrival estimate 29
        put_single(&mut r, &mut ws, 0, 0, 0);
        // At cycle 20 an uncongested request (arrival 9) would still
        // queue (20+9 < 42), but with congestion 20 it would not
        // (20+29 >= 42): no hold.
        r.step_va(&mut ws, &view, params(20, AWARE));
        assert!(r.input_vc(&ws, 0, 0).route().is_some());
        assert_eq!(r.stats.held_packets, 0);
    }

    #[test]
    fn sa_prefers_idle_traffic_over_busy_bank_requests() {
        // A request to a busy child (port 0) and a response (port 1)
        // contest the same output: the response must win under
        // bank-aware arbitration even though port 0 is first in RR
        // order.
        let view = TestView::new(vec![
            (
                PacketKind::BankRead,
                Direction::South,
                Some(BankId::new(11)),
            ),
            (PacketKind::DataReply, Direction::South, None),
        ]);
        let (mut ws, mut r) = mk_router(parent_children());
        put_single(&mut r, &mut ws, 0, 0, 0);
        put_single(&mut r, &mut ws, 1, 4, 1);
        r.step_va(&mut ws, &view, params(5, AWARE));
        // The child becomes busy after VA (prediction arrived late).
        r.busy.on_forward(BankId::new(11), 5, 9, 33);
        let moves = sa(&mut r, &mut ws, &view, params(6, AWARE));
        assert_eq!(moves.len(), 1, "one output port contested");
        assert_eq!(moves[0].flits[0].packet, PacketId::new(1), "response wins");
    }

    #[test]
    fn max_hold_caps_the_delay() {
        let view = TestView::new(vec![(
            PacketKind::BankRead,
            Direction::South,
            Some(BankId::new(11)),
        )]);
        let (mut ws, mut r) = mk_router(parent_children());
        r.busy.on_forward(BankId::new(11), 0, 9, 1000);
        put_single(&mut r, &mut ws, 0, 0, 0);
        r.step_va(&mut ws, &view, params(5, AWARE));
        assert!(r.input_vc(&ws, 0, 0).route().is_none());
        r.step_va(&mut ws, &view, params(106, AWARE));
        assert!(
            r.input_vc(&ws, 0, 0).route().is_some(),
            "hold is capped at max_hold"
        );
    }

    #[test]
    fn hold_of_exactly_max_hold_cycles_is_force_released() {
        // Satellite regression for the audit watchdog: the livelock
        // guard fires at age == max_hold, not a cycle later.
        let view = TestView::new(vec![(
            PacketKind::BankRead,
            Direction::South,
            Some(BankId::new(11)),
        )]);
        let (mut ws, mut r) = mk_router(parent_children());
        r.busy.on_forward(BankId::new(11), 0, 9, 1000); // busy until 1009
        put_single(&mut r, &mut ws, 0, 0, 0);
        r.step_va(&mut ws, &view, params(5, AWARE)); // held from cycle 5
        assert!(r.input_vc(&ws, 0, 0).is_held());
        r.step_va(&mut ws, &view, params(104, AWARE)); // age 99 < max_hold 100
        assert!(
            r.input_vc(&ws, 0, 0).route().is_none(),
            "one cycle short of the cap stays held"
        );
        r.step_va(&mut ws, &view, params(105, AWARE)); // age exactly 100
        assert!(
            r.input_vc(&ws, 0, 0).route().is_some(),
            "exactly max_hold cycles forces the release"
        );
        assert_eq!(r.stats.held_cycles, 100);
        assert!(r.input_vc(&ws, 0, 0).held_since().is_none());
    }

    #[test]
    fn note_forward_updates_busy_and_samples_queue() {
        let view = TestView::new(vec![(
            PacketKind::BankRead,
            Direction::South,
            Some(BankId::new(11)),
        )]);
        let (mut ws, mut r) = mk_router(parent_children());
        put_single(&mut r, &mut ws, 0, 0, 0); // a queued request to the child
        r.note_forward(&ws, BankId::new(11), true, 33, 8, 100, &view);
        assert_eq!(r.busy.busy_until(BankId::new(11)), 100 + 9 + 8 + 33);
        assert_eq!(r.stats.child_queue_samples, 1);
        // The queued request's destination (3,1) is 2 hops from this
        // router at (3,3).
        assert_eq!(r.stats.queue_by_hops, [0, 1, 0]);
        assert_eq!(r.stats.writes_to_children, 1);
        assert_eq!(r.stats.forwarded_to_children, 1);
    }

    #[test]
    fn wide_tsb_moves_two_flits_per_grant() {
        let view = TestView::new(vec![(PacketKind::Writeback, Direction::Down, None)]);
        let (mut ws, mut r) = mk_router(vec![]);
        for flit in Flit::sequence(PacketId::new(0), 3) {
            r.accept(&mut ws, Direction::Local.port(), 0, flit);
        }
        let mut p = params(10, ArbitrationPolicy::RoundRobin);
        p.wide_down = true;
        p.tsb_extra = 1;
        r.step_va(&mut ws, &view, p);
        let moves = sa(&mut r, &mut ws, &view, p);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].flits.len(), 2, "256b TSB carries two 128b flits");
        let moves = sa(&mut r, &mut ws, &view, p);
        assert_eq!(moves[0].flits.len(), 1, "tail flit alone");
        assert!(moves[0].flits[0].tail);
    }

    #[test]
    fn narrow_ports_move_one_flit_even_with_tsb_extra() {
        let view = TestView::new(vec![(PacketKind::Writeback, Direction::South, None)]);
        let (mut ws, mut r) = mk_router(vec![]);
        for flit in Flit::sequence(PacketId::new(0), 3) {
            r.accept(&mut ws, 0, 0, flit);
        }
        let mut p = params(10, ArbitrationPolicy::RoundRobin);
        p.wide_down = true; // wide TSB applies to Down only
        p.tsb_extra = 1;
        r.step_va(&mut ws, &view, p);
        let moves = sa(&mut r, &mut ws, &view, p);
        assert_eq!(moves[0].flits.len(), 1);
    }

    #[test]
    fn one_grant_per_input_port_per_cycle() {
        let view = TestView::new(vec![
            (PacketKind::BankRead, Direction::South, None),
            (PacketKind::BankRead, Direction::North, None),
        ]);
        let (mut ws, mut r) = mk_router(vec![]);
        put_single(&mut r, &mut ws, 0, 0, 0);
        put_single(&mut r, &mut ws, 0, 1, 1);
        let p = params(10, ArbitrationPolicy::RoundRobin);
        r.step_va(&mut ws, &view, p);
        let moves = sa(&mut r, &mut ws, &view, p);
        assert_eq!(moves.len(), 1, "crossbar admits one flit per input port");
        let moves = sa(&mut r, &mut ws, &view, p);
        assert_eq!(moves.len(), 1, "the other VC wins next cycle");
    }

    #[test]
    fn tail_flit_releases_the_output_vc() {
        let view = TestView::new(vec![
            (PacketKind::BankRead, Direction::South, None),
            (PacketKind::BankRead, Direction::South, None),
        ]);
        let (mut ws, mut r) = mk_router(vec![]);
        put_single(&mut r, &mut ws, 0, 0, 0);
        let p = params(10, ArbitrationPolicy::RoundRobin);
        r.step_va(&mut ws, &view, p);
        let out_vc = r.input_vc(&ws, 0, 0).route().unwrap().vc;
        assert!(ws.port(0, Direction::South.port()).owner(out_vc).is_some());
        sa(&mut r, &mut ws, &view, p);
        assert!(ws.port(0, Direction::South.port()).owner(out_vc).is_none());
        assert!(r.input_vc(&ws, 0, 0).route().is_none());
    }

    #[test]
    fn reads_beat_writes_to_the_same_busy_bank() {
        // Three-level SA priority: among requests to a busy child, a
        // read (rank 1) wins over a write (rank 0).
        let view = TestView::new(vec![
            (
                PacketKind::Writeback,
                Direction::South,
                Some(BankId::new(11)),
            ),
            (
                PacketKind::BankRead,
                Direction::South,
                Some(BankId::new(11)),
            ),
        ]);
        let (mut ws, mut r) = mk_router(parent_children());
        put_single(&mut r, &mut ws, 0, 0, 0); // write, first in RR order
        put_single(&mut r, &mut ws, 1, 1, 1); // read
        r.step_va(&mut ws, &view, params(5, AWARE));
        r.busy.on_forward(BankId::new(11), 5, 9, 33);
        let moves = sa(&mut r, &mut ws, &view, params(6, AWARE));
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].flits[0].packet, PacketId::new(1), "read wins");
    }

    #[test]
    fn va_spreads_packets_across_empty_vcs() {
        // Two request packets on different input ports must claim
        // different output VCs (prefer-empty rule), not stack into one.
        let view = TestView::new(vec![
            (PacketKind::BankRead, Direction::South, None),
            (PacketKind::BankRead, Direction::South, None),
        ]);
        let (mut ws, mut r) = mk_router(vec![]);
        put_single(&mut r, &mut ws, 0, 0, 0);
        put_single(&mut r, &mut ws, 1, 0, 1);
        r.step_va(&mut ws, &view, params(10, ArbitrationPolicy::RoundRobin));
        let a = r.input_vc(&ws, 0, 0).route().unwrap().vc;
        let b = r.input_vc(&ws, 1, 0).route().unwrap().vc;
        assert_ne!(a, b, "both got fresh downstream VCs");
    }

    #[test]
    fn hold_releases_when_a_foreign_packet_stacks_behind() {
        let view = TestView::new(vec![
            (
                PacketKind::BankRead,
                Direction::South,
                Some(BankId::new(11)),
            ),
            (PacketKind::BankRead, Direction::North, None), // foreign
        ]);
        let (mut ws, mut r) = mk_router(parent_children());
        r.busy.on_forward(BankId::new(11), 0, 9, 1000);
        put_single(&mut r, &mut ws, 0, 0, 0);
        r.step_va(&mut ws, &view, params(5, AWARE));
        assert!(r.input_vc(&ws, 0, 0).route().is_none(), "held");
        // A foreign-destination packet lands behind it in the same VC.
        put_single(&mut r, &mut ws, 0, 0, 1);
        r.step_va(&mut ws, &view, params(6, AWARE));
        assert!(
            r.input_vc(&ws, 0, 0).route().is_some(),
            "hold released for the bystander"
        );
    }

    #[test]
    fn hold_persists_when_a_same_bank_packet_stacks_behind() {
        let view = TestView::new(vec![
            (
                PacketKind::BankRead,
                Direction::South,
                Some(BankId::new(11)),
            ),
            (
                PacketKind::BankRead,
                Direction::South,
                Some(BankId::new(11)),
            ),
        ]);
        let (mut ws, mut r) = mk_router(parent_children());
        r.busy.on_forward(BankId::new(11), 0, 9, 1000);
        put_single(&mut r, &mut ws, 0, 0, 0);
        put_single(&mut r, &mut ws, 0, 0, 1); // same busy bank: not a bystander
        r.step_va(&mut ws, &view, params(5, AWARE));
        assert!(r.input_vc(&ws, 0, 0).route().is_none(), "hold persists");
        assert!(r.input_vc(&ws, 0, 0).is_held());
    }

    #[test]
    fn blocked_output_port_stalls_then_recovers() {
        // A faulted link blocks SA on its output port: the flit keeps
        // its VC, route and the output credit pool intact, and departs
        // normally the cycle the fault clears.
        let view = TestView::new(vec![(PacketKind::BankRead, Direction::South, None)]);
        let (mut ws, mut r) = mk_router(vec![]);
        put_single(&mut r, &mut ws, 0, 0, 0);
        let mut p = params(10, ArbitrationPolicy::RoundRobin);
        r.step_va(&mut ws, &view, p);
        assert!(r.input_vc(&ws, 0, 0).route().is_some(), "VA is unaffected");
        p.blocked = 1 << Direction::South.port();
        assert!(
            sa(&mut r, &mut ws, &view, p).is_empty(),
            "blocked port grants nothing"
        );
        assert_eq!(r.buffered_flits(&ws), 1);
        assert_eq!(r.credits(&ws, Direction::South, 0), 5, "no credit consumed");
        p.blocked = 0;
        let moves = sa(&mut r, &mut ws, &view, p);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].out_dir, Direction::South);
    }

    #[test]
    fn blocked_port_does_not_stall_other_ports() {
        let view = TestView::new(vec![
            (PacketKind::BankRead, Direction::South, None),
            (PacketKind::BankRead, Direction::North, None),
        ]);
        let (mut ws, mut r) = mk_router(vec![]);
        put_single(&mut r, &mut ws, 0, 0, 0);
        put_single(&mut r, &mut ws, 1, 0, 1);
        let mut p = params(10, ArbitrationPolicy::RoundRobin);
        r.step_va(&mut ws, &view, p);
        p.blocked = 1 << Direction::South.port();
        let moves = sa(&mut r, &mut ws, &view, p);
        assert_eq!(moves.len(), 1, "the healthy port still grants");
        assert_eq!(moves[0].out_dir, Direction::North);
    }

    #[test]
    fn set_children_rebuilds_the_parent_tables() {
        let (_ws, mut r) = mk_router(parent_children());
        r.busy.on_forward(BankId::new(11), 0, 9, 33);
        assert!(r.manages(BankId::new(11)));
        let adopted = vec![
            ChildInfo {
                bank: BankId::new(11),
                base_latency: 14,
                first_hop: Direction::West,
                hops: 4,
            },
            ChildInfo {
                bank: BankId::new(20),
                base_latency: 9,
                first_hop: Direction::South,
                hops: 2,
            },
        ];
        r.set_children(adopted);
        assert_eq!(r.children().len(), 2);
        assert!(r.manages(BankId::new(20)));
        assert_eq!(
            r.busy.busy_until(BankId::new(11)),
            0,
            "horizons restart under the new wiring"
        );
        assert_eq!(r.arrival_estimate(BankId::new(11)), Some(14));
        assert_eq!(r.arrival_estimate(BankId::new(20)), Some(9));
        // Orphaned banks are forgotten entirely.
        r.set_children(vec![]);
        assert!(!r.manages(BankId::new(11)));
        assert_eq!(r.arrival_estimate(BankId::new(20)), None);
    }

    #[test]
    fn occupancy_byte_scales() {
        let (mut ws, mut r) = mk_router(vec![]);
        assert_eq!(r.occupancy_byte(&ws), 0);
        for flit in Flit::sequence(PacketId::new(0), 5) {
            r.accept(&mut ws, 0, 0, flit);
        }
        // 5 of 7*6*5 = 210 slots.
        assert_eq!(r.occupancy_byte(&ws) as usize, 5 * 255 / 210);
    }
}
