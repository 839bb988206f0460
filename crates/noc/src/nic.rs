//! The network interface (NI) at every node.
//!
//! The NI fragments outbound packets into flits and injects them into
//! the local input port of its router (one flit per cycle, respecting
//! credits), and reassembles inbound flits from the ejection buffers
//! into packets delivered through a bounded outbox. A bounded outbox is
//! what lets a busy bank push back into the network — the paper's
//! "queued at the network interface" behaviour.
//!
//! The NI also implements the endpoint half of the window-based
//! congestion estimator: when a request carrying a timestamp is
//! delivered at a bank, the NI immediately sends a 1-flit
//! [`PacketKind::TagAck`] back to the tagging parent.

use crate::arena::Arena;
use crate::packet::{Flit, Packet, PacketKind, TrafficClass};
use crate::router::Router;
use crate::workspace::NocWorkspace;
use snoc_common::geom::{Coord, Direction};
use snoc_common::ids::PacketId;
use snoc_common::Cycle;
use std::collections::VecDeque;

/// The classes, in injection arbitration order.
const CLASSES: [TrafficClass; 3] = [
    TrafficClass::Request,
    TrafficClass::Coherence,
    TrafficClass::Response,
];

fn class_idx(c: TrafficClass) -> usize {
    match c {
        TrafficClass::Request => 0,
        TrafficClass::Coherence => 1,
        TrafficClass::Response => 2,
    }
}

/// A packet being fragmented into one local input VC.
#[derive(Debug, Clone)]
struct InjectBinding {
    packet: PacketId,
    next_seq: u16,
    total: u16,
}

/// An event produced while draining ejection buffers.
#[derive(Debug)]
pub enum DeliveryEvent {
    /// A window-based estimator ack reached the tagging parent; carries
    /// the original tag so the estimator can close the sample.
    TagAck(crate::packet::WbTag, Cycle),
}

/// The network interface of one node.
#[derive(Debug)]
pub struct Nic {
    coord: Coord,
    vcs: usize,
    data_flits: usize,
    inject_queues: [VecDeque<PacketId>; 3],
    bindings: Vec<Option<InjectBinding>>,
    credits: Vec<u8>,
    inject_rr: usize,
    /// Per-VC ejection buffers (credit-matched to the router's local
    /// output port).
    eject: Vec<VecDeque<Flit>>,
    /// Total flits across `eject` (O(1) idle check for the drain path).
    eject_buffered: usize,
    /// Packets waiting to inject: queued plus bound (O(1) backlog).
    backlog: usize,
    outbox: VecDeque<PacketId>,
    outbox_cap: usize,
    /// Delivered packet count.
    pub delivered: u64,
    /// Injected packet count.
    pub injected: u64,
}

impl Nic {
    /// Creates the NI for a node whose router has `vcs` VCs of `depth`
    /// flits. `outbox_cap` bounds assembled-but-unconsumed packets.
    pub fn new(
        coord: Coord,
        vcs: usize,
        depth: usize,
        data_flits: usize,
        outbox_cap: usize,
    ) -> Self {
        Self {
            coord,
            vcs,
            data_flits,
            inject_queues: Default::default(),
            bindings: vec![None; vcs],
            credits: vec![depth as u8; vcs],
            inject_rr: 0,
            eject: (0..vcs).map(|_| VecDeque::new()).collect(),
            eject_buffered: 0,
            backlog: 0,
            outbox: VecDeque::new(),
            outbox_cap,
            delivered: 0,
            injected: 0,
        }
    }

    /// This NI's position.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// Returns the NI to its just-constructed state (empty queues and
    /// bindings, full credits, zeroed counters and round-robin
    /// pointer) while keeping the queue allocations. `depth` is the
    /// VC buffer depth the NI was built with (it is not stored); a
    /// reset NI is observably identical to a fresh [`Nic::new`] with
    /// the same geometry.
    pub fn reset(&mut self, depth: usize) {
        for q in &mut self.inject_queues {
            q.clear();
        }
        self.bindings.fill(None);
        self.credits.fill(depth as u8);
        self.inject_rr = 0;
        for q in &mut self.eject {
            q.clear();
        }
        self.eject_buffered = 0;
        self.backlog = 0;
        self.outbox.clear();
        self.delivered = 0;
        self.injected = 0;
    }

    /// Queues a packet for injection.
    pub fn enqueue(&mut self, id: PacketId, class: TrafficClass) {
        self.inject_queues[class_idx(class)].push_back(id);
        self.backlog += 1;
    }

    /// Packets waiting in injection queues (all classes), queued or
    /// bound to an injection VC.
    pub fn inject_backlog(&self) -> usize {
        self.backlog
    }

    /// Returns `credits` slots for a local input VC (called when the
    /// router forwards injected flits).
    pub fn return_credit(&mut self, vc: usize, credits: u8) {
        self.credits[vc] += credits;
    }

    /// One injection cycle: bind waiting packets to free local input
    /// VCs of their class, then send one flit from a bound VC with
    /// credit, round-robin. Returns `true` if a flit entered the
    /// router (so the caller can wake it). A packet's `injected_at` is
    /// stamped when its head flit enters the router.
    pub fn inject_step(
        &mut self,
        router: &mut Router,
        ws: &mut NocWorkspace,
        arena: &mut Arena,
        now: Cycle,
        router_stages: u64,
    ) -> bool {
        // Bind queue heads to free VCs in their class partition.
        for (ci, class) in CLASSES.iter().enumerate() {
            while let Some(&head) = self.inject_queues[ci].front() {
                let range = class.vc_range(self.vcs);
                let free = range.clone().find(|&v| self.bindings[v].is_none());
                let Some(v) = free else { break };
                let total = arena.get(head).kind.flits(self.data_flits) as u16;
                self.bindings[v] = Some(InjectBinding {
                    packet: head,
                    next_seq: 0,
                    total,
                });
                self.inject_queues[ci].pop_front();
            }
        }

        // Send one flit (local port bandwidth: one flit per cycle).
        let start = self.inject_rr;
        for off in 1..=self.vcs {
            let v = (start + off) % self.vcs;
            let Some(binding) = self.bindings[v].as_mut() else {
                continue;
            };
            if self.credits[v] == 0 {
                continue;
            }
            let seq = binding.next_seq;
            let total = binding.total;
            let pid = binding.packet;
            if seq == 0 {
                arena.get_mut(pid).injected_at = now;
                self.injected += 1;
            }
            let flit = Flit {
                packet: pid,
                seq,
                head: seq == 0,
                tail: seq + 1 == total,
                ready_at: now + router_stages,
            };
            router.accept(ws, Direction::Local.port(), v, flit);
            self.credits[v] -= 1;
            binding.next_seq += 1;
            if binding.next_seq == total {
                self.bindings[v] = None;
                self.backlog -= 1;
            }
            self.inject_rr = v;
            return true;
        }
        false
    }

    /// Accepts an ejected flit from the router's local output port.
    pub fn accept_eject(&mut self, vc: usize, flit: Flit) {
        self.eject[vc].push_back(flit);
        self.eject_buffered += 1;
    }

    /// Flits buffered across all ejection VCs.
    pub fn eject_buffered(&self) -> usize {
        self.eject_buffered
    }

    /// Drains ejection buffers, assembling packets into the outbox.
    ///
    /// Appends to the caller-provided sinks instead of allocating:
    /// `credits` receives per-VC credits to return to the router's
    /// local output port, `events` receives estimator events. When the
    /// ejection buffers are empty this returns immediately without
    /// touching either sink. Assembled [`PacketKind::TagAck`]s are
    /// consumed here; tagged bank requests trigger an automatic ack
    /// injection.
    pub fn drain_eject(
        &mut self,
        arena: &mut Arena,
        now: Cycle,
        credits: &mut Vec<(usize, u8)>,
        events: &mut Vec<DeliveryEvent>,
    ) {
        if self.eject_buffered == 0 {
            return;
        }
        for v in 0..self.vcs {
            let mut returned = 0u8;
            while let Some(front) = self.eject[v].front() {
                if front.tail {
                    let pid = front.packet;
                    let kind = arena.get(pid).kind;
                    let internal = kind == PacketKind::TagAck;
                    if !internal {
                        // Endpoint half of the WB estimator: ack a
                        // tagged request the moment its tail flit
                        // reaches the interface, so the sample
                        // measures network transit, not the bank's
                        // service backlog behind a full outbox.
                        let p = arena.get_mut(pid);
                        if let (Some(tag), true) = (p.wb_tag.take(), p.kind.is_bank_request()) {
                            let mut ack =
                                Packet::new(PacketKind::TagAck, self.coord, tag.parent, 0, 0);
                            ack.wb_tag = Some(tag);
                            let ack_id = arena.insert(ack);
                            self.enqueue(ack_id, TrafficClass::Response);
                        }
                    }
                    if !internal && self.outbox.len() >= self.outbox_cap {
                        break; // back-pressure: leave the tail buffered
                    }
                    self.eject[v].pop_front();
                    self.eject_buffered -= 1;
                    returned += 1;
                    let p = arena.get_mut(pid);
                    p.ejected_at = now;
                    if internal {
                        let packet = arena.take(pid);
                        if let Some(tag) = packet.wb_tag {
                            events.push(DeliveryEvent::TagAck(tag, now));
                        }
                    } else {
                        self.outbox.push_back(pid);
                        self.delivered += 1;
                    }
                } else {
                    self.eject[v].pop_front();
                    self.eject_buffered -= 1;
                    returned += 1;
                }
            }
            if returned > 0 {
                credits.push((v, returned));
            }
        }
    }

    /// Takes all assembled packets out of the outbox.
    pub fn pop_delivered(&mut self, arena: &mut Arena) -> Vec<Packet> {
        self.outbox.drain(..).map(|id| arena.take(id)).collect()
    }

    /// Takes at most `max` assembled packets out of the outbox
    /// (endpoint-side admission control: what stays puts back-pressure
    /// on the network).
    pub fn pop_delivered_up_to(&mut self, arena: &mut Arena, max: usize) -> Vec<Packet> {
        let n = max.min(self.outbox.len());
        self.outbox.drain(..n).map(|id| arena.take(id)).collect()
    }

    /// Assembled packets waiting in the outbox.
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    /// Flits buffered in the per-VC ejection queue (audit
    /// instrumentation: credit-matched to the router's local port).
    pub fn eject_depth(&self, vc: usize) -> usize {
        self.eject[vc].len()
    }

    /// Remaining credits for a local input VC (audit instrumentation).
    pub fn inject_credits(&self, vc: usize) -> u8 {
        self.credits[vc]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::WbTag;
    use snoc_common::geom::Layer;
    use snoc_common::ids::BankId;

    fn coord() -> Coord {
        Coord::new(1, 1, Layer::Cache)
    }

    fn mk() -> (Nic, Router, NocWorkspace, Arena) {
        let nic = Nic::new(coord(), 6, 5, 8, 4);
        let router = Router::new(0, coord(), 6, 5, vec![]);
        (nic, router, NocWorkspace::new(1, 6, 5), Arena::new())
    }

    fn drain(
        nic: &mut Nic,
        arena: &mut Arena,
        now: Cycle,
    ) -> (Vec<(usize, u8)>, Vec<DeliveryEvent>) {
        let mut credits = Vec::new();
        let mut events = Vec::new();
        nic.drain_eject(arena, now, &mut credits, &mut events);
        (credits, events)
    }

    fn request(arena: &mut Arena) -> PacketId {
        let p = Packet::new(
            PacketKind::BankRead,
            coord(),
            Coord::new(3, 3, Layer::Cache),
            0x80,
            7,
        );
        arena.insert(p)
    }

    #[test]
    fn injects_one_flit_per_cycle() {
        // Give the NI a deep credit pool so the buffer never limits it.
        let mut nic = Nic::new(coord(), 6, 16, 8, 4);
        let mut router = Router::new(0, coord(), 6, 16, vec![]);
        let mut ws = NocWorkspace::new(1, 6, 16);
        let mut arena = Arena::new();
        let p = Packet::new(
            PacketKind::Writeback,
            coord(),
            Coord::new(3, 3, Layer::Cache),
            0,
            0,
        );
        let id = arena.insert(p);
        nic.enqueue(id, TrafficClass::Request);
        for cycle in 0..8 {
            nic.inject_step(&mut router, &mut ws, &mut arena, cycle, 2);
            assert_eq!(
                router.buffered_flits(&ws),
                cycle as usize + 1,
                "one flit per cycle"
            );
        }
        nic.inject_step(&mut router, &mut ws, &mut arena, 8, 2);
        assert_eq!(router.buffered_flits(&ws), 9, "writeback is 9 flits");
        assert_eq!(arena.get(id).injected_at, 0);
        assert_eq!(nic.injected, 1);
        assert_eq!(nic.inject_backlog(), 0);
    }

    #[test]
    fn injection_respects_credits() {
        let (mut nic, mut router, mut ws, mut arena) = mk();
        let p = Packet::new(
            PacketKind::Writeback,
            coord(),
            Coord::new(3, 3, Layer::Cache),
            0,
            0,
        );
        let id = arena.insert(p);
        nic.enqueue(id, TrafficClass::Request);
        // Only 5 credits per VC: the 6th flit stalls until a credit
        // returns.
        for cycle in 0..9 {
            nic.inject_step(&mut router, &mut ws, &mut arena, cycle, 2);
        }
        assert_eq!(router.buffered_flits(&ws), 5);
        // The router forwards two flits downstream, freeing the buffer
        // slots whose credits flow back to the NI.
        let lane = ws.lane(0, Direction::Local.port(), 0);
        ws.pop_front(0, lane);
        ws.pop_front(0, lane);
        nic.return_credit(0, 2);
        nic.inject_step(&mut router, &mut ws, &mut arena, 9, 2);
        nic.inject_step(&mut router, &mut ws, &mut arena, 10, 2);
        assert_eq!(router.buffered_flits(&ws), 5, "two more flits entered");
    }

    #[test]
    fn classes_bind_disjoint_vcs() {
        let (mut nic, mut router, mut ws, mut arena) = mk();
        let req = request(&mut arena);
        let rsp = arena.insert(Packet::new(PacketKind::Ack, coord(), coord(), 0, 0));
        nic.enqueue(req, TrafficClass::Request);
        nic.enqueue(rsp, TrafficClass::Response);
        nic.inject_step(&mut router, &mut ws, &mut arena, 0, 2);
        nic.inject_step(&mut router, &mut ws, &mut arena, 1, 2);
        // Request lands in VC 0..2, response in VC 4..6.
        assert_eq!(router.input_vc(&ws, Direction::Local.port(), 0).len(), 1);
        let rsp_vcs: usize = (4..6)
            .map(|v| router.input_vc(&ws, Direction::Local.port(), v).len())
            .sum();
        assert_eq!(rsp_vcs, 1);
    }

    #[test]
    fn eject_assembles_and_returns_credits() {
        let (mut nic, _router, _ws, mut arena) = mk();
        let id = request(&mut arena);
        for flit in Flit::sequence(id, 1) {
            nic.accept_eject(4, flit);
        }
        let (credits, events) = drain(&mut nic, &mut arena, 50);
        assert_eq!(credits, vec![(4, 1)]);
        assert!(events.is_empty());
        let delivered = nic.pop_delivered(&mut arena);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].ejected_at, 50);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn outbox_backpressure_stalls_tail_flits() {
        let (mut nic, _router, _ws, mut arena) = mk();
        // Fill the outbox to its cap of 4.
        for _ in 0..5 {
            let id = request(&mut arena);
            for flit in Flit::sequence(id, 1) {
                nic.accept_eject(0, flit);
            }
        }
        let (credits, _) = drain(&mut nic, &mut arena, 1);
        assert_eq!(credits, vec![(0, 4)], "fifth tail stays buffered");
        assert_eq!(nic.outbox_len(), 4);
        nic.pop_delivered(&mut arena);
        let (credits, _) = drain(&mut nic, &mut arena, 2);
        assert_eq!(credits, vec![(0, 1)]);
    }

    #[test]
    fn tagged_request_triggers_an_ack() {
        let (mut nic, mut router, mut ws, mut arena) = mk();
        let id = request(&mut arena);
        let parent = Coord::new(3, 3, Layer::Cache);
        arena.get_mut(id).wb_tag = Some(WbTag {
            stamp: 42,
            parent,
            child: BankId::new(9),
        });
        for flit in Flit::sequence(id, 1) {
            nic.accept_eject(0, flit);
        }
        let (_, events) = drain(&mut nic, &mut arena, 10);
        assert!(events.is_empty(), "ack is sent, not an event at the child");
        // The ack is queued for injection in the response class.
        assert_eq!(nic.inject_backlog(), 1);
        nic.inject_step(&mut router, &mut ws, &mut arena, 11, 2);
        let v = TrafficClass::Response.vc_range(6).start;
        assert_eq!(router.input_vc(&ws, Direction::Local.port(), v).len(), 1);
    }

    #[test]
    fn eject_buffered_counter_tracks_per_vc_depths_exactly() {
        // The O(1) early-out in `drain_eject` hinges on the counter: it
        // must equal the summed per-VC depths after every mutation,
        // reaching zero exactly when all VCs are empty — a phantom
        // non-zero count would burn cycles, a phantom zero would strand
        // buffered flits forever.
        use snoc_common::rng::SimRng;
        let (mut nic, _router, _ws, mut arena) = mk();
        let mut rng = SimRng::for_stream(0x41C, 0);
        fn check(nic: &Nic) {
            let total: usize = (0..6).map(|v| nic.eject_depth(v)).sum();
            assert_eq!(nic.eject_buffered(), total, "counter out of sync");
        }
        for step in 0..500u64 {
            if rng.chance(0.6) {
                let id = request(&mut arena);
                let vc = rng.below(6);
                for flit in Flit::sequence(id, 1 + rng.below(4)) {
                    nic.accept_eject(vc, flit);
                    check(&nic);
                }
            } else {
                drain(&mut nic, &mut arena, step);
                check(&nic);
                nic.pop_delivered(&mut arena);
            }
        }
        // Drain to empty: with the outbox popped between passes, every
        // pass with flits buffered must make progress.
        while nic.eject_buffered() > 0 {
            let before = nic.eject_buffered();
            drain(&mut nic, &mut arena, 1_000);
            nic.pop_delivered(&mut arena);
            check(&nic);
            assert!(nic.eject_buffered() < before, "drain made no progress");
        }
        // Draining while empty is a strict no-op: no credits, no events.
        let (credits, events) = drain(&mut nic, &mut arena, 2_000);
        assert!(credits.is_empty() && events.is_empty());
        assert_eq!(arena.live(), 0, "every packet was assembled and taken");
    }

    #[test]
    fn tagack_is_consumed_internally() {
        let (mut nic, _router, _ws, mut arena) = mk();
        let parent = coord();
        let mut ack = Packet::new(
            PacketKind::TagAck,
            Coord::new(3, 3, Layer::Cache),
            parent,
            0,
            0,
        );
        ack.wb_tag = Some(WbTag {
            stamp: 7,
            parent,
            child: BankId::new(9),
        });
        let id = arena.insert(ack);
        for flit in Flit::sequence(id, 1) {
            nic.accept_eject(5, flit);
        }
        let (credits, events) = drain(&mut nic, &mut arena, 99);
        assert_eq!(credits, vec![(5, 1)]);
        assert_eq!(events.len(), 1);
        match &events[0] {
            DeliveryEvent::TagAck(tag, when) => {
                assert_eq!(tag.stamp, 7);
                assert_eq!(*when, 99);
            }
        }
        assert_eq!(nic.outbox_len(), 0, "tag acks never reach the endpoint");
        assert_eq!(arena.live(), 0);
    }
}
