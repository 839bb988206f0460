//! Workspace-wide structure-of-arrays router state.
//!
//! Every router used to own its VC buffers, credit counters and
//! allocation scratch as nested `Vec`s; stepping the mesh chased one
//! heap allocation per port per router. [`NocWorkspace`] flattens all
//! of that into contiguous per-field lanes shared by the whole
//! network, indexed by the flat [`VcKey`] scheme
//! (`router * PORTS * vcs + port * vcs + vc`):
//!
//! - **Input-VC lanes** (`head`/`len`/`front_ready`/`route`/`held`/
//!   `policy_held`) describe the buffer ring and allocation state of
//!   each input VC. `front_ready` caches the front flit's pipeline-ready
//!   cycle, so allocation tests readiness without touching the ring.
//! - **Flit lanes** (`f_packet`/`f_seq`/`f_flags`/`f_ready`) hold the
//!   buffered flits themselves, `depth` ring slots per lane, split by
//!   field so the hot sweeps touch only the bytes they need.
//! - **Output lanes** (`credits`/`owner`) reuse the *same* index
//!   space: output VC `(router, port, vc)` is credit-matched to the
//!   downstream input VC it feeds.
//!
//! Routers keep only their allocation masks and statistics; all data
//! that audit, telemetry and fault hooks want to observe lives here
//! and is read through the typed [`VcRef`]/[`PortRef`] handles with
//! explicit valid/ready semantics: a lane is *valid* when it holds a
//! front flit whose pipeline delay has elapsed, and an output VC is
//! *ready* when a downstream credit is available. Instrumentation and
//! the router hot path therefore agree on one source of truth instead
//! of poking router internals.

use crate::packet::Flit;
use crate::router::{OutRoute, PORTS};
use snoc_common::geom::Direction;
use snoc_common::ids::{PacketId, VcKey};
use snoc_common::Cycle;

/// `route` lane sentinel: no output allocated.
const NO_ROUTE: u16 = u16::MAX;
/// `owner` lane sentinel: output VC unowned.
const NO_OWNER: u16 = u16::MAX;
/// `held` lane sentinel: no bank-aware hold anchor.
const NO_HOLD: u64 = u64::MAX;
const FLAG_HEAD: u8 = 1;
const FLAG_TAIL: u8 = 1 << 1;

/// The structure-of-arrays store backing every router's VC, credit and
/// hold state. One instance serves the whole network. See the module
/// docs for the lane layout.
#[derive(Debug, Clone)]
pub struct NocWorkspace {
    routers: usize,
    vcs: usize,
    depth: usize,
    /// Flit slots per router (`PORTS * vcs * depth`), the occupancy
    /// denominator.
    capacity: usize,
    /// Ring start offset of each input VC, `0..depth`.
    head: Box<[u8]>,
    /// Buffered flit count of each input VC, `0..=depth`.
    len: Box<[u8]>,
    /// Pipeline-ready cycle of each non-empty input VC's front flit: a
    /// copy of its `f_ready` slot. Meaningless while `len == 0`, so it
    /// needs no sentinel; `push_back` on an empty lane and
    /// `pop_front` keep it equal to the ring front.
    front_ready: Box<[u64]>,
    /// Allocated output per input VC: `(out_port << 8) | out_vc`, or
    /// [`NO_ROUTE`].
    route: Box<[u16]>,
    /// Cycle the head packet was first held by the bank-aware policy,
    /// or [`NO_HOLD`]. The anchor survives a lapsed hold (it drives
    /// the `max_hold` force release and the held-packet statistics).
    held: Box<[u64]>,
    /// 1 while the most recent VA pass actively withheld allocation.
    policy_held: Box<[u8]>,
    /// Flit ring slots, `depth` per lane: packet id.
    f_packet: Box<[u16]>,
    /// Flit ring slots: sequence number.
    f_seq: Box<[u16]>,
    /// Flit ring slots: head/tail flags.
    f_flags: Box<[u8]>,
    /// Flit ring slots: cycle the flit clears the router pipeline.
    f_ready: Box<[u64]>,
    /// Downstream credits of each output VC, `0..=depth`.
    credits: Box<[u8]>,
    /// Input VC bound to each output VC: `(in_port << 8) | in_vc`, or
    /// [`NO_OWNER`]; bound from head-flit VA until the tail departs.
    owner: Box<[u16]>,
    /// Total buffered flits per router (RCA occupancy, idle skip).
    buffered: Box<[u32]>,
}

impl NocWorkspace {
    /// Creates the store for `routers` routers with `vcs` VCs of
    /// `depth` flits on each of the [`PORTS`] ports.
    pub fn new(routers: usize, vcs: usize, depth: usize) -> Self {
        assert!(
            PORTS * vcs <= 64,
            "per-router (port, vc) space must fit the allocation bitmasks"
        );
        assert!(vcs <= u8::MAX as usize && depth <= u8::MAX as usize);
        let lanes = routers * PORTS * vcs;
        Self {
            routers,
            vcs,
            depth,
            capacity: PORTS * vcs * depth,
            head: vec![0; lanes].into_boxed_slice(),
            len: vec![0; lanes].into_boxed_slice(),
            front_ready: vec![0; lanes].into_boxed_slice(),
            route: vec![NO_ROUTE; lanes].into_boxed_slice(),
            held: vec![NO_HOLD; lanes].into_boxed_slice(),
            policy_held: vec![0; lanes].into_boxed_slice(),
            f_packet: vec![0; lanes * depth].into_boxed_slice(),
            f_seq: vec![0; lanes * depth].into_boxed_slice(),
            f_flags: vec![0; lanes * depth].into_boxed_slice(),
            f_ready: vec![0; lanes * depth].into_boxed_slice(),
            credits: vec![depth as u8; lanes].into_boxed_slice(),
            owner: vec![NO_OWNER; lanes].into_boxed_slice(),
            buffered: vec![0; routers].into_boxed_slice(),
        }
    }

    /// Number of routers served.
    pub fn routers(&self) -> usize {
        self.routers
    }

    /// VCs per port.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Buffer depth per VC in flits.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// First lane of `router`'s flat `(port, vc)` block.
    #[inline]
    pub(crate) fn router_base(&self, router: usize) -> usize {
        debug_assert!(router < self.routers, "router {router} out of range");
        router * PORTS * self.vcs
    }

    /// The lane index of `(router, port, vc)`.
    #[inline]
    pub fn lane(&self, router: usize, port: usize, vc: usize) -> usize {
        debug_assert!(router < self.routers, "router {router} out of range");
        VcKey::compose(router, port, vc, PORTS, self.vcs).lane()
    }

    // ---- input VC ring ------------------------------------------------

    #[inline]
    fn ring_slot(&self, lane: usize, k: usize) -> usize {
        debug_assert!(k < self.len[lane] as usize);
        let mut p = self.head[lane] as usize + k;
        if p >= self.depth {
            p -= self.depth;
        }
        lane * self.depth + p
    }

    #[inline]
    fn read_flit(&self, slot: usize) -> Flit {
        let flags = self.f_flags[slot];
        Flit {
            packet: PacketId::new(self.f_packet[slot]),
            seq: self.f_seq[slot],
            head: flags & FLAG_HEAD != 0,
            tail: flags & FLAG_TAIL != 0,
            ready_at: self.f_ready[slot],
        }
    }

    /// Buffered flit count of a lane.
    #[inline]
    pub(crate) fn vc_len(&self, lane: usize) -> usize {
        self.len[lane] as usize
    }

    /// The `k`-th buffered flit of a lane (0 = front).
    #[inline]
    pub(crate) fn flit_at(&self, lane: usize, k: usize) -> Flit {
        self.read_flit(self.ring_slot(lane, k))
    }

    /// The front flit, if any.
    #[inline]
    pub(crate) fn front(&self, lane: usize) -> Option<Flit> {
        (self.len[lane] > 0).then(|| self.flit_at(lane, 0))
    }

    /// Packet id of the front flit (lane must be non-empty).
    #[inline]
    pub(crate) fn front_packet(&self, lane: usize) -> PacketId {
        PacketId::new(self.f_packet[self.ring_slot(lane, 0)])
    }

    /// Pipeline-ready cycle of the front flit (lane must be non-empty),
    /// read from the lane-indexed cache rather than the flit ring.
    #[inline]
    pub(crate) fn front_ready_at(&self, lane: usize) -> Cycle {
        debug_assert!(self.len[lane] > 0, "front of an empty input VC");
        self.front_ready[lane]
    }

    /// `true` while the front-ready cache of a non-empty lane equals
    /// its ring front's `ready_at` (the invariant `push_back` and
    /// `pop_front` maintain; checked by debug builds and the auditor).
    #[inline]
    pub(crate) fn front_ready_is_exact(&self, lane: usize) -> bool {
        self.len[lane] == 0 || self.front_ready[lane] == self.f_ready[self.ring_slot(lane, 0)]
    }

    /// Overwrites a lane's front-ready cache (auditor tests only).
    #[cfg(test)]
    pub(crate) fn corrupt_front_ready(&mut self, lane: usize, cycle: Cycle) {
        self.front_ready[lane] = cycle;
    }

    /// `true` when the front flit is a header (lane must be non-empty).
    #[inline]
    pub(crate) fn front_is_head(&self, lane: usize) -> bool {
        self.f_flags[self.ring_slot(lane, 0)] & FLAG_HEAD != 0
    }

    /// Appends a flit to a lane's ring; returns `true` when the lane
    /// was empty (the caller arms VA on empty-lane head arrivals).
    #[inline]
    pub(crate) fn push_back(&mut self, router: usize, lane: usize, flit: Flit) -> bool {
        let len = self.len[lane] as usize;
        debug_assert!(len < self.depth, "input VC overflow (credit bug)");
        let mut p = self.head[lane] as usize + len;
        if p >= self.depth {
            p -= self.depth;
        }
        let slot = lane * self.depth + p;
        self.f_packet[slot] = flit.packet.raw();
        self.f_seq[slot] = flit.seq;
        self.f_flags[slot] = (flit.head as u8 * FLAG_HEAD) | (flit.tail as u8 * FLAG_TAIL);
        self.f_ready[slot] = flit.ready_at;
        if len == 0 {
            self.front_ready[lane] = flit.ready_at;
        }
        self.len[lane] = (len + 1) as u8;
        self.buffered[router] += 1;
        debug_assert!(self.front_ready_is_exact(lane), "front-ready cache drifted");
        len == 0
    }

    /// Pops the front flit of a non-empty lane.
    #[inline]
    pub(crate) fn pop_front(&mut self, router: usize, lane: usize) -> Flit {
        let len = self.len[lane];
        debug_assert!(len > 0, "pop from empty input VC");
        let head = self.head[lane] as usize;
        let flit = self.read_flit(lane * self.depth + head);
        let mut h = head + 1;
        if h >= self.depth {
            h -= self.depth;
        }
        self.head[lane] = h as u8;
        self.len[lane] = len - 1;
        if len > 1 {
            self.front_ready[lane] = self.f_ready[lane * self.depth + h];
        }
        self.buffered[router] -= 1;
        debug_assert!(self.front_ready_is_exact(lane), "front-ready cache drifted");
        flit
    }

    // ---- allocation state ---------------------------------------------

    /// The allocated `(out_port, out_vc)` of a lane, if any.
    #[inline]
    pub(crate) fn route_parts(&self, lane: usize) -> Option<(usize, usize)> {
        let raw = self.route[lane];
        (raw != NO_ROUTE).then_some(((raw >> 8) as usize, (raw & 0xFF) as usize))
    }

    #[inline]
    pub(crate) fn set_route(&mut self, lane: usize, out_port: usize, out_vc: usize) {
        self.route[lane] = (out_port as u16) << 8 | out_vc as u16;
    }

    #[inline]
    pub(crate) fn clear_route(&mut self, lane: usize) {
        self.route[lane] = NO_ROUTE;
    }

    /// The hold anchor of a lane (survives lapsed holds), if set.
    #[inline]
    pub(crate) fn held_anchor(&self, lane: usize) -> Option<Cycle> {
        let h = self.held[lane];
        (h != NO_HOLD).then_some(h)
    }

    #[inline]
    pub(crate) fn set_held(&mut self, lane: usize, now: Cycle) {
        self.held[lane] = now;
    }

    /// Clears and returns the hold anchor.
    #[inline]
    pub(crate) fn take_held(&mut self, lane: usize) -> Option<Cycle> {
        let h = std::mem::replace(&mut self.held[lane], NO_HOLD);
        (h != NO_HOLD).then_some(h)
    }

    #[inline]
    pub(crate) fn is_policy_held(&self, lane: usize) -> bool {
        self.policy_held[lane] != 0
    }

    #[inline]
    pub(crate) fn set_policy_held(&mut self, lane: usize, held: bool) {
        self.policy_held[lane] = held as u8;
    }

    // ---- output VC flow control ---------------------------------------

    /// Remaining downstream credits of an output lane.
    #[inline]
    pub(crate) fn credit(&self, lane: usize) -> u8 {
        self.credits[lane]
    }

    /// Consumes one credit of an output lane.
    #[inline]
    pub(crate) fn spend_credit(&mut self, lane: usize) {
        debug_assert!(self.credits[lane] > 0, "credit underflow");
        self.credits[lane] -= 1;
    }

    /// Returns `n` credits to an output lane.
    #[inline]
    pub(crate) fn refund_credits(&mut self, lane: usize, n: u8) {
        self.credits[lane] += n;
        debug_assert!(self.credits[lane] as usize <= self.depth, "credit overflow");
    }

    #[cfg(test)]
    pub(crate) fn drain_credits_lane(&mut self, lane: usize) -> u8 {
        std::mem::take(&mut self.credits[lane])
    }

    /// The `(in_port, in_vc)` bound to an output lane, if owned.
    #[inline]
    pub(crate) fn owner_parts(&self, lane: usize) -> Option<(u8, u8)> {
        let raw = self.owner[lane];
        (raw != NO_OWNER).then_some(((raw >> 8) as u8, raw as u8))
    }

    #[inline]
    pub(crate) fn owner_is_none(&self, lane: usize) -> bool {
        self.owner[lane] == NO_OWNER
    }

    #[inline]
    pub(crate) fn set_owner(&mut self, lane: usize, in_port: u8, in_vc: u8) {
        self.owner[lane] = (in_port as u16) << 8 | in_vc as u16;
    }

    #[inline]
    pub(crate) fn clear_owner(&mut self, lane: usize) {
        self.owner[lane] = NO_OWNER;
    }

    // ---- per-router aggregates ----------------------------------------

    /// Total buffered flits in a router (all ports, all VCs).
    #[inline]
    pub fn buffered(&self, router: usize) -> usize {
        self.buffered[router] as usize
    }

    /// Buffer occupancy of a router as a 0..=255 fraction of capacity.
    #[inline]
    pub fn occupancy_byte(&self, router: usize) -> u8 {
        (self.buffered[router] as usize * 255 / self.capacity) as u8
    }

    // ---- typed handles ------------------------------------------------

    /// A read handle on one input VC.
    pub fn vc(&self, router: usize, port: usize, vc: usize) -> VcRef<'_> {
        VcRef {
            ws: self,
            lane: self.lane(router, port, vc),
        }
    }

    /// A read handle on the input VC named by a flat key.
    pub fn vc_by_key(&self, key: VcKey) -> VcRef<'_> {
        let lane = key.lane();
        debug_assert!(lane < self.route.len());
        VcRef { ws: self, lane }
    }

    /// A read handle on one output port's flow-control state.
    pub fn port(&self, router: usize, port: usize) -> PortRef<'_> {
        PortRef {
            ws: self,
            base: self.lane(router, port, 0),
            vcs: self.vcs,
        }
    }
}

/// A typed read handle on one input virtual channel's workspace lanes.
///
/// The *valid* side of the port-interface contract: a VC presents a
/// flit ([`Self::front`]) and [`Self::valid`] says whether that flit
/// has cleared the router pipeline and may be consumed this cycle.
#[derive(Clone, Copy)]
pub struct VcRef<'a> {
    ws: &'a NocWorkspace,
    lane: usize,
}

impl VcRef<'_> {
    /// The flat key of this VC.
    pub fn key(&self) -> VcKey {
        VcKey::from_lane(self.lane)
    }

    /// Buffered flit count.
    pub fn len(&self) -> usize {
        self.ws.vc_len(self.lane)
    }

    /// `true` when no flits are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flit at the head of the buffer.
    pub fn front(&self) -> Option<Flit> {
        self.ws.front(self.lane)
    }

    /// The `k`-th buffered flit (0 = front). Panics past [`Self::len`]
    /// in debug builds.
    pub fn flit(&self, k: usize) -> Flit {
        self.ws.flit_at(self.lane, k)
    }

    /// `true` when the front flit exists and has cleared the pipeline:
    /// the VC presents consumable data this cycle.
    pub fn valid(&self, now: Cycle) -> bool {
        self.ws.vc_len(self.lane) > 0 && self.ws.front_ready_at(self.lane) <= now
    }

    /// The allocated output, if any.
    pub fn route(&self) -> Option<OutRoute> {
        self.ws.route_parts(self.lane).map(|(dp, vc)| OutRoute {
            dir: Direction::ALL[dp],
            vc,
        })
    }

    /// `true` while the head packet is being held by bank-aware
    /// arbitration.
    pub fn is_held(&self) -> bool {
        self.ws.held_anchor(self.lane).is_some() && self.ws.route_parts(self.lane).is_none()
    }

    /// The cycle the head packet was first held, while the bank-aware
    /// policy is actively withholding VA (audit instrumentation).
    /// Lapsed holds — the policy released the packet but allocation is
    /// backpressured — report `None`.
    pub fn held_since(&self) -> Option<Cycle> {
        if self.ws.is_policy_held(self.lane) && self.ws.route_parts(self.lane).is_none() {
            self.ws.held_anchor(self.lane)
        } else {
            None
        }
    }
}

/// A typed read handle on one output port's flow-control lanes.
///
/// The *ready* side of the port-interface contract: output VC `v` is
/// [`Self::ready`] when a downstream credit is available, and free for
/// allocation when additionally unowned.
#[derive(Clone, Copy)]
pub struct PortRef<'a> {
    ws: &'a NocWorkspace,
    base: usize,
    vcs: usize,
}

impl PortRef<'_> {
    /// Remaining downstream credits of output VC `vc`.
    pub fn credits(&self, vc: usize) -> u8 {
        debug_assert!(vc < self.vcs);
        self.ws.credit(self.base + vc)
    }

    /// `true` when output VC `vc` can accept a flit this cycle.
    pub fn ready(&self, vc: usize) -> bool {
        self.credits(vc) > 0
    }

    /// The `(in_port, in_vc)` bound to output VC `vc`, if owned.
    pub fn owner(&self, vc: usize) -> Option<(u8, u8)> {
        debug_assert!(vc < self.vcs);
        self.ws.owner_parts(self.base + vc)
    }

    /// `true` if some VC in `range` is unowned with credits available
    /// — i.e. VC allocation through this port could succeed right now
    /// for a packet of that class.
    pub fn has_free_credited_vc(&self, range: std::ops::Range<usize>) -> bool {
        range
            .into_iter()
            .any(|v| self.ws.owner_is_none(self.base + v) && self.ws.credit(self.base + v) > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(pid: u16, seq: u16, head: bool, tail: bool, ready_at: Cycle) -> Flit {
        Flit {
            packet: PacketId::new(pid),
            seq,
            head,
            tail,
            ready_at,
        }
    }

    #[test]
    fn vc_key_round_trips_through_the_lane_space() {
        let ws = NocWorkspace::new(128, 6, 5);
        let mut lanes = std::collections::HashSet::new();
        for router in [0usize, 7, 127] {
            for port in 0..PORTS {
                for vc in 0..6 {
                    let key = VcKey::compose(router, port, vc, PORTS, 6);
                    assert_eq!(key.lane(), ws.lane(router, port, vc));
                    assert_eq!(key.decompose(PORTS, 6), (router, port, vc));
                    assert_eq!(ws.vc_by_key(key).key(), key);
                    assert!(lanes.insert(key.lane()), "lanes are unique");
                }
            }
        }
    }

    #[test]
    fn ring_wraps_past_the_buffer_depth() {
        let mut ws = NocWorkspace::new(1, 6, 5);
        let lane = ws.lane(0, 2, 3);
        // Fill, half-drain, refill: the ring head walks past `depth`.
        for round in 0u16..4 {
            for i in 0..3 {
                ws.push_back(0, lane, flit(round * 8 + i, i, false, false, u64::from(i)));
            }
            for i in 0..3 {
                let f = ws.pop_front(0, lane);
                assert_eq!(f.packet, PacketId::new(round * 8 + i));
                assert_eq!(f.seq, i);
            }
        }
        assert_eq!(ws.vc_len(lane), 0);
        assert_eq!(ws.buffered(0), 0);
    }

    #[test]
    fn front_ready_follows_the_ring_front_across_wraps() {
        let mut ws = NocWorkspace::new(1, 6, 5);
        let lane = ws.lane(0, 1, 4);
        let mut queued = std::collections::VecDeque::new();
        let mut next = 100;
        // Keep 1..=4 flits buffered while the ring head laps the depth.
        for step in 0..40 {
            if queued.len() < 4 && (queued.is_empty() || step % 3 != 0) {
                ws.push_back(0, lane, flit(0, 0, false, false, next));
                queued.push_back(next);
                next += 7;
            } else {
                assert_eq!(ws.pop_front(0, lane).ready_at, queued.pop_front().unwrap());
            }
            if let Some(&front) = queued.front() {
                assert_eq!(ws.front_ready_at(lane), front, "step {step}");
                assert!(ws.front_ready_is_exact(lane));
            }
        }
    }

    #[test]
    fn push_reports_empty_and_flags_round_trip() {
        let mut ws = NocWorkspace::new(1, 6, 5);
        let lane = ws.lane(0, 0, 0);
        assert!(ws.push_back(0, lane, flit(7, 0, true, false, 12)));
        assert!(!ws.push_back(0, lane, flit(7, 1, false, true, 13)));
        let vc = ws.vc(0, 0, 0);
        assert_eq!(vc.len(), 2);
        let front = vc.front().unwrap();
        assert!(front.head && !front.tail);
        assert_eq!(front.ready_at, 12);
        assert!(!vc.valid(11), "pipeline delay gates validity");
        assert!(vc.valid(12));
        let second = vc.flit(1);
        assert!(!second.head && second.tail);
    }

    #[test]
    fn route_hold_and_owner_sentinels() {
        let mut ws = NocWorkspace::new(2, 6, 5);
        let lane = ws.lane(1, 3, 2);
        assert!(ws.route_parts(lane).is_none());
        ws.set_route(lane, 4, 5);
        assert_eq!(ws.route_parts(lane), Some((4, 5)));
        assert_eq!(
            ws.vc(1, 3, 2).route(),
            Some(OutRoute {
                dir: Direction::ALL[4],
                vc: 5
            })
        );
        ws.clear_route(lane);
        assert!(ws.vc(1, 3, 2).route().is_none());

        assert!(ws.held_anchor(lane).is_none());
        ws.set_held(lane, 99);
        assert!(ws.vc(1, 3, 2).is_held());
        assert_eq!(ws.take_held(lane), Some(99));
        assert_eq!(ws.take_held(lane), None);

        let olane = ws.lane(1, 0, 1);
        assert!(ws.owner_is_none(olane));
        ws.set_owner(olane, 6, 2);
        assert_eq!(ws.port(1, 0).owner(1), Some((6, 2)));
        ws.clear_owner(olane);
        assert!(ws.port(1, 0).owner(1).is_none());
    }

    #[test]
    fn held_since_requires_an_active_policy_hold() {
        let mut ws = NocWorkspace::new(1, 6, 5);
        let lane = ws.lane(0, 0, 0);
        ws.set_held(lane, 40);
        assert_eq!(ws.vc(0, 0, 0).held_since(), None, "anchor alone lapses");
        ws.set_policy_held(lane, true);
        assert_eq!(ws.vc(0, 0, 0).held_since(), Some(40));
        ws.set_route(lane, 0, 0);
        assert_eq!(ws.vc(0, 0, 0).held_since(), None, "allocated = not held");
    }

    #[test]
    fn credits_start_full_and_move_both_ways() {
        let mut ws = NocWorkspace::new(1, 6, 5);
        let port = 4;
        assert!(ws.port(0, port).ready(0));
        assert_eq!(ws.port(0, port).credits(0), 5);
        let lane = ws.lane(0, port, 0);
        for left in (0..5u8).rev() {
            ws.spend_credit(lane);
            assert_eq!(ws.port(0, port).credits(0), left);
        }
        assert!(!ws.port(0, port).ready(0));
        assert!(!ws.port(0, port).has_free_credited_vc(0..1));
        assert!(ws.port(0, port).has_free_credited_vc(0..6));
        ws.refund_credits(lane, 3);
        assert_eq!(ws.port(0, port).credits(0), 3);
        ws.set_owner(lane, 0, 0);
        assert!(
            !ws.port(0, port).has_free_credited_vc(0..1),
            "owned VCs are not free"
        );
    }

    #[test]
    fn occupancy_tracks_per_router_buffering() {
        let mut ws = NocWorkspace::new(2, 6, 5);
        assert_eq!(ws.occupancy_byte(0), 0);
        for i in 0..5 {
            ws.push_back(0, ws.lane(0, 0, 0), flit(0, i, i == 0, i == 4, 0));
        }
        assert_eq!(ws.buffered(0), 5);
        assert_eq!(ws.buffered(1), 0, "routers are independent");
        // 5 of 7*6*5 = 210 slots.
        assert_eq!(ws.occupancy_byte(0) as usize, 5 * 255 / 210);
    }
}
