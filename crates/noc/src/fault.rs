//! Deterministic fault injection and graceful degradation for the NoC.
//!
//! A stacked design concentrates traffic on a handful of shared
//! structures — the region TSBs above all — so a single hard fault can
//! take out a quarter of the cache layer unless the interconnect
//! degrades gracefully. This module injects faults into exactly those
//! structures and pairs each fault class with the recovery machinery it
//! demands:
//!
//! * **Transient TSB / mesh-link / router-port outages** block the
//!   affected output port in switch allocation for a bounded number of
//!   cycles. Buffered flits simply wait in their virtual channels as
//!   ordinary backpressure — no credit moves, no flit is lost — so
//!   every packet- and credit-conservation invariant the auditor checks
//!   holds *while faults are firing*.
//! * **L2 bank faults** come in two flavours. *Stuck-busy* wedges the
//!   parent router's predicted busy horizon far into the future; the
//!   periodic [`crate::busy::BusyTable::expire_stale`] sweep clamps it
//!   back so held requests release instead of waiting out a phantom
//!   service chain. *Dropped-ack* episodes make the bank lose requests
//!   after network delivery (and swallow its WB estimator tag acks);
//!   the requester's NI-level timeout fires and re-injects the request
//!   with bounded exponential backoff, up to a retry cap, after which
//!   the request is abandoned and counted. Swallowed tag acks are
//!   recovered by the window-based estimator's existing stale-tag
//!   expiry, so congestion predictions do not wedge either.
//! * **Permanent TSB death** (`kill_tsb_at`) triggers *region
//!   re-homing*: the victim region's request traffic is re-routed
//!   through the nearest surviving TSB, which rebuilds the routing
//!   table, the parent/child serialization points and the busy/WB
//!   prediction state (see [`crate::Network::rehome_region`]).
//!
//! All of it is opt-in and zero-cost when off, following the
//! audit/telemetry pattern: a [`FaultPlan`] in
//! [`crate::NetworkParams::faults`] (or [`crate::Network::enable_faults`])
//! allocates a boxed [`FaultState`] whose absence costs the
//! hot path one cold-pointer branch. Every stochastic decision draws
//! from a [`SimRng`] stream derived from the plan's own seed, so a
//! faulty run is byte-reproducible: same plan, same seed, same faults,
//! same final metrics.

use crate::packet::{Packet, PacketKind};
use snoc_common::geom::{Coord, Direction, Mesh};
use snoc_common::ids::BankId;
use snoc_common::rng::SimRng;
use snoc_common::Cycle;

/// The lateral directions a mesh-link fault can pick from.
const LATERAL: [Direction; 4] = [
    Direction::East,
    Direction::West,
    Direction::North,
    Direction::South,
];

/// A deterministic fault-injection campaign description.
///
/// Rates are per-cycle event probabilities: each cycle, each fault
/// class independently fires at most one event, with a uniformly drawn
/// victim. The defaults describe a modest mixed campaign;
/// [`FaultPlan::parse`]`("1")` yields exactly these values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injector's private RNG stream (independent of the
    /// workload seed, so the same fault schedule can replay against
    /// different traffic).
    pub seed: u64,
    /// Per-cycle probability of a transient TSB outage.
    pub tsb_rate: f64,
    /// Per-cycle probability of a transient mesh-link outage.
    pub link_rate: f64,
    /// Per-cycle probability of a transient router-port outage.
    pub port_rate: f64,
    /// Per-cycle probability of an L2 bank fault episode
    /// (stuck-busy or dropped-ack, chosen by a fair draw).
    pub bank_rate: f64,
    /// Probability that a request (or tag ack) reaching a faulted bank
    /// during a dropped-ack episode is lost.
    pub drop_rate: f64,
    /// Duration of transient outages and dropped-ack episodes.
    pub outage_cycles: Cycle,
    /// Busy horizon injected by a stuck-busy bank fault.
    pub stuck_cycles: Cycle,
    /// Horizons further than this past `now` are treated as wedged by
    /// the periodic busy-table expiry sweep.
    pub busy_cap: Cycle,
    /// Cycle at which one region TSB dies permanently (`None` = never).
    pub kill_tsb_at: Option<Cycle>,
    /// Base of the NI request-retry exponential backoff.
    pub retry_base: Cycle,
    /// Upper bound on a single backoff interval.
    pub retry_cap: Cycle,
    /// Drops of one request before it is abandoned.
    pub max_retries: u32,
    /// Period of the busy-table expiry sweep.
    pub expiry_period: Cycle,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0xFA17,
            tsb_rate: 1e-4,
            link_rate: 2e-4,
            port_rate: 2e-4,
            bank_rate: 5e-4,
            drop_rate: 0.5,
            outage_cycles: 64,
            stuck_cycles: 2_000,
            busy_cap: 800,
            kill_tsb_at: None,
            retry_base: 128,
            retry_cap: 2_048,
            max_retries: 6,
            expiry_period: 512,
        }
    }
}

impl FaultPlan {
    /// Parses a `SNOC_FAULTS`-style specification: `Ok(None)` when it
    /// switches injection off.
    ///
    /// `0`/`off`/`false` (or nothing) is off and `1`/`true`/`on` is the
    /// default campaign. Anything else is a comma-separated
    /// `key=value` list overriding the defaults, e.g.
    /// `seed=7,tsb=1e-3,bank=2e-3,kill_tsb=50000`. The keys are
    /// `seed`, `tsb`, `link`, `port`, `bank`, `drop`, `outage`,
    /// `stuck`, `busy_cap`, `kill_tsb`, `retry_base`, `retry_cap`,
    /// `max_retries` and `expiry`.
    ///
    /// # Errors
    ///
    /// A pair that is not `key=value`, an unknown key, or a value that
    /// does not parse as its field's type.
    pub fn parse(raw: &str) -> Result<Option<Self>, String> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "" | "0" | "off" | "false" => return Ok(None),
            "1" | "true" | "on" => return Ok(Some(Self::default())),
            _ => {}
        }
        let mut plan = Self::default();
        for pair in raw.split(',') {
            let Some((key, value)) = pair.split_once('=') else {
                return Err(format!("`{pair}` is not key=value"));
            };
            let (key, value) = (key.trim(), value.trim());
            fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
                value
                    .parse()
                    .map_err(|_| format!("{key}: `{value}` is not a valid value"))
            }
            match key {
                "seed" => plan.seed = num(key, value)?,
                "tsb" => plan.tsb_rate = num(key, value)?,
                "link" => plan.link_rate = num(key, value)?,
                "port" => plan.port_rate = num(key, value)?,
                "bank" => plan.bank_rate = num(key, value)?,
                "drop" => plan.drop_rate = num(key, value)?,
                "outage" => plan.outage_cycles = num(key, value)?,
                "stuck" => plan.stuck_cycles = num(key, value)?,
                "busy_cap" => plan.busy_cap = num(key, value)?,
                "kill_tsb" => plan.kill_tsb_at = Some(num(key, value)?),
                "retry_base" => plan.retry_base = num(key, value)?,
                "retry_cap" => plan.retry_cap = num(key, value)?,
                "max_retries" => plan.max_retries = num(key, value)?,
                "expiry" => plan.expiry_period = num(key, value)?,
                _ => return Err(format!("unknown key `{key}`")),
            }
        }
        Ok(Some(plan))
    }
}

/// What a fault campaign did to a run, surfaced through the run
/// metrics next to the audit and telemetry reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Transient TSB outages injected.
    pub tsb_faults: u64,
    /// Transient mesh-link outages injected.
    pub link_faults: u64,
    /// Transient router-port outages injected.
    pub port_faults: u64,
    /// L2 bank fault episodes injected (both flavours).
    pub bank_faults: u64,
    /// Requests lost at a faulted bank after network delivery.
    pub dropped: u64,
    /// WB estimator tag acks swallowed by a faulted bank.
    pub dropped_acks: u64,
    /// Requests re-injected by the NI timeout/backoff machinery.
    pub retries: u64,
    /// Requests dropped more than `max_retries` times and given up on.
    pub abandoned: u64,
    /// Regions re-homed onto a surviving TSB.
    pub rehomed_regions: u64,
    /// Cycles with at least one fault episode (or a dead TSB) active.
    pub degraded_cycles: u64,
    /// Wedged busy horizons clamped by the expiry sweep.
    pub busy_expiries: u64,
}

impl FaultSummary {
    /// Total fault events injected across all classes.
    pub fn injected(&self) -> u64 {
        self.tsb_faults + self.link_faults + self.port_faults + self.bank_faults
    }
}

/// One transient outage: a blocked-output-port mask on one router.
#[derive(Debug, Clone, Copy)]
struct Outage {
    router: u32,
    mask: u8,
    until: Cycle,
}

/// A request the injector dropped and scheduled for re-injection.
#[derive(Debug, Clone, Copy)]
struct RetrySlot {
    due: Cycle,
    kind: PacketKind,
    src: Coord,
    dst: Coord,
    addr: u64,
    token: u64,
}

/// Retry bookkeeping for one lost request, keyed by what the source NI
/// knows about it.
#[derive(Debug, Clone, Copy)]
struct TrackedReq {
    src: Coord,
    addr: u64,
    token: u64,
    attempts: u32,
}

/// The live state of a fault campaign (boxed off the network's hot
/// state, present only while injection is on).
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: SimRng,
    /// Active transient outages.
    outages: Vec<Outage>,
    /// Per-router blocked-output-port masks, rebuilt whenever
    /// `outages` changes (hot-path lookup is one byte load).
    blocked: Vec<u8>,
    /// Banks currently in a dropped-ack episode.
    dropping: Vec<(BankId, Cycle)>,
    /// Scheduled re-injections.
    retries: Vec<RetrySlot>,
    /// Attempt counters for requests the campaign has dropped.
    tracked: Vec<TrackedReq>,
    /// `true` once the permanent TSB kill fired.
    pub killed: bool,
    /// Running campaign counters.
    pub summary: FaultSummary,
}

impl FaultState {
    /// RNG stream label of the injector (disjoint from every workload
    /// stream, which derive from the *system* seed).
    const STREAM: u64 = 0xFA017;

    /// Creates the campaign state for a network of `routers` routers.
    pub fn new(plan: FaultPlan, routers: usize) -> Self {
        Self {
            plan,
            rng: SimRng::for_stream(plan.seed, Self::STREAM),
            outages: Vec::new(),
            blocked: vec![0; routers],
            dropping: Vec::new(),
            retries: Vec::new(),
            tracked: Vec::new(),
            killed: false,
            summary: FaultSummary::default(),
        }
    }

    /// The campaign description.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The injector's RNG (all draws of a step happen in a fixed
    /// order, so the schedule replays byte-for-byte per seed).
    pub(crate) fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Blocked-output-port mask for router `idx` this cycle.
    #[cfg(test)]
    fn blocked(&self, idx: usize) -> u8 {
        self.blocked[idx]
    }

    /// The per-router blocked masks (hoisted once per step).
    #[inline]
    pub(crate) fn blocked_masks(&self) -> &[u8] {
        &self.blocked
    }

    fn rebuild_blocked(&mut self) {
        self.blocked.iter_mut().for_each(|b| *b = 0);
        for o in &self.outages {
            self.blocked[o.router as usize] |= o.mask;
        }
    }

    /// Expires finished episodes; returns `true` while any fault
    /// effect is still active (degraded-mode accounting).
    pub(crate) fn expire(&mut self, now: Cycle) -> bool {
        let before = self.outages.len();
        self.outages.retain(|o| o.until > now);
        if self.outages.len() != before {
            self.rebuild_blocked();
        }
        self.dropping.retain(|&(_, until)| until > now);
        self.killed
            || !self.outages.is_empty()
            || !self.dropping.is_empty()
            || !self.retries.is_empty()
    }

    /// Starts a transient outage blocking `mask` output ports of
    /// router `router` until `until`.
    pub(crate) fn push_outage(&mut self, router: usize, mask: u8, until: Cycle) {
        self.outages.push(Outage {
            router: router as u32,
            mask,
            until,
        });
        self.rebuild_blocked();
    }

    /// Starts (or extends) a dropped-ack episode on `bank`.
    pub(crate) fn push_dropping(&mut self, bank: BankId, until: Cycle) {
        match self.dropping.iter_mut().find(|(b, _)| *b == bank) {
            Some(slot) => slot.1 = slot.1.max(until),
            None => self.dropping.push((bank, until)),
        }
    }

    /// `true` if `bank` is currently losing requests and acks.
    pub(crate) fn bank_is_dropping(&self, bank: BankId) -> bool {
        self.dropping.iter().any(|&(b, _)| b == bank)
    }

    /// Pops every retry due at `now` or earlier (ascending schedule
    /// order, so re-injection order is deterministic).
    pub(crate) fn due_retries(&mut self, now: Cycle, out: &mut Vec<Packet>) {
        let mut i = 0;
        while i < self.retries.len() {
            if self.retries[i].due <= now {
                let r = self.retries.remove(i);
                out.push(Packet::new(r.kind, r.src, r.dst, r.addr, r.token));
                self.summary.retries += 1;
            } else {
                i += 1;
            }
        }
    }

    /// Decides the fate of a packet the network just delivered at a
    /// bank-side NI. Returns `true` to hand it to the endpoint,
    /// `false` to lose it (the bank's fault ate it after delivery — the
    /// network conserved the packet, the protocol did not).
    ///
    /// A lost request schedules an NI-level re-injection at
    /// `now + min(retry_base << attempts, retry_cap)`, modelling the
    /// requester's timeout with bounded exponential backoff; after
    /// `max_retries` drops the request is abandoned.
    pub(crate) fn filter_delivery(&mut self, p: &Packet, mesh: Mesh, now: Cycle) -> bool {
        let Some(bank) = p.dest_bank(mesh) else {
            return true;
        };
        let episode = self.bank_is_dropping(bank);
        let tracked = self
            .tracked
            .iter()
            .position(|t| t.src == p.src && t.addr == p.addr && t.token == p.token);
        if episode && self.rng.chance(self.plan.drop_rate) {
            self.summary.dropped += 1;
            let attempts = match tracked {
                Some(i) => {
                    self.tracked[i].attempts += 1;
                    self.tracked[i].attempts
                }
                None => {
                    self.tracked.push(TrackedReq {
                        src: p.src,
                        addr: p.addr,
                        token: p.token,
                        attempts: 1,
                    });
                    1
                }
            };
            if attempts > self.plan.max_retries {
                self.summary.abandoned += 1;
                if let Some(i) = self
                    .tracked
                    .iter()
                    .position(|t| t.src == p.src && t.addr == p.addr && t.token == p.token)
                {
                    self.tracked.remove(i);
                }
            } else {
                let backoff = self
                    .plan
                    .retry_base
                    .saturating_shl(attempts.saturating_sub(1).min(16))
                    .min(self.plan.retry_cap);
                self.retries.push(RetrySlot {
                    due: now + backoff,
                    kind: p.kind,
                    src: p.src,
                    dst: p.dst,
                    addr: p.addr,
                    token: p.token,
                });
            }
            false
        } else {
            if let Some(i) = tracked {
                // The (possibly retried) request made it through: the
                // source NI's timeout is disarmed.
                self.tracked.remove(i);
            }
            true
        }
    }

    /// Decides whether a faulted bank swallows a WB estimator tag ack.
    pub(crate) fn swallow_ack(&mut self, child: BankId) -> bool {
        if self.bank_is_dropping(child) && self.rng.chance(self.plan.drop_rate) {
            self.summary.dropped_acks += 1;
            true
        } else {
            false
        }
    }

    /// `true` if any request drop state exists (cheap guard before the
    /// per-delivery filtering pass).
    pub(crate) fn may_drop(&self) -> bool {
        !self.dropping.is_empty() || !self.tracked.is_empty()
    }

    /// The four per-class event draws of one cycle, in fixed order.
    /// Returns which classes fired: `(tsb, link, port, bank)`.
    pub(crate) fn draw_events(&mut self) -> (bool, bool, bool, bool) {
        let tsb = self.plan.tsb_rate > 0.0 && self.rng.chance(self.plan.tsb_rate);
        let link = self.plan.link_rate > 0.0 && self.rng.chance(self.plan.link_rate);
        let port = self.plan.port_rate > 0.0 && self.rng.chance(self.plan.port_rate);
        let bank = self.plan.bank_rate > 0.0 && self.rng.chance(self.plan.bank_rate);
        (tsb, link, port, bank)
    }

    /// A uniformly drawn lateral direction (mesh-link faults).
    pub(crate) fn draw_lateral(&mut self) -> Direction {
        LATERAL[self.rng.below(LATERAL.len())]
    }
}

/// `u64 << n` that saturates instead of overflowing (backoff doubling
/// stays monotone even for absurd retry counts).
trait SaturatingShl {
    fn saturating_shl(self, n: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, n: u32) -> Self {
        if self == 0 {
            0
        } else if n > self.leading_zeros() {
            u64::MAX
        } else {
            self << n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoc_common::geom::Layer;

    #[test]
    fn parse_accepts_switches_and_overrides() {
        assert_eq!(FaultPlan::parse("0"), Ok(None));
        assert_eq!(FaultPlan::parse("off"), Ok(None));
        assert_eq!(FaultPlan::parse(""), Ok(None));
        assert_eq!(FaultPlan::parse("1"), Ok(Some(FaultPlan::default())));
        assert_eq!(FaultPlan::parse("on"), Ok(Some(FaultPlan::default())));

        let p = FaultPlan::parse("seed=7,tsb=0.001,kill_tsb=5000,max_retries=3")
            .unwrap()
            .unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.tsb_rate, 0.001);
        assert_eq!(p.kill_tsb_at, Some(5_000));
        assert_eq!(p.max_retries, 3);
        // Untouched keys keep their defaults.
        assert_eq!(p.retry_base, FaultPlan::default().retry_base);

        // Unknown keys, garbage values and bare words are errors.
        for bad in [
            "bogus=1,bank=0.01",
            "drop=not_a_number",
            "seed=-1",
            "tsb",
            "seed=1,",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} must be rejected");
        }
        assert!(FaultPlan::parse("bogus=1").unwrap_err().contains("bogus"));
    }

    #[test]
    fn same_seed_replays_the_event_schedule() {
        let plan = FaultPlan {
            tsb_rate: 0.02,
            link_rate: 0.05,
            port_rate: 0.05,
            bank_rate: 0.1,
            ..FaultPlan::default()
        };
        let draw = || {
            let mut f = FaultState::new(plan, 128);
            (0..10_000).map(|_| f.draw_events()).collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn outages_expire_and_clear_the_blocked_masks() {
        let mut f = FaultState::new(FaultPlan::default(), 4);
        f.push_outage(1, 0b10, 100);
        f.push_outage(1, 0b100, 200);
        f.push_outage(3, 0b1, 100);
        assert_eq!(f.blocked(1), 0b110);
        assert_eq!(f.blocked(3), 0b1);
        assert_eq!(f.blocked(0), 0);
        assert!(f.expire(99), "still active");
        assert_eq!(f.blocked(1), 0b110);
        assert!(f.expire(100));
        assert_eq!(f.blocked(1), 0b100, "expired outage unblocks its port");
        assert_eq!(f.blocked(3), 0);
        assert!(!f.expire(200), "all clear");
        assert_eq!(f.blocked(1), 0);
    }

    fn request(addr: u64, token: u64) -> Packet {
        Packet::new(
            PacketKind::BankRead,
            Coord::new(0, 0, Layer::Core),
            Coord::new(3, 3, Layer::Cache),
            addr,
            token,
        )
    }

    #[test]
    fn dropped_request_backs_off_exponentially_then_abandons() {
        let plan = FaultPlan {
            drop_rate: 1.0, // every delivery during the episode is lost
            retry_base: 8,
            retry_cap: 64,
            max_retries: 3,
            ..FaultPlan::default()
        };
        let mesh = Mesh::new(8, 8);
        let mut f = FaultState::new(plan, 128);
        let p = request(0x100, 9);
        let bank = p.dest_bank(mesh).unwrap();
        f.push_dropping(bank, u64::MAX);

        let mut out = Vec::new();
        let mut now = 0;
        for attempt in 1..=3u64 {
            assert!(!f.filter_delivery(&p, mesh, now), "drop #{attempt}");
            // Backoff doubles: 8, 16, 32 — capped at 64.
            let backoff = (8u64 << (attempt - 1)).min(64);
            f.due_retries(now + backoff - 1, &mut out);
            assert!(out.is_empty(), "not due yet (attempt {attempt})");
            f.due_retries(now + backoff, &mut out);
            assert_eq!(out.len(), 1, "retry fires on its deadline");
            let r = out.pop().unwrap();
            assert_eq!((r.addr, r.token, r.kind), (0x100, 9, PacketKind::BankRead));
            now += backoff;
        }
        // Fourth drop exceeds max_retries: abandoned, no retry queued.
        assert!(!f.filter_delivery(&p, mesh, now));
        f.due_retries(u64::MAX - 1, &mut out);
        assert!(out.is_empty());
        assert_eq!(f.summary.dropped, 4);
        assert_eq!(f.summary.retries, 3);
        assert_eq!(f.summary.abandoned, 1);
        assert!(f.tracked.is_empty(), "abandoned request is forgotten");
    }

    #[test]
    fn successful_delivery_disarms_the_timeout() {
        let plan = FaultPlan {
            drop_rate: 1.0,
            ..FaultPlan::default()
        };
        let mesh = Mesh::new(8, 8);
        let mut f = FaultState::new(plan, 128);
        let p = request(0x200, 4);
        let bank = p.dest_bank(mesh).unwrap();
        f.push_dropping(bank, 50);
        assert!(!f.filter_delivery(&p, mesh, 10), "lost during the episode");
        assert_eq!(f.tracked.len(), 1);
        // The episode ends; the retried request gets through.
        assert!(!f.expire(60) || f.dropping.is_empty());
        assert!(f.filter_delivery(&p, mesh, 200));
        assert!(f.tracked.is_empty(), "attempt counter cleared on success");
    }

    #[test]
    fn non_requests_and_healthy_banks_pass_untouched() {
        let plan = FaultPlan {
            drop_rate: 1.0,
            ..FaultPlan::default()
        };
        let mesh = Mesh::new(8, 8);
        let mut f = FaultState::new(plan, 128);
        // A response-class packet is never dropped even mid-episode.
        let reply = Packet::new(
            PacketKind::DataReply,
            Coord::new(3, 3, Layer::Cache),
            Coord::new(0, 0, Layer::Core),
            0x300,
            1,
        );
        f.push_dropping(BankId::new(27), u64::MAX);
        assert!(f.filter_delivery(&reply, mesh, 0));
        // A request to a different, healthy bank passes too.
        let p = request(0x400, 2); // dest bank 27? (3,3) => bank 27
        assert!(!f.filter_delivery(&p, mesh, 0), "faulted bank drops");
        let healthy = Packet::new(
            PacketKind::BankRead,
            Coord::new(0, 0, Layer::Core),
            Coord::new(5, 5, Layer::Cache),
            0x500,
            3,
        );
        assert!(f.filter_delivery(&healthy, mesh, 0));
        assert_eq!(f.summary.dropped, 1);
    }

    #[test]
    fn ack_swallowing_is_confined_to_the_episode() {
        let plan = FaultPlan {
            drop_rate: 1.0,
            ..FaultPlan::default()
        };
        let mut f = FaultState::new(plan, 128);
        assert!(!f.swallow_ack(BankId::new(5)), "healthy bank acks pass");
        f.push_dropping(BankId::new(5), 100);
        assert!(f.swallow_ack(BankId::new(5)));
        assert!(!f.swallow_ack(BankId::new(6)), "other banks unaffected");
        f.expire(100);
        assert!(!f.swallow_ack(BankId::new(5)), "episode over");
        assert_eq!(f.summary.dropped_acks, 1);
    }

    #[test]
    fn backoff_shift_saturates() {
        assert_eq!(u64::MAX.saturating_shl(1), u64::MAX);
        assert_eq!(1u64.saturating_shl(63), 1 << 63);
        assert_eq!(1u64.saturating_shl(64), u64::MAX);
        assert_eq!(8u64.saturating_shl(2), 32);
    }
}
