//! Run-time invariant auditing for the NoC.
//!
//! The simulator's figures are only as trustworthy as its conservation
//! laws: a silently dropped, duplicated or over-held packet corrupts
//! every latency number downstream. [`NetAuditor`] is an optional
//! checker, wired through [`crate::Network::step`], that verifies
//! once per cycle:
//!
//! * **Packet conservation** — every packet handed to `inject` is
//!   either still in flight or was delivered exactly once; no packet
//!   outlives a configurable age bound (deadlock/livelock watchdog).
//!   Packet identity is the monotonic [`crate::Packet::uid`], immune
//!   to arena slot recycling.
//! * **Credit/flit conservation** — for every link, the upstream
//!   output VC's remaining credits plus the downstream input VC's
//!   occupancy equal the buffer depth (credits returned can never
//!   exceed credits consumed), and each router's per-router buffered
//!   counter in the [`crate::workspace::NocWorkspace`] matches the sum
//!   of its VC occupancies — read through the same `VcRef`/`PortRef`
//!   lane handles the allocator sweeps.
//! * **Hold work-conservation** (Section 3.5) — a packet held at a
//!   parent router is released by `max_hold`, and a bank is not left
//!   idle while a request for it sits held with a free output VC
//!   available. Holds that persist only because allocation genuinely
//!   cannot proceed (no free/credited VC downstream) are legitimate
//!   back-pressure, so a violation requires the escape route to stay
//!   open for [`AuditConfig::hold_strike_limit`] consecutive cycles.
//! * **Wake-list completeness** — the network visits only the
//!   components on its wake lists, so every router with buffered
//!   flits, every NI with injection backlog, ejection flits or
//!   delivered packets must be on the matching list, and every
//!   window-based parent not marked for refresh must already hold its
//!   fresh congestion estimates.
//! * **Derived allocation state** — the caches the allocator reads in
//!   place of the lanes they summarise must match them: every
//!   non-empty lane's front-ready cycle equals its front flit's
//!   `ready_at`, and every router's SA port mask is the OR of its
//!   non-zero `sa_mask` words.
//!
//! Enable it with [`AuditConfig`] in [`crate::NetworkParams::audit`]
//! or [`crate::Network::enable_audit`].

use crate::estimator::EstimatorState;
use crate::network::Network;
use crate::packet::PacketKind;
use snoc_common::geom::Direction;
use snoc_common::Cycle;
use std::collections::HashMap;

/// Configuration of the invariant auditor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// A live packet older than this many cycles is reported as a
    /// probable deadlock/livelock victim.
    pub max_age: Cycle,
    /// Consecutive cycles an unjustified hold must persist, with a
    /// free and credited output VC available, before it is reported.
    /// Absorbs the one-cycle lag between a VC freeing up and the next
    /// allocation pass.
    pub hold_strike_limit: u32,
    /// Panic on the first violation instead of collecting them.
    pub panic_on_violation: bool,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            max_age: 50_000,
            hold_strike_limit: 8,
            panic_on_violation: false,
        }
    }
}

/// The outcome of an audited run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Total invariant violations observed.
    pub violations: u64,
    /// Human-readable descriptions of the first violations (capped).
    pub samples: Vec<String>,
    /// Cycles the auditor actually checked.
    pub checked_cycles: u64,
}

impl AuditReport {
    /// Cap on retained violation descriptions.
    const SAMPLE_CAP: usize = 32;

    /// `true` when no invariant was violated over a non-empty run.
    pub fn clean(&self) -> bool {
        self.violations == 0 && self.checked_cycles > 0
    }
}

/// Lifecycle state of one offered, not-yet-delivered packet.
#[derive(Debug, Clone, Copy)]
struct Tracked {
    offered_at: Cycle,
    /// Cycle of the last arena scan that saw this packet live.
    last_seen: Cycle,
    over_age_reported: bool,
}

/// The per-network invariant checker.
#[derive(Debug)]
pub struct NetAuditor {
    cfg: AuditConfig,
    /// Offered-but-undelivered packets by uid.
    tracked: HashMap<u64, Tracked>,
    offered: u64,
    delivered: u64,
    /// Per input VC (flat `router * PORTS * vcs + port * vcs + vc`):
    /// the held packet uid and its consecutive-strike count.
    strikes: Vec<(u64, u32)>,
    report: AuditReport,
}

impl NetAuditor {
    /// Creates an auditor.
    pub fn new(cfg: AuditConfig) -> Self {
        Self {
            cfg,
            tracked: HashMap::new(),
            offered: 0,
            delivered: 0,
            strikes: Vec::new(),
            report: AuditReport::default(),
        }
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &AuditReport {
        &self.report
    }

    fn violation(&mut self, now: Cycle, msg: std::fmt::Arguments<'_>) {
        self.report.violations += 1;
        let line = format!("cycle {now}: {msg}");
        if self.cfg.panic_on_violation {
            panic!("NoC audit violation at {line}");
        }
        if self.report.samples.len() < AuditReport::SAMPLE_CAP {
            self.report.samples.push(line);
        }
    }

    /// Records a packet handed to [`Network::inject`].
    pub fn note_offered(&mut self, uid: u64, now: Cycle) {
        self.offered += 1;
        let prev = self.tracked.insert(
            uid,
            Tracked {
                offered_at: now,
                last_seen: now,
                over_age_reported: false,
            },
        );
        if prev.is_some() {
            self.violation(now, format_args!("packet uid {uid} offered twice"));
        }
    }

    /// Records a packet handed back by the delivery drain.
    pub fn note_delivered(&mut self, uid: u64, now: Cycle) {
        self.delivered += 1;
        if self.tracked.remove(&uid).is_none() {
            self.violation(
                now,
                format_args!("packet uid {uid} delivered but never offered (or delivered twice)"),
            );
        }
    }

    /// Runs every invariant against the network's end-of-cycle state.
    pub fn audit_cycle(&mut self, net: &Network) {
        let now = net.now();
        self.check_packets(net, now);
        self.check_credits(net, now);
        self.check_holds(net, now);
        self.check_wake_lists(net, now);
        self.check_allocation_state(net, now);
        self.report.checked_cycles += 1;
    }

    /// Packet conservation: offered = in-flight + delivered, nothing
    /// vanishes, nothing outlives the age bound.
    fn check_packets(&mut self, net: &Network, now: Cycle) {
        let mut untracked: Vec<u64> = Vec::new();
        let mut over_age: Vec<u64> = Vec::new();
        for p in net.arena.iter_live() {
            match self.tracked.get_mut(&p.uid) {
                Some(t) => {
                    t.last_seen = now;
                    if !t.over_age_reported && now.saturating_sub(t.offered_at) > self.cfg.max_age {
                        t.over_age_reported = true;
                        over_age.push(p.uid);
                    }
                }
                // Tag acks are generated and consumed inside the
                // network and never pass through `inject`.
                None if p.kind == PacketKind::TagAck => {}
                None => untracked.push(p.uid),
            }
        }
        for uid in untracked {
            self.violation(
                now,
                format_args!("live packet uid {uid} was never offered to inject"),
            );
        }
        for uid in over_age {
            let age = self.cfg.max_age;
            self.violation(
                now,
                format_args!("packet uid {uid} alive past the {age}-cycle age bound"),
            );
        }
        let vanished: Vec<u64> = self
            .tracked
            .iter()
            .filter(|(_, t)| t.last_seen != now)
            .map(|(&uid, _)| uid)
            .collect();
        for uid in vanished {
            self.tracked.remove(&uid);
            self.violation(
                now,
                format_args!("packet uid {uid} vanished without being delivered"),
            );
        }
        if self.offered != self.delivered + self.tracked.len() as u64 {
            let (o, d, l) = (self.offered, self.delivered, self.tracked.len());
            self.violation(
                now,
                format_args!("conservation broke: offered {o} != delivered {d} + in-flight {l}"),
            );
        }
    }

    /// Credit/flit conservation: on every link the upstream credits
    /// plus downstream occupancy equal the buffer depth, and the
    /// routers' buffered-flit caches are exact.
    fn check_credits(&mut self, net: &Network, now: Cycle) {
        let mesh = net.mesh();
        let depth = net.params().noc.vc_depth;
        let ws = net.workspace();
        for (idx, r) in net.routers.iter().enumerate() {
            let vcs = r.vcs();
            let coord = r.coord();
            for dir in Direction::ALL {
                for vc in 0..vcs {
                    let credits = r.credits(ws, dir, vc) as usize;
                    let (occupied, what) = if dir == Direction::Local {
                        (net.nics[idx].eject_depth(vc), "NI ejection")
                    } else {
                        match mesh.neighbour(coord, dir) {
                            Some(nb) => {
                                let d = ws.vc(net.ridx(nb), dir.arrival_port().port(), vc);
                                (d.len(), "link")
                            }
                            None => (0, "edge"),
                        }
                    };
                    if credits + occupied != depth {
                        self.violation(
                            now,
                            format_args!(
                                "{what} credit leak at {coord:?} {dir:?} vc {vc}: \
                                 {credits} credits + {occupied} buffered != depth {depth}"
                            ),
                        );
                    }
                }
            }
            // NI injection side of the local port.
            for vc in 0..vcs {
                let credits = net.nics[idx].inject_credits(vc) as usize;
                let occupied = ws.vc(idx, Direction::Local.port(), vc).len();
                if credits + occupied != depth {
                    self.violation(
                        now,
                        format_args!(
                            "NI injection credit leak at {coord:?} vc {vc}: \
                             {credits} credits + {occupied} buffered != depth {depth}"
                        ),
                    );
                }
            }
            let buffered: usize = (0..crate::router::PORTS)
                .flat_map(|p| (0..vcs).map(move |v| (p, v)))
                .map(|(p, v)| ws.vc(idx, p, v).len())
                .sum();
            if buffered != ws.buffered(idx) {
                let cached = ws.buffered(idx);
                self.violation(
                    now,
                    format_args!(
                        "buffered-flit cache at {coord:?} says {cached}, VCs hold {buffered}"
                    ),
                );
            }
        }
    }

    /// Wake-list completeness: no component with work is left off the
    /// list the network visits it from, and no window-based parent
    /// skips a `child_cong` refresh it needs.
    fn check_wake_lists(&mut self, net: &Network, now: Cycle) {
        let ws = net.workspace();
        for (idx, (r, nic)) in net.routers.iter().zip(&net.nics).enumerate() {
            let coord = r.coord();
            let lists = [
                (ws.buffered(idx), &net.router_wake, "flits", "router"),
                (
                    nic.inject_backlog(),
                    &net.nic_inject_wake,
                    "packets to inject",
                    "inject",
                ),
                (
                    nic.eject_buffered(),
                    &net.nic_eject_wake,
                    "ejection flits",
                    "eject",
                ),
                (
                    nic.outbox_len(),
                    &net.nic_deliver_wake,
                    "delivered packets",
                    "delivery",
                ),
            ];
            for (work, list, what, name) in lists {
                if work > 0 && !list.contains(idx) {
                    self.violation(
                        now,
                        format_args!("{coord:?} holds {work} {what} but is off the {name} list"),
                    );
                }
            }
        }
        let EstimatorState::WindowBased(map) = &net.estimator else {
            return;
        };
        for (idx, r) in net.routers.iter().enumerate() {
            if net.wb_dirty.contains(idx) {
                continue;
            }
            let coord = r.coord();
            let Some(wb) = map.get(&coord) else { continue };
            for (c, &have) in r.children().iter().zip(&r.child_cong) {
                let fresh = wb.estimate(c.bank).min(3 * c.base_latency);
                if have != fresh {
                    let bank = c.bank;
                    self.violation(
                        now,
                        format_args!(
                            "WB parent {coord:?} is not marked for refresh but holds \
                             congestion {have} for {bank:?}, fresh estimate {fresh}"
                        ),
                    );
                }
            }
        }
    }

    /// Derived allocation state: the front-ready lane cache and the SA
    /// port masks agree with the lanes and masks they are derived from.
    fn check_allocation_state(&mut self, net: &Network, now: Cycle) {
        let ws = net.workspace();
        for (idx, r) in net.routers.iter().enumerate() {
            let coord = r.coord();
            let (cached, derived) = r.sa_port_masks();
            if cached != derived {
                self.violation(
                    now,
                    format_args!(
                        "SA port mask at {coord:?} is {cached:#09b}, \
                         its sa_mask words imply {derived:#09b}"
                    ),
                );
            }
            if ws.buffered(idx) == 0 {
                continue;
            }
            let base = ws.router_base(idx);
            for flat in 0..crate::router::PORTS * r.vcs() {
                let lane = base + flat;
                if !ws.front_ready_is_exact(lane) {
                    let (port, vc) = (flat / r.vcs(), flat % r.vcs());
                    let cached = ws.front_ready_at(lane);
                    let ring = ws.flit_at(lane, 0).ready_at;
                    self.violation(
                        now,
                        format_args!(
                            "front-ready cache at {coord:?} port {port} vc {vc} says \
                             {cached}, front flit is ready at {ring}"
                        ),
                    );
                }
            }
        }
    }

    /// Hold work-conservation: a held packet with an open escape route
    /// must be released by `max_hold`, and never while its target bank
    /// is predicted idle at the packet's arrival.
    fn check_holds(&mut self, net: &Network, now: Cycle) {
        let vcs = net.params().noc.vcs_per_port;
        let needed = net.routers.len() * crate::router::PORTS * vcs;
        if self.strikes.len() != needed {
            self.strikes = vec![(0, 0); needed];
        }
        let max_hold = net.params().max_hold;
        let hold_slack = net.params().hold_slack;
        let ws = net.workspace();
        let mut found: Vec<(usize, String)> = Vec::new();
        for (idx, r) in net.routers.iter().enumerate() {
            if r.children().is_empty() {
                continue;
            }
            for port in 0..crate::router::PORTS {
                for vc in 0..vcs {
                    let flat = (idx * crate::router::PORTS + port) * vcs + vc;
                    let q = ws.vc(idx, port, vc);
                    let (Some(since), Some(front)) = (q.held_since(), q.front()) else {
                        self.strikes[flat] = (0, 0);
                        continue;
                    };
                    let packet = net.arena.get(front.packet);
                    let (Some(bank), Some(arrival)) = (
                        packet.dest_bank(net.mesh()),
                        packet
                            .dest_bank(net.mesh())
                            .and_then(|b| r.arrival_estimate(b)),
                    ) else {
                        self.strikes[flat] = (0, 0);
                        continue;
                    };
                    let age = now.saturating_sub(since);
                    let over_limit = age >= max_hold;
                    let bank_idle = !r
                        .busy
                        .would_queue_with_slack(bank, now, arrival, hold_slack);
                    if !over_limit && !bank_idle {
                        // Legitimately held: the bank is still
                        // predicted busy and the cap is not reached.
                        self.strikes[flat] = (0, 0);
                        continue;
                    }
                    // The policy wants this packet released; that is
                    // only a violation while allocation could in fact
                    // proceed (flit ready, free credited VC towards
                    // its route).
                    let dir = net.wiring.routing.next_hop(r.coord(), packet);
                    let range = packet.kind.class().vc_range(vcs);
                    let escape = front.ready_at <= now && r.has_free_credited_vc(ws, dir, range);
                    if !escape {
                        self.strikes[flat] = (0, 0);
                        continue;
                    }
                    let uid = packet.uid;
                    let (held_uid, n) = self.strikes[flat];
                    let n = if held_uid == uid { n + 1 } else { 1 };
                    if n >= self.cfg.hold_strike_limit {
                        self.strikes[flat] = (uid, 0);
                        let coord = r.coord();
                        let what = if over_limit {
                            format!("held past max_hold {max_hold} (age {age})")
                        } else {
                            format!("held while bank {bank:?} is predicted idle")
                        };
                        found.push((
                            flat,
                            format!(
                                "packet uid {uid} at parent {coord:?} port {port} vc {vc} {what} \
                                 with a free output VC for {n} cycles"
                            ),
                        ));
                    } else {
                        self.strikes[flat] = (uid, n);
                    }
                }
            }
        }
        for (_, msg) in found {
            self.violation(now, format_args!("{msg}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_collects_instead_of_panicking() {
        let cfg = AuditConfig::default();
        assert!(!cfg.panic_on_violation);
        assert!(cfg.max_age > 0 && cfg.hold_strike_limit > 0);
    }

    #[test]
    fn report_counts_and_caps_samples() {
        let mut a = NetAuditor::new(AuditConfig::default());
        for uid in 0..40 {
            // Deliveries that were never offered are violations.
            a.note_delivered(uid, 5);
        }
        assert_eq!(a.report().violations, 40);
        assert_eq!(a.report().samples.len(), AuditReport::SAMPLE_CAP);
        assert!(!a.report().clean());
    }

    #[test]
    fn offer_then_deliver_is_clean() {
        let mut a = NetAuditor::new(AuditConfig::default());
        a.note_offered(1, 0);
        a.note_offered(2, 1);
        a.note_delivered(1, 10);
        a.note_delivered(2, 11);
        assert_eq!(a.report().violations, 0);
    }

    #[test]
    #[should_panic(expected = "NoC audit violation")]
    fn panic_mode_aborts_on_first_violation() {
        let mut a = NetAuditor::new(AuditConfig {
            panic_on_violation: true,
            ..AuditConfig::default()
        });
        a.note_delivered(7, 3);
    }
}
