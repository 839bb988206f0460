//! Time-series NoC instrumentation (telemetry).
//!
//! The evaluation figures are end-of-run aggregates; this module
//! records *where* the time goes while a run is in flight, without
//! perturbing it:
//!
//! * **Per-epoch time series** — every [`TelemetryConfig::epoch`]
//!   cycles the collector samples router/link utilization, per-VC
//!   occupancy, the flits buffered at the wide region TSBs, the
//!   busy-table busy fraction across parent routers and the
//!   delivered/held-cycle deltas ([`EpochRow`]).
//! * **Latency histograms** — log2-bucketed end-to-end latency per
//!   traffic class and per hop count, plus the distribution of parent
//!   hold delays and the signed window-based estimator error.
//! * **Flit trace** — a bounded ring of [`TraceEvent`]s (inject, VC
//!   allocation, switch traversal, ejection, delivery) with cycle
//!   stamps, serializable as JSONL, sufficient to replay the life of
//!   the packets it retains.
//!
//! The collector follows the [`crate::audit::NetAuditor`] pattern: it
//! is `Option<Box<_>>` off the hot state in [`crate::Network`], wired
//! through [`crate::NetworkParams::telemetry`] or
//! [`crate::Network::enable_telemetry`]. When it is `None` — the
//! default — every hook is a single branch on a cold pointer and the
//! simulation is byte-identical to an uninstrumented build.

use crate::packet::TrafficClass;
use crate::router::{Router, PORTS};
use crate::workspace::NocWorkspace;
use snoc_common::geom::{Coord, Direction, Layer};
use snoc_common::stats::{Accumulator, Histogram};
use snoc_common::Cycle;

/// Log2 bucket upper edges for end-to-end latency histograms.
pub const LATENCY_EDGES: [u64; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Log2 bucket upper edges for parent hold-delay histograms.
pub const HOLD_EDGES: [u64; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Hop counts tracked with their own latency histogram; longer paths
/// fold into the last slot.
pub const MAX_TRACKED_HOPS: usize = 16;

/// Configuration of the telemetry collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Cycles between time-series samples.
    pub epoch: Cycle,
    /// Flit-trace ring capacity in events (0 disables the trace).
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            epoch: 64,
            trace_capacity: 4096,
        }
    }
}

/// Which lifecycle point a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStage {
    /// The packet entered its source NI injection queue.
    Inject,
    /// A router granted the head flit an output VC (VC allocation).
    VcAlloc,
    /// Flits crossed a router's crossbar onto an outbound link.
    Switch,
    /// Flits crossed the crossbar into the local ejection port.
    Eject,
    /// The assembled packet left the destination NI outbox.
    Deliver,
}

impl TraceStage {
    /// Stable lowercase name used in the JSONL rendering.
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::Inject => "inject",
            TraceStage::VcAlloc => "va",
            TraceStage::Switch => "switch",
            TraceStage::Eject => "eject",
            TraceStage::Deliver => "deliver",
        }
    }
}

fn dir_name(dir: Direction) -> &'static str {
    match dir {
        Direction::East => "east",
        Direction::West => "west",
        Direction::North => "north",
        Direction::South => "south",
        Direction::Down => "down",
        Direction::Up => "up",
        Direction::Local => "local",
    }
}

/// One flit-level event in the bounded trace ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event happened.
    pub cycle: Cycle,
    /// The packet's monotonic lifetime identity ([`crate::Packet::uid`]).
    pub uid: u64,
    /// Lifecycle point.
    pub stage: TraceStage,
    /// Where it happened.
    pub at: Coord,
    /// Outbound direction (or [`Direction::Local`] at endpoints).
    pub dir: Direction,
    /// The VC involved (output VC for VA/switch, 0 at endpoints).
    pub vc: u8,
}

impl TraceEvent {
    /// One JSON object, the line format of the trace file.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cycle\":{},\"uid\":{},\"stage\":\"{}\",\"x\":{},\"y\":{},\"layer\":\"{}\",\"dir\":\"{}\",\"vc\":{}}}",
            self.cycle,
            self.uid,
            self.stage.name(),
            self.at.x,
            self.at.y,
            if self.at.layer == Layer::Core { "core" } else { "cache" },
            dir_name(self.dir),
            self.vc,
        )
    }
}

/// One time-series sample, taken every [`TelemetryConfig::epoch`]
/// cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRow {
    /// Cycle the sample was taken.
    pub cycle: Cycle,
    /// Packets in flight (injected or queued, not yet consumed).
    pub in_flight: usize,
    /// Flits buffered across all routers.
    pub buffered: usize,
    /// Flits buffered at routers whose Down port is a wide region TSB.
    pub tsb_buffered: usize,
    /// Fraction of child banks their parents predict busy right now.
    pub busy_frac: f64,
    /// Packets delivered since the previous sample.
    pub delivered_delta: u64,
    /// Hold cycles accumulated at parents since the previous sample.
    pub held_cycles_delta: u64,
}

fn class_slot(class: TrafficClass) -> usize {
    match class {
        TrafficClass::Request => 0,
        TrafficClass::Coherence => 1,
        TrafficClass::Response => 2,
    }
}

/// Display names parallel to the class-indexed arrays.
pub const CLASS_NAMES: [&str; 3] = ["request", "coherence", "response"];

/// The per-network telemetry collector.
#[derive(Debug, Clone)]
pub struct NetTelemetry {
    cfg: TelemetryConfig,
    vcs: usize,
    /// Per router: sum of epoch-sampled `occupancy_byte()` values.
    util_sum: Vec<u64>,
    /// Per router: hold delays closed at VA (sum, count).
    hold_sum: Vec<u64>,
    hold_count: Vec<u64>,
    /// Per router: flits sent out of each port (direction-indexed).
    link_flits: Vec<[u64; PORTS]>,
    /// Per VC index: epoch-sampled buffered flits summed over all
    /// routers and ports.
    vc_occ_sum: Vec<u64>,
    epoch_samples: u64,
    class_latency: [Histogram; 3],
    hop_latency: Vec<Histogram>,
    hold_delay: Histogram,
    /// Signed WB estimator error (sample - estimate before the sample).
    estimator_error: Accumulator,
    series: Vec<EpochRow>,
    prev_delivered: u64,
    prev_held_cycles: u64,
    trace: Vec<TraceEvent>,
    trace_head: usize,
    trace_dropped: u64,
}

impl NetTelemetry {
    /// Creates an empty collector for `routers` routers with `vcs` VCs
    /// per port.
    pub fn new(cfg: TelemetryConfig, routers: usize, vcs: usize) -> Self {
        Self {
            cfg,
            vcs,
            util_sum: vec![0; routers],
            hold_sum: vec![0; routers],
            hold_count: vec![0; routers],
            link_flits: vec![[0; PORTS]; routers],
            vc_occ_sum: vec![0; vcs],
            epoch_samples: 0,
            class_latency: std::array::from_fn(|_| Histogram::new(&LATENCY_EDGES)),
            hop_latency: (0..MAX_TRACKED_HOPS)
                .map(|_| Histogram::new(&LATENCY_EDGES))
                .collect(),
            hold_delay: Histogram::new(&HOLD_EDGES),
            estimator_error: Accumulator::new(),
            series: Vec::new(),
            prev_delivered: 0,
            prev_held_cycles: 0,
            trace: Vec::with_capacity(cfg.trace_capacity.min(4096)),
            trace_head: 0,
            trace_dropped: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    fn push_trace(&mut self, event: TraceEvent) {
        if self.cfg.trace_capacity == 0 {
            return;
        }
        if self.trace.len() < self.cfg.trace_capacity {
            self.trace.push(event);
        } else {
            // Overwrite the oldest event; `trace_head` is the ring's
            // logical start.
            self.trace[self.trace_head] = event;
            self.trace_head = (self.trace_head + 1) % self.trace.len();
            self.trace_dropped += 1;
        }
    }

    /// A packet entered its source NI.
    pub fn note_inject(&mut self, uid: u64, at: Coord, cycle: Cycle) {
        self.push_trace(TraceEvent {
            cycle,
            uid,
            stage: TraceStage::Inject,
            at,
            dir: Direction::Local,
            vc: 0,
        });
    }

    /// A router granted an output VC to a head flit.
    pub fn note_va(&mut self, uid: u64, at: Coord, dir: Direction, vc: u8, cycle: Cycle) {
        self.push_trace(TraceEvent {
            cycle,
            uid,
            stage: TraceStage::VcAlloc,
            at,
            dir,
            vc,
        });
    }

    /// A VA grant closed a bank-aware hold of `delay` cycles at
    /// `router`.
    pub fn note_hold(&mut self, router: usize, delay: Cycle) {
        self.hold_sum[router] += delay;
        self.hold_count[router] += 1;
        self.hold_delay.record(delay);
    }

    /// `nflits` flits left `router` through `dir` (crossbar traversal;
    /// `dir == Local` is ejection into the NI).
    #[allow(clippy::too_many_arguments)]
    pub fn note_link(
        &mut self,
        router: usize,
        at: Coord,
        uid: u64,
        dir: Direction,
        vc: u8,
        nflits: u8,
        cycle: Cycle,
    ) {
        self.link_flits[router][dir.port()] += nflits as u64;
        let stage = if dir == Direction::Local {
            TraceStage::Eject
        } else {
            TraceStage::Switch
        };
        self.push_trace(TraceEvent {
            cycle,
            uid,
            stage,
            at,
            dir,
            vc,
        });
    }

    /// An assembled packet left the destination outbox.
    pub fn note_deliver(
        &mut self,
        uid: u64,
        at: Coord,
        class: TrafficClass,
        hops: u32,
        latency: Cycle,
        cycle: Cycle,
    ) {
        self.class_latency[class_slot(class)].record(latency);
        let slot = (hops as usize).min(MAX_TRACKED_HOPS - 1);
        self.hop_latency[slot].record(latency);
        self.push_trace(TraceEvent {
            cycle,
            uid,
            stage: TraceStage::Deliver,
            at,
            dir: Direction::Local,
            vc: 0,
        });
    }

    /// The window-based estimator closed a congestion sample; `before`
    /// is the smoothed estimate it was about to update.
    pub fn note_estimator(&mut self, before: Cycle, sample: Cycle) {
        self.estimator_error.record(sample as f64 - before as f64);
    }

    /// End-of-cycle hook: samples the time series on epoch boundaries.
    /// `wide_down[i]` marks routers whose Down port is a wide TSB.
    pub fn on_cycle_end(
        &mut self,
        now: Cycle,
        routers: &[Router],
        ws: &NocWorkspace,
        in_flight: usize,
        delivered: u64,
        wide_down: &[bool],
    ) {
        if self.cfg.epoch == 0 || !now.is_multiple_of(self.cfg.epoch) {
            return;
        }
        self.epoch_samples += 1;
        let mut buffered = 0;
        let mut tsb_buffered = 0;
        let mut busy = 0usize;
        let mut children = 0usize;
        let mut held_cycles = 0u64;
        for (i, r) in routers.iter().enumerate() {
            self.util_sum[i] += ws.occupancy_byte(i) as u64;
            buffered += ws.buffered(i);
            if wide_down[i] {
                tsb_buffered += ws.buffered(i);
            }
            if !r.children().is_empty() {
                busy += r.busy.busy_now(now);
                children += r.children().len();
            }
            held_cycles += r.stats.held_cycles;
            for port in 0..PORTS {
                for (vc, sum) in self.vc_occ_sum.iter_mut().enumerate() {
                    *sum += ws.vc(i, port, vc).len() as u64;
                }
            }
        }
        let busy_frac = if children == 0 {
            0.0
        } else {
            busy as f64 / children as f64
        };
        self.series.push(EpochRow {
            cycle: now,
            in_flight,
            buffered,
            tsb_buffered,
            busy_frac,
            delivered_delta: delivered - self.prev_delivered,
            held_cycles_delta: held_cycles.saturating_sub(self.prev_held_cycles),
        });
        self.prev_delivered = delivered;
        self.prev_held_cycles = held_cycles;
    }

    /// Clears all collected data (end of warm-up), keeping the
    /// configuration.
    pub fn reset(&mut self) {
        let cfg = self.cfg;
        let (routers, vcs) = (self.util_sum.len(), self.vcs);
        *self = Self::new(cfg, routers, vcs);
    }

    /// Freezes the collected data into an owned summary.
    pub fn summary(&self) -> TelemetrySummary {
        let samples = self.epoch_samples.max(1);
        let router_util = self
            .util_sum
            .iter()
            .map(|&s| s as f64 / (samples as f64 * 255.0))
            .collect();
        let router_hold_mean = self
            .hold_sum
            .iter()
            .zip(&self.hold_count)
            .map(|(&s, &n)| if n == 0 { 0.0 } else { s as f64 / n as f64 })
            .collect();
        let vc_occupancy_mean = self
            .vc_occ_sum
            .iter()
            .map(|&s| s as f64 / samples as f64)
            .collect();
        // The ring's logical order is head..end then start..head.
        let mut trace = Vec::with_capacity(self.trace.len());
        trace.extend_from_slice(&self.trace[self.trace_head..]);
        trace.extend_from_slice(&self.trace[..self.trace_head]);
        TelemetrySummary {
            epoch: self.cfg.epoch,
            epochs_sampled: self.epoch_samples,
            router_util,
            router_hold_mean,
            router_hold_count: self.hold_count.clone(),
            link_flits: self.link_flits.clone(),
            vc_occupancy_mean,
            class_latency: self.class_latency.clone(),
            hop_latency: self.hop_latency.clone(),
            hold_delay: self.hold_delay.clone(),
            estimator_error: self.estimator_error,
            series: self.series.clone(),
            trace,
            trace_dropped: self.trace_dropped,
        }
    }
}

/// The frozen output of a telemetry-instrumented run, attached to the
/// run's metrics. Router-indexed vectors are ordered core layer first,
/// then cache layer, row-major within each layer (the same order as
/// [`crate::Network::routers`]).
#[derive(Debug, Clone)]
pub struct TelemetrySummary {
    /// Sampling period of the time series.
    pub epoch: Cycle,
    /// Number of time-series samples taken.
    pub epochs_sampled: u64,
    /// Mean buffer occupancy per router as a 0..=1 fraction.
    pub router_util: Vec<f64>,
    /// Mean bank-aware hold delay per router (0 where nothing held).
    pub router_hold_mean: Vec<f64>,
    /// Holds closed per router.
    pub router_hold_count: Vec<u64>,
    /// Flits sent per router per output port (direction-indexed).
    pub link_flits: Vec<[u64; PORTS]>,
    /// Mean buffered flits per VC index, summed over routers and ports.
    pub vc_occupancy_mean: Vec<f64>,
    /// End-to-end latency per traffic class ([`CLASS_NAMES`] order).
    pub class_latency: [Histogram; 3],
    /// End-to-end latency per hop count (last slot = longer).
    pub hop_latency: Vec<Histogram>,
    /// Distribution of bank-aware hold delays.
    pub hold_delay: Histogram,
    /// Signed window-based estimator error (sample - prior estimate).
    pub estimator_error: Accumulator,
    /// The per-epoch time series.
    pub series: Vec<EpochRow>,
    /// Retained trace events, oldest first.
    pub trace: Vec<TraceEvent>,
    /// Events evicted from the ring after it filled.
    pub trace_dropped: u64,
}

impl TelemetrySummary {
    /// The trace as JSON lines, oldest event first.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.trace {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Mean busy-table busy fraction over the time series.
    pub fn mean_busy_frac(&self) -> f64 {
        if self.series.is_empty() {
            return 0.0;
        }
        self.series.iter().map(|r| r.busy_frac).sum::<f64>() / self.series.len() as f64
    }

    /// One-line digest for observers.
    pub fn digest(&self) -> String {
        format!(
            "epochs={} delivered={} trace_events={} trace_dropped={} mean_busy_frac={:.3} est_err_mean={:.2} holds={}",
            self.epochs_sampled,
            self.class_latency.iter().map(Histogram::total).sum::<u64>(),
            self.trace.len(),
            self.trace_dropped,
            self.mean_busy_frac(),
            self.estimator_error.mean(),
            self.hold_delay.total(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at() -> Coord {
        Coord::new(1, 2, Layer::Cache)
    }

    #[test]
    fn trace_ring_keeps_the_newest_events_in_order() {
        let cfg = TelemetryConfig {
            epoch: 64,
            trace_capacity: 4,
        };
        let mut t = NetTelemetry::new(cfg, 2, 6);
        for uid in 0..10 {
            t.note_inject(uid, at(), uid);
        }
        let s = t.summary();
        assert_eq!(s.trace_dropped, 6);
        let uids: Vec<u64> = s.trace.iter().map(|e| e.uid).collect();
        assert_eq!(uids, vec![6, 7, 8, 9], "oldest-first, newest retained");
    }

    #[test]
    fn zero_capacity_disables_the_trace() {
        let cfg = TelemetryConfig {
            epoch: 64,
            trace_capacity: 0,
        };
        let mut t = NetTelemetry::new(cfg, 1, 6);
        t.note_inject(1, at(), 0);
        let s = t.summary();
        assert!(s.trace.is_empty());
        assert_eq!(s.trace_dropped, 0);
    }

    #[test]
    fn latency_lands_in_class_and_hop_histograms() {
        let mut t = NetTelemetry::new(TelemetryConfig::default(), 1, 6);
        t.note_deliver(1, at(), TrafficClass::Request, 3, 37, 100);
        t.note_deliver(2, at(), TrafficClass::Response, 99, 37, 101);
        let s = t.summary();
        assert_eq!(s.class_latency[0].total(), 1);
        assert_eq!(s.class_latency[2].total(), 1);
        assert_eq!(s.hop_latency[3].total(), 1);
        assert_eq!(
            s.hop_latency[MAX_TRACKED_HOPS - 1].total(),
            1,
            "overlong paths fold into the last slot"
        );
    }

    #[test]
    fn hold_and_estimator_samples_aggregate() {
        let mut t = NetTelemetry::new(TelemetryConfig::default(), 3, 6);
        t.note_hold(1, 10);
        t.note_hold(1, 30);
        t.note_estimator(5, 9);
        t.note_estimator(9, 5);
        let s = t.summary();
        assert_eq!(s.router_hold_count, vec![0, 2, 0]);
        assert_eq!(s.router_hold_mean[1], 20.0);
        assert_eq!(s.hold_delay.total(), 2);
        assert_eq!(s.estimator_error.count(), 2);
        assert_eq!(s.estimator_error.sum(), 0.0, "+4 then -4");
    }

    #[test]
    fn trace_event_json_shape() {
        let e = TraceEvent {
            cycle: 12,
            uid: 34,
            stage: TraceStage::Switch,
            at: Coord::new(5, 6, Layer::Core),
            dir: Direction::East,
            vc: 2,
        };
        assert_eq!(
            e.to_json(),
            "{\"cycle\":12,\"uid\":34,\"stage\":\"switch\",\"x\":5,\"y\":6,\"layer\":\"core\",\"dir\":\"east\",\"vc\":2}"
        );
    }

    #[test]
    fn default_shapes() {
        assert_eq!(TelemetryConfig::default().epoch, 64);
        assert_eq!(TelemetryConfig::default().trace_capacity, 4096);
    }

    #[test]
    fn reset_clears_data_but_keeps_config() {
        let cfg = TelemetryConfig {
            epoch: 32,
            trace_capacity: 8,
        };
        let mut t = NetTelemetry::new(cfg, 2, 6);
        t.note_inject(1, at(), 0);
        t.note_hold(0, 5);
        t.reset();
        assert_eq!(t.config(), cfg);
        let s = t.summary();
        assert!(s.trace.is_empty());
        assert_eq!(s.hold_delay.total(), 0);
        assert_eq!(s.epochs_sampled, 0);
    }

    #[test]
    fn note_link_uses_eject_stage_on_the_local_port() {
        let mut t = NetTelemetry::new(TelemetryConfig::default(), 2, 6);
        t.note_link(0, at(), 7, Direction::Local, 1, 2, 50);
        t.note_link(1, at(), 8, Direction::Up, 3, 1, 51);
        let s = t.summary();
        assert_eq!(s.link_flits[0][Direction::Local.port()], 2);
        assert_eq!(s.link_flits[1][Direction::Up.port()], 1);
        assert_eq!(s.trace[0].stage, TraceStage::Eject);
        assert_eq!(s.trace[1].stage, TraceStage::Switch);
    }
}
