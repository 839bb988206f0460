//! Performance metrics (Section 4.1): IPC, instruction throughput,
//! weighted speedup and maximum slowdown, plus the uncore latency and
//! energy aggregates behind Figures 7, 8 and 14.

use snoc_common::stats::Histogram;
use snoc_energy::EnergyBreakdown;
use snoc_noc::audit::AuditReport;
use snoc_noc::fault::FaultSummary;
use snoc_noc::telemetry::TelemetrySummary;

/// The measured output of one simulation run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Measured cycles (after warm-up).
    pub cycles: u64,
    /// Instructions committed per core during measurement.
    pub per_core_committed: Vec<u64>,
    /// Mean network latency of request packets (cycles).
    pub net_request_latency: f64,
    /// Mean network latency of response packets (cycles).
    pub net_response_latency: f64,
    /// Mean queue wait at the banks (cycles).
    pub bank_queue_wait: f64,
    /// Mean bank service occupancy per access (cycles).
    pub bank_service: f64,
    /// Mean core-to-data-return round trip of L2 reads (cycles).
    pub uncore_rtt: f64,
    /// 95th-percentile round trip (tail latency).
    pub uncore_rtt_p95: f64,
    /// Bank read accesses.
    pub bank_reads: u64,
    /// Bank write accesses.
    pub bank_writes: u64,
    /// Memory fetches.
    pub mem_fetches: u64,
    /// Figure 3: merged post-write arrival-gap histogram.
    pub post_write_gaps: Histogram,
    /// Fraction of post-write arrivals landing within the write
    /// service time (the "delayable" 17%-avg / 27%-max statistic).
    pub delayable_fraction: f64,
    /// Mean child-bound request packets buffered at a parent when a
    /// write is forwarded (Figure 3 inset / Figure 13a).
    pub child_queue_mean: f64,
    /// [`child_queue_mean`](Self::child_queue_mean) resolved at parent
    /// distances H = 1, 2, 3 (Figure 13's sensitivity axis).
    pub queue_mean_by_hops: [f64; 3],
    /// Packets held at parent routers.
    pub held_packets: u64,
    /// Total hold cycles.
    pub held_cycles: u64,
    /// Uncore energy breakdown.
    pub energy: EnergyBreakdown,
    /// NoC invariant audit outcome (`None` unless
    /// [`snoc_noc::NetworkParams::audit`] enabled the auditor).
    pub audit: Option<AuditReport>,
    /// NoC telemetry (`None` unless
    /// [`snoc_noc::NetworkParams::telemetry`] enabled the collector).
    pub telemetry: Option<TelemetrySummary>,
    /// Fault campaign outcome (`None` unless
    /// [`snoc_noc::NetworkParams::faults`] enabled the injector).
    pub faults: Option<FaultSummary>,
}

impl RunMetrics {
    /// IPC of one core.
    pub fn ipc(&self, core: usize) -> f64 {
        self.per_core_committed[core] as f64 / self.cycles.max(1) as f64
    }

    /// Sum of all cores' IPC (Eq. 1).
    pub fn instruction_throughput(&self) -> f64 {
        self.per_core_committed.iter().sum::<u64>() as f64 / self.cycles.max(1) as f64
    }

    /// Mean per-core IPC.
    pub fn avg_ipc(&self) -> f64 {
        self.instruction_throughput() / self.per_core_committed.len().max(1) as f64
    }

    /// The paper reports multi-threaded improvements for the slowest
    /// thread.
    pub fn slowest_ipc(&self) -> f64 {
        (0..self.per_core_committed.len())
            .map(|c| self.ipc(c))
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean IPC over a set of cores (one application of a mix).
    pub fn ipc_of_cores(&self, cores: &[usize]) -> f64 {
        if cores.is_empty() {
            return 0.0;
        }
        cores.iter().map(|&c| self.ipc(c)).sum::<f64>() / cores.len() as f64
    }

    /// Mean uncore (network + bank) one-way latency proxy used by
    /// Figures 7 and 14: request network latency + bank queue + bank
    /// service + response network latency.
    pub fn uncore_latency(&self) -> f64 {
        self.net_request_latency
            + self.bank_queue_wait
            + self.bank_service
            + self.net_response_latency
    }

    /// Total uncore energy in nJ.
    pub fn uncore_energy_nj(&self) -> f64 {
        self.energy.total_nj()
    }
}

/// Weighted speedup (Eq. 2): sum over applications of
/// `IPC_shared / IPC_alone`.
pub fn weighted_speedup(shared: &[f64], alone: &[f64]) -> f64 {
    assert_eq!(shared.len(), alone.len(), "one alone IPC per application");
    shared
        .iter()
        .zip(alone)
        .map(|(&s, &a)| if a > 0.0 { s / a } else { 0.0 })
        .sum()
}

/// Maximum slowdown (Eq. 3): max over applications of
/// `IPC_alone / IPC_shared`.
pub fn max_slowdown(shared: &[f64], alone: &[f64]) -> f64 {
    assert_eq!(shared.len(), alone.len());
    shared
        .iter()
        .zip(alone)
        .map(|(&s, &a)| if s > 0.0 { a / s } else { f64::INFINITY })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(committed: Vec<u64>, cycles: u64) -> RunMetrics {
        RunMetrics {
            cycles,
            per_core_committed: committed,
            net_request_latency: 20.0,
            net_response_latency: 25.0,
            bank_queue_wait: 10.0,
            bank_service: 5.0,
            uncore_rtt: 60.0,
            uncore_rtt_p95: 120.0,
            bank_reads: 100,
            bank_writes: 50,
            mem_fetches: 10,
            post_write_gaps: Histogram::fig3(),
            delayable_fraction: 0.17,
            child_queue_mean: 3.0,
            queue_mean_by_hops: [1.0, 3.0, 5.0],
            held_packets: 5,
            held_cycles: 50,
            energy: EnergyBreakdown::default(),
            audit: None,
            telemetry: None,
            faults: None,
        }
    }

    #[test]
    fn ipc_and_throughput() {
        let m = metrics(vec![1000, 2000], 1000);
        assert_eq!(m.ipc(0), 1.0);
        assert_eq!(m.ipc(1), 2.0);
        assert_eq!(m.instruction_throughput(), 3.0);
        assert_eq!(m.avg_ipc(), 1.5);
        assert_eq!(m.slowest_ipc(), 1.0);
        assert_eq!(m.ipc_of_cores(&[0, 1]), 1.5);
    }

    #[test]
    fn uncore_latency_sums_components() {
        let m = metrics(vec![1], 1);
        assert_eq!(m.uncore_latency(), 60.0);
    }

    #[test]
    fn weighted_speedup_is_count_when_unslowed() {
        let alone = [1.0, 2.0, 0.5];
        assert!((weighted_speedup(&alone, &alone) - 3.0).abs() < 1e-12);
        let half: Vec<f64> = alone.iter().map(|x| x / 2.0).collect();
        assert!((weighted_speedup(&half, &alone) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn max_slowdown_picks_the_worst_app() {
        let alone = [1.0, 1.0];
        let shared = [0.5, 0.25];
        assert_eq!(max_slowdown(&shared, &alone), 4.0);
    }

    #[test]
    fn zero_guards() {
        assert_eq!(weighted_speedup(&[1.0], &[0.0]), 0.0);
        assert_eq!(max_slowdown(&[0.0], &[1.0]), f64::INFINITY);
    }
}
