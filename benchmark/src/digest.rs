//! The per-cell correctness digest: a 128-bit FNV-1a over the cell's
//! simulated outputs.
//!
//! The digest covers `per_core_committed` and every scalar field of
//! [`RunMetrics`], with `f64` values hashed by bit pattern, so any change
//! to simulated behaviour — not just to a rounded figure — changes it.
//! Host-side artefacts (audit, telemetry, fault summaries) and the
//! derived energy/histogram aggregates are not part of it.

use snoc_core::metrics::RunMetrics;

/// The simulated outputs of one cell that the digest covers.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutputs {
    /// Measured cycles.
    pub cycles: u64,
    /// Instructions committed per core in the measurement window.
    pub per_core_committed: Vec<u64>,
    /// Mean request-class network latency (cycles).
    pub net_request_latency: f64,
    /// Mean response-class network latency (cycles).
    pub net_response_latency: f64,
    /// Mean bank queue wait (cycles).
    pub bank_queue_wait: f64,
    /// Mean bank service occupancy per access (cycles).
    pub bank_service: f64,
    /// Mean uncore round trip of L2 reads (cycles).
    pub uncore_rtt: f64,
    /// 95th-percentile uncore round trip (cycles).
    pub uncore_rtt_p95: f64,
    /// Bank read accesses.
    pub bank_reads: u64,
    /// Bank write accesses.
    pub bank_writes: u64,
    /// Memory fetches.
    pub mem_fetches: u64,
    /// Fraction of post-write arrivals within the write service time.
    pub delayable_fraction: f64,
    /// Mean child-bound requests buffered at a parent (H = 2).
    pub child_queue_mean: f64,
    /// The same at H = 1, 2, 3.
    pub queue_mean_by_hops: [f64; 3],
    /// Packets held at parent routers.
    pub held_packets: u64,
    /// Total hold cycles.
    pub held_cycles: u64,
}

impl From<&RunMetrics> for CellOutputs {
    fn from(m: &RunMetrics) -> Self {
        Self {
            cycles: m.cycles,
            per_core_committed: m.per_core_committed.clone(),
            net_request_latency: m.net_request_latency,
            net_response_latency: m.net_response_latency,
            bank_queue_wait: m.bank_queue_wait,
            bank_service: m.bank_service,
            uncore_rtt: m.uncore_rtt,
            uncore_rtt_p95: m.uncore_rtt_p95,
            bank_reads: m.bank_reads,
            bank_writes: m.bank_writes,
            mem_fetches: m.mem_fetches,
            delayable_fraction: m.delayable_fraction,
            child_queue_mean: m.child_queue_mean,
            queue_mean_by_hops: m.queue_mean_by_hops,
            held_packets: m.held_packets,
            held_cycles: m.held_cycles,
        }
    }
}

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

struct Fnv128(u128);

impl Fnv128 {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

impl CellOutputs {
    /// The 128-bit FNV-1a digest of these outputs.
    pub fn digest(&self) -> u128 {
        let mut h = Fnv128(FNV128_OFFSET);
        h.u64(self.cycles);
        h.u64(self.per_core_committed.len() as u64);
        for &c in &self.per_core_committed {
            h.u64(c);
        }
        for v in [
            self.net_request_latency,
            self.net_response_latency,
            self.bank_queue_wait,
            self.bank_service,
            self.uncore_rtt,
            self.uncore_rtt_p95,
        ] {
            h.f64(v);
        }
        for v in [self.bank_reads, self.bank_writes, self.mem_fetches] {
            h.u64(v);
        }
        h.f64(self.delayable_fraction);
        h.f64(self.child_queue_mean);
        for v in self.queue_mean_by_hops {
            h.f64(v);
        }
        h.u64(self.held_packets);
        h.u64(self.held_cycles);
        h.0
    }
}

/// A digest as the 32-digit lower-case hex string the expected files
/// hold.
pub fn hex(d: u128) -> String {
    format!("{d:032x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outputs() -> CellOutputs {
        CellOutputs {
            cycles: 100,
            per_core_committed: vec![1, 2, 3],
            net_request_latency: 1.5,
            net_response_latency: 2.5,
            bank_queue_wait: 0.0,
            bank_service: 3.0,
            uncore_rtt: 40.0,
            uncore_rtt_p95: 80.0,
            bank_reads: 10,
            bank_writes: 5,
            mem_fetches: 1,
            delayable_fraction: 0.25,
            child_queue_mean: 1.0,
            queue_mean_by_hops: [0.5, 1.0, 1.5],
            held_packets: 2,
            held_cycles: 7,
        }
    }

    #[test]
    fn empty_input_hashes_to_the_offset_basis() {
        assert_eq!(Fnv128(FNV128_OFFSET).0, FNV128_OFFSET);
        assert_eq!(hex(FNV128_OFFSET), "6c62272e07bb014262b821756295c58d");
    }

    #[test]
    fn every_field_moves_the_digest() {
        let base = outputs().digest();
        let mut m = outputs();
        m.per_core_committed[2] += 1;
        assert_ne!(m.digest(), base);
        let mut m = outputs();
        m.bank_queue_wait = -0.0;
        assert_ne!(m.digest(), base, "floats hash by bit pattern");
        let mut m = outputs();
        m.held_cycles += 1;
        assert_ne!(m.digest(), base);
        assert_eq!(outputs().digest(), base);
    }
}
