//! Bank service timing: the FIFO request queue in front of each L2
//! bank, the array's read/write occupancy, the optional BUFF-20 write
//! buffer, and the instrumentation behind Figures 3, 7 and 14.

use crate::write_buffer::{BufferedWrite, WriteBuffer};
use snoc_common::config::WriteBufferConfig;
use snoc_common::stats::{Accumulator, Histogram};
use snoc_common::Cycle;
use std::collections::VecDeque;

/// The array operation a job performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankOp {
    /// Tag+data read (GetS/GetM service): 3 cycles.
    Read,
    /// Full-block write (writeback or fill): 3 cycles SRAM, 33 cycles
    /// STT-RAM.
    Write,
}

/// One queued bank access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankJob {
    /// Operation.
    pub op: BankOp,
    /// Caller correlation token.
    pub token: u64,
    /// Block-aligned address.
    pub addr: u64,
    /// Arrival cycle at the bank.
    pub arrived: Cycle,
}

/// A finished bank access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The job that finished.
    pub job: BankJob,
    /// Cycle service began.
    pub started: Cycle,
    /// Cycle service finished (reply may be sent now).
    pub finished: Cycle,
}

#[derive(Debug, Clone, Copy)]
enum Running {
    /// Serving a queued job; `emits` is false when the completion was
    /// already delivered early (write replies).
    Job(BankJob, bool),
    /// Draining a buffered write into the array.
    Drain(BufferedWrite),
}

/// Bank-level statistics.
#[derive(Debug, Clone)]
pub struct BankStats {
    /// Reads serviced.
    pub reads: u64,
    /// Writes serviced (array writes plus buffer absorptions).
    pub writes: u64,
    /// Queue wait per job (arrival to service start).
    pub queue_wait: Accumulator,
    /// Cycles the array was occupied.
    pub busy_cycles: u64,
    /// Figure 3: distribution of arrival gaps after a write arrival.
    pub post_write_gaps: Histogram,
    /// Arrivals that landed within the write service time of the
    /// preceding write (the "delayable" requests).
    pub arrivals_behind_write: u64,
    /// All arrivals that followed some write.
    pub arrivals_after_write: u64,
}

impl Default for BankStats {
    fn default() -> Self {
        Self {
            reads: 0,
            writes: 0,
            queue_wait: Accumulator::new(),
            busy_cycles: 0,
            post_write_gaps: Histogram::fig3(),
            arrivals_behind_write: 0,
            arrivals_after_write: 0,
        }
    }
}

/// The timing controller of one L2 bank.
#[derive(Debug)]
pub struct BankController {
    read_latency: Cycle,
    write_latency: Cycle,
    queue: VecDeque<BankJob>,
    running: Option<(Running, Cycle, Cycle)>, // (what, started, finishes)
    /// Early write replies: the requester is released as soon as the
    /// data is latched (read-latency), while the array stays occupied
    /// for the full write latency.
    early_replies: Vec<(Cycle, Completion)>,
    wbuf: Option<WriteBuffer>,
    wbuf_cfg: Option<WriteBufferConfig>,
    last_write_arrival: Option<Cycle>,
    /// Statistics.
    pub stats: BankStats,
}

impl BankController {
    /// Creates a controller with the given array latencies and an
    /// optional write buffer.
    pub fn new(
        read_latency: Cycle,
        write_latency: Cycle,
        write_buffer: Option<WriteBufferConfig>,
    ) -> Self {
        Self {
            read_latency,
            write_latency,
            queue: VecDeque::new(),
            running: None,
            early_replies: Vec::new(),
            wbuf: write_buffer.map(|c| WriteBuffer::new(c.entries)),
            wbuf_cfg: write_buffer,
            last_write_arrival: None,
            stats: BankStats::default(),
        }
    }

    /// Clears the statistics (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = BankStats::default();
    }

    /// `true` while the array is occupied.
    pub fn busy(&self) -> bool {
        self.running.is_some()
    }

    /// `true` when [`BankController::tick`] has nothing to do: no job
    /// running or queued, no early reply waiting, and no write
    /// buffered. Ticking an idle controller returns nothing and
    /// changes no state.
    pub fn is_idle(&self) -> bool {
        self.running.is_none()
            && self.queue.is_empty()
            && self.early_replies.is_empty()
            && self.wbuf.as_ref().is_none_or(WriteBuffer::is_empty)
    }

    /// Queued jobs not yet started.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The write buffer, if configured.
    pub fn write_buffer(&self) -> Option<&WriteBuffer> {
        self.wbuf.as_ref()
    }

    /// Accepts a job, recording the Figure 3 arrival-gap sample.
    pub fn enqueue(&mut self, job: BankJob, now: Cycle) {
        if let Some(t) = self.last_write_arrival {
            let gap = now.saturating_sub(t);
            self.stats.post_write_gaps.record(gap);
            self.stats.arrivals_after_write += 1;
            if gap < self.write_latency {
                self.stats.arrivals_behind_write += 1;
            }
        }
        if job.op == BankOp::Write {
            self.last_write_arrival = Some(now);
        }
        self.queue.push_back(job);
    }

    fn detect_cycles(&self) -> Cycle {
        self.wbuf_cfg.map(|c| c.detect_cycles).unwrap_or(0)
    }

    /// Advances one cycle; returns completions ready at `now`.
    pub fn tick(&mut self, now: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        if self.running.is_some() {
            self.stats.busy_cycles += 1;
        }

        // Release early write replies whose data has been latched.
        let mut i = 0;
        while i < self.early_replies.len() {
            if self.early_replies[i].0 <= now {
                done.push(self.early_replies.swap_remove(i).1);
            } else {
                i += 1;
            }
        }

        // Finish the current occupancy.
        if let Some((what, started, finishes)) = self.running {
            if now >= finishes {
                self.running = None;
                if let Running::Job(job, emits) = what {
                    if emits {
                        done.push(Completion {
                            job,
                            started,
                            finished: now,
                        });
                    }
                }
            }
        }

        // Read preemption (BUFF-20): a waiting read aborts an
        // in-progress drain write.
        if let (Some((Running::Drain(entry), _, _)), Some(cfg)) = (self.running, self.wbuf_cfg) {
            if cfg.read_preemption && self.queue.front().map(|j| j.op) == Some(BankOp::Read) {
                self.wbuf
                    .as_mut()
                    .expect("drain implies a buffer")
                    .abort_drain(entry);
                self.running = None;
            }
        }

        // Start the next piece of work.
        if self.running.is_none() {
            if let Some(job) = self.queue.pop_front() {
                let wait = now.saturating_sub(job.arrived);
                self.stats.queue_wait.record(wait as f64);
                let detect = self.detect_cycles();
                match job.op {
                    BankOp::Read => {
                        self.stats.reads += 1;
                        // The buffer is searched in parallel with the
                        // array; either way the read costs the array
                        // read latency plus the detection overhead.
                        if let Some(b) = self.wbuf.as_mut() {
                            b.read_probe(job.addr);
                        }
                        let t = detect + self.read_latency;
                        self.running = Some((Running::Job(job, true), now, now + t));
                    }
                    BankOp::Write => {
                        self.stats.writes += 1;
                        let absorbed = self
                            .wbuf
                            .as_mut()
                            .map(|b| b.absorb(job.addr))
                            .unwrap_or(false);
                        if absorbed {
                            // SRAM-speed buffer insertion.
                            let t = detect + self.read_latency;
                            self.running = Some((Running::Job(job, true), now, now + t));
                        } else {
                            // The requester is released once the data
                            // is latched; the MTJ switching occupies
                            // the array for the full write latency.
                            let reply = detect + self.read_latency;
                            let occupy = detect + self.write_latency;
                            self.early_replies.push((
                                now + reply,
                                Completion {
                                    job,
                                    started: now,
                                    finished: now + reply,
                                },
                            ));
                            self.running = Some((Running::Job(job, false), now, now + occupy));
                        }
                    }
                }
            } else if let Some(b) = self.wbuf.as_mut() {
                // Idle bank: drain one buffered write into the array.
                if let Some(entry) = b.start_drain() {
                    self.running = Some((Running::Drain(entry), now, now + self.write_latency));
                }
            }
        }
        done
    }

    /// Drains everything (test helper): ticks until idle, collecting
    /// completions, bounded by `limit` cycles.
    pub fn run_until_idle(&mut self, mut now: Cycle, limit: u64) -> (Vec<Completion>, Cycle) {
        let mut all = Vec::new();
        for _ in 0..limit {
            all.extend(self.tick(now));
            if self.is_idle() {
                break;
            }
            now += 1;
        }
        (all, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(op: BankOp, token: u64, arrived: Cycle) -> BankJob {
        BankJob {
            op,
            token,
            addr: token * 128,
            arrived,
        }
    }

    fn stt() -> BankController {
        BankController::new(3, 33, None)
    }

    fn buffered() -> BankController {
        BankController::new(3, 33, Some(WriteBufferConfig::default()))
    }

    #[test]
    fn read_takes_three_cycles() {
        let mut b = stt();
        b.enqueue(job(BankOp::Read, 1, 0), 0);
        let (done, _) = b.run_until_idle(0, 100);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finished - done[0].started, 3);
    }

    #[test]
    fn write_occupies_the_bank_for_33_cycles() {
        let mut b = stt();
        b.enqueue(job(BankOp::Write, 1, 0), 0);
        b.enqueue(job(BankOp::Read, 2, 1), 1);
        let (done, _) = b.run_until_idle(0, 100);
        assert_eq!(done.len(), 2);
        // The writer is released once the data is latched...
        assert_eq!(done[0].finished, 3);
        // ...but the array stays occupied for the 33-cycle MTJ
        // switch, so the read queues behind it.
        assert_eq!(done[1].started, 33);
        assert_eq!(done[1].finished, 36);
        assert!(b.stats.queue_wait.max() >= 32.0);
        assert!(b.stats.busy_cycles >= 33);
    }

    #[test]
    fn sram_bank_writes_fast() {
        let mut b = BankController::new(3, 3, None);
        b.enqueue(job(BankOp::Write, 1, 0), 0);
        let (done, _) = b.run_until_idle(0, 100);
        assert_eq!(done[0].finished, 3);
    }

    #[test]
    fn fig3_gap_histogram_records_arrivals_after_writes() {
        let mut b = stt();
        b.enqueue(job(BankOp::Write, 1, 0), 0);
        b.enqueue(job(BankOp::Read, 2, 10), 10); // gap 10 -> bin "<16"
        b.enqueue(job(BankOp::Read, 3, 40), 40); // gap 40 -> bin "33-66"
        let h = &b.stats.post_write_gaps;
        assert_eq!(h.total(), 2);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[2], 1);
        assert_eq!(
            b.stats.arrivals_behind_write, 1,
            "only the 10-cycle gap is delayable"
        );
        assert_eq!(b.stats.arrivals_after_write, 2);
    }

    #[test]
    fn write_buffer_absorbs_writes_at_sram_speed() {
        let mut b = buffered();
        b.enqueue(job(BankOp::Write, 1, 0), 0);
        b.enqueue(job(BankOp::Read, 2, 1), 1);
        let (done, _) = b.run_until_idle(0, 200);
        // Write completes at detect(1) + 3 = 4, not 33.
        assert_eq!(done[0].finished, 4);
        // The read starts right after, paying the detect cycle too.
        assert_eq!(done[1].finished - done[1].started, 4);
        assert_eq!(b.write_buffer().unwrap().absorbed, 1);
    }

    #[test]
    fn buffer_drains_when_idle() {
        let mut b = buffered();
        b.enqueue(job(BankOp::Write, 1, 0), 0);
        let (_, end) = b.run_until_idle(0, 200);
        // Absorption (4 cycles) + drain write (33).
        assert!(end >= 37, "drain occupies the array: ended at {end}");
        assert!(b.write_buffer().unwrap().is_empty());
        assert_eq!(b.write_buffer().unwrap().drains, 1);
    }

    #[test]
    fn read_preempts_a_drain() {
        let mut b = buffered();
        b.enqueue(job(BankOp::Write, 1, 0), 0);
        // Let the absorb finish and the drain start.
        let mut now = 0;
        let mut completions = Vec::new();
        while now < 10 {
            completions.extend(b.tick(now));
            now += 1;
        }
        assert!(b.busy(), "drain in progress");
        b.enqueue(job(BankOp::Read, 2, now), now);
        let (done, _) = b.run_until_idle(now, 200);
        let read = done.iter().find(|c| c.job.token == 2).unwrap();
        // Without preemption the read would wait for the drain to
        // finish at cycle ~37; with preemption it starts immediately.
        assert!(read.started <= now + 1, "read started at {}", read.started);
        assert_eq!(b.write_buffer().unwrap().preemptions, 1);
        assert!(
            b.write_buffer().unwrap().is_empty(),
            "aborted drain re-drains"
        );
    }

    #[test]
    fn full_buffer_falls_back_to_array_writes() {
        let cfg = WriteBufferConfig {
            entries: 2,
            detect_cycles: 1,
            read_preemption: true,
        };
        let mut b = BankController::new(3, 33, Some(cfg));
        for i in 0..3 {
            b.enqueue(job(BankOp::Write, i, 0), 0);
        }
        let (done, _) = b.run_until_idle(0, 500);
        assert_eq!(done.len(), 3);
        // Third write hits a full buffer: it goes to the array, whose
        // occupancy (1 + 33 cycles) delays anything after it; the
        // writer itself is released at latch speed.
        let third = done.iter().find(|c| c.job.token == 2).unwrap();
        assert_eq!(third.finished - third.started, 4);
        assert_eq!(b.write_buffer().unwrap().overflows, 1);
    }

    #[test]
    fn fifo_order_without_buffer() {
        let mut b = stt();
        for i in 0..4 {
            b.enqueue(job(BankOp::Read, i, 0), 0);
        }
        let (done, _) = b.run_until_idle(0, 100);
        let tokens: Vec<u64> = done.iter().map(|c| c.job.token).collect();
        assert_eq!(tokens, vec![0, 1, 2, 3]);
    }

    #[test]
    fn busy_cycles_accumulate() {
        let mut b = stt();
        b.enqueue(job(BankOp::Write, 1, 0), 0);
        b.run_until_idle(0, 100);
        assert!(b.stats.busy_cycles >= 33);
    }
}
