//! A shared L2 home bank: tag array + directory + MSHRs in front of the
//! timing controller.
//!
//! Two tag modes exist:
//!
//! * [`TagMode::Real`] — a full tag array with MESI directory entries;
//!   misses, forwards, invalidations and writebacks emerge organically.
//! * [`TagMode::Probabilistic`] — no tags; the workload generator
//!   decides hit/miss per request (`forced_miss`), letting experiments
//!   reproduce the paper's Table 3 characterization exactly while the
//!   bank still pays real queueing and service timing.

use crate::array::CacheArray;
use crate::bank_ctrl::{BankController, BankJob, BankOp, BankStats};
use crate::directory::DirEntry;
use crate::mshr::{Allocation, MissKind, MshrFile, Waiter};
use crate::protocol::{BankIn, BankMsg};
use snoc_common::config::{MemConfig, MemTech, WriteBufferConfig};
use snoc_common::ids::{BankId, CoreId};
use snoc_common::Cycle;
use std::collections::{HashMap, VecDeque};

/// Whether the bank tracks real tags or trusts caller-supplied
/// hit/miss decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagMode {
    /// Full tag array + directory.
    Real,
    /// Caller decides hit/miss per request.
    Probabilistic,
}

#[derive(Debug, Clone, Copy)]
enum PendingOp {
    Lookup {
        block: u64,
        from: CoreId,
        kind: MissKind,
        forced_miss: bool,
    },
    PutWrite {
        block: u64,
        from: CoreId,
        txn: Option<u64>,
        spill: bool,
    },
    FillWrite {
        block: u64,
    },
}

#[derive(Debug, Clone)]
struct Txn {
    block: u64,
    fwd_kind: MissKind,
    waiters: Vec<(CoreId, MissKind)>,
}

/// Bank-level protocol statistics (timing statistics live in
/// [`BankStats`]).
#[derive(Debug, Clone, Default)]
pub struct L2Stats {
    /// Memory fetches issued (L2 misses).
    pub fetches: u64,
    /// Memory fills written into the array.
    pub fills: u64,
    /// Dirty home lines written back to memory on eviction.
    pub dirty_evictions: u64,
    /// Invalidations sent to L1 sharers.
    pub invalidations_sent: u64,
    /// Forwards sent to L1 owners.
    pub forwards_sent: u64,
    /// Voluntary PutM writes applied.
    pub putm_writes: u64,
    /// Requests deferred because the MSHR file was full.
    pub deferred: u64,
}

/// One shared L2 home bank.
#[derive(Debug)]
pub struct L2Bank {
    id: BankId,
    mode: TagMode,
    array: CacheArray<DirEntry>,
    ctrl: BankController,
    mshrs: MshrFile,
    txns: HashMap<u64, Txn>,
    next_txn: u64,
    pending: HashMap<u64, PendingOp>,
    next_job: u64,
    deferred: VecDeque<(u64, CoreId, MissKind)>,
    /// Protocol statistics.
    pub stats: L2Stats,
}

impl L2Bank {
    /// Creates bank `id` with technology `tech` (which fixes capacity
    /// and write latency), `cfg` geometry, optional `write_buffer`
    /// (BUFF-20) and the chosen `mode`.
    pub fn new(
        id: BankId,
        cfg: &MemConfig,
        tech: MemTech,
        write_buffer: Option<WriteBufferConfig>,
        mode: TagMode,
    ) -> Self {
        // Each extra stacked cache die folds more capacity onto the
        // bank and adds a TSV round-trip to every array access.
        let capacity = cfg.l2_bank_bytes * tech.capacity_factor() * cfg.cache_layers;
        let stack_latency = (cfg.cache_layers as u64 - 1) * cfg.stack_hop_latency;
        let write_latency = match tech {
            MemTech::Sram => cfg.l2_read_latency,
            MemTech::SttRam => cfg.stt_write_latency,
        } + stack_latency;
        Self {
            id,
            mode,
            array: CacheArray::new(capacity, cfg.l2_ways, cfg.block_bytes),
            ctrl: BankController::new(
                cfg.l2_read_latency + stack_latency,
                write_latency,
                write_buffer,
            ),
            mshrs: MshrFile::new(cfg.l2_mshrs),
            txns: HashMap::new(),
            next_txn: 0,
            pending: HashMap::new(),
            next_job: 0,
            deferred: VecDeque::new(),
            stats: L2Stats::default(),
        }
    }

    /// This bank's id.
    pub fn id(&self) -> BankId {
        self.id
    }

    /// Clears protocol and timing statistics (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = L2Stats::default();
        self.ctrl.reset_stats();
    }

    /// The timing controller's statistics.
    pub fn timing(&self) -> &BankStats {
        &self.ctrl.stats
    }

    /// The timing controller (instrumentation).
    pub fn controller(&self) -> &BankController {
        &self.ctrl
    }

    /// `true` when no work is queued, in service, outstanding to
    /// memory or buffered.
    pub fn is_quiescent(&self) -> bool {
        self.is_idle() && self.pending.is_empty() && self.mshrs.is_empty() && self.txns.is_empty()
    }

    /// `true` when [`L2Bank::tick`] has nothing to do: no deferred
    /// miss to retry and an idle controller. Ticking an idle bank
    /// emits nothing and changes no state, so callers may skip it.
    pub fn is_idle(&self) -> bool {
        self.deferred.is_empty() && self.ctrl.is_idle()
    }

    fn enqueue_job(&mut self, op: BankOp, addr: u64, pending: PendingOp, now: Cycle) {
        let token = self.next_job;
        self.next_job += 1;
        self.pending.insert(token, pending);
        self.ctrl.enqueue(
            BankJob {
                op,
                token,
                addr,
                arrived: now,
            },
            now,
        );
    }

    /// Accepts a protocol message. Most work is queued for the array;
    /// replies appear from [`L2Bank::tick`]. `forced_miss` is consulted
    /// only in probabilistic mode.
    pub fn handle(&mut self, msg: BankIn, forced_miss: bool, now: Cycle) -> Vec<BankMsg> {
        let mut out = Vec::new();
        match msg {
            BankIn::GetS { block, from } => {
                self.enqueue_job(
                    BankOp::Read,
                    block,
                    PendingOp::Lookup {
                        block,
                        from,
                        kind: MissKind::Read,
                        forced_miss,
                    },
                    now,
                );
            }
            BankIn::GetM { block, from } => {
                // In probabilistic (profile-driven) mode a write
                // request occupies the array for the full write
                // latency — the paper's long STT-RAM write. In real
                // mode GetM is a tag/data read; the array write comes
                // later with the data (PutM/FwdData).
                let op = match self.mode {
                    TagMode::Probabilistic => BankOp::Write,
                    TagMode::Real => BankOp::Read,
                };
                self.enqueue_job(
                    op,
                    block,
                    PendingOp::Lookup {
                        block,
                        from,
                        kind: MissKind::Write,
                        forced_miss,
                    },
                    now,
                );
            }
            BankIn::PutM { block, from } => {
                // In probabilistic mode, `forced_miss` marks a
                // writeback that displaces a dirty victim to memory.
                let spill = forced_miss && self.mode == TagMode::Probabilistic;
                self.enqueue_job(
                    BankOp::Write,
                    block,
                    PendingOp::PutWrite {
                        block,
                        from,
                        txn: None,
                        spill,
                    },
                    now,
                );
            }
            BankIn::FwdData { block, from, txn } => {
                self.enqueue_job(
                    BankOp::Write,
                    block,
                    PendingOp::PutWrite {
                        block,
                        from,
                        txn: Some(txn),
                        spill: false,
                    },
                    now,
                );
            }
            BankIn::FwdMiss { block, from, txn } => {
                // No data moved: resolve immediately from the home
                // array (already read during the original lookup).
                if let Some(dir) = self.array.peek_mut(block) {
                    dir.remove(from);
                }
                self.complete_txn(txn, &mut out);
            }
            BankIn::InvAck { .. } => {}
            BankIn::Fill { block } => {
                self.enqueue_job(BankOp::Write, block, PendingOp::FillWrite { block }, now);
            }
        }
        out
    }

    /// Advances one cycle: retries deferred misses, services the
    /// array, and emits the resulting protocol messages.
    pub fn tick(&mut self, now: Cycle) -> Vec<BankMsg> {
        let mut out = Vec::new();
        while !self.deferred.is_empty() && !self.mshrs.is_full() {
            let (block, from, kind) = self.deferred.pop_front().expect("non-empty");
            self.miss_path(block, from, kind, &mut out);
        }
        for c in self.ctrl.tick(now) {
            let op = self
                .pending
                .remove(&c.job.token)
                .expect("pending op for job");
            match op {
                PendingOp::Lookup {
                    block,
                    from,
                    kind,
                    forced_miss,
                } => {
                    self.on_lookup(block, from, kind, forced_miss, &mut out);
                }
                PendingOp::PutWrite {
                    block,
                    from,
                    txn,
                    spill,
                } => {
                    self.on_put_write(block, from, txn, spill, &mut out);
                }
                PendingOp::FillWrite { block } => {
                    self.on_fill(block, &mut out);
                }
            }
        }
        out
    }

    fn txn_for_block(&self, block: u64) -> Option<u64> {
        self.txns
            .iter()
            .find(|(_, t)| t.block == block)
            .map(|(&id, _)| id)
    }

    fn on_lookup(
        &mut self,
        block: u64,
        from: CoreId,
        kind: MissKind,
        forced_miss: bool,
        out: &mut Vec<BankMsg>,
    ) {
        // A transaction or fetch already in flight for this block:
        // join it.
        if let Some(txn) = self.txn_for_block(block) {
            self.txns
                .get_mut(&txn)
                .expect("live txn")
                .waiters
                .push((from, kind));
            return;
        }
        if self.mshrs.contains(block) {
            let _ = self.mshrs.allocate(block, waiter(from, kind));
            return;
        }
        match self.mode {
            TagMode::Probabilistic => {
                if forced_miss {
                    self.miss_path(block, from, kind, out);
                } else {
                    out.push(BankMsg::Data {
                        block,
                        to: from,
                        exclusive: kind == MissKind::Write,
                    });
                }
            }
            TagMode::Real => {
                if self.array.probe(block).is_some() {
                    self.serve_line(block, from, kind, out);
                } else {
                    self.miss_path(block, from, kind, out);
                }
            }
        }
    }

    fn miss_path(&mut self, block: u64, from: CoreId, kind: MissKind, out: &mut Vec<BankMsg>) {
        match self.mshrs.allocate(block, waiter(from, kind)) {
            Allocation::Primary => {
                self.stats.fetches += 1;
                out.push(BankMsg::Fetch { block });
            }
            Allocation::Secondary => {}
            Allocation::Full => {
                self.stats.deferred += 1;
                self.deferred.push_back((block, from, kind));
            }
        }
    }

    /// Serves a request for a line known to be present (real mode).
    /// `allow_e` gates the E-state grant for reads of uncached blocks
    /// (withheld when several waiters are served back to back).
    fn serve_line_with(
        &mut self,
        block: u64,
        from: CoreId,
        kind: MissKind,
        allow_e: bool,
        out: &mut Vec<BankMsg>,
    ) {
        let Some(dir) = self.array.peek_mut(block) else {
            // Raced with an eviction: fall back to a fetch.
            self.miss_path(block, from, kind, out);
            return;
        };
        match kind {
            MissKind::Read => {
                if let Some(owner) = dir.owner() {
                    if owner != from {
                        let txn = self.start_txn(block, MissKind::Read, from, kind);
                        self.stats.forwards_sent += 1;
                        out.push(BankMsg::FwdGetS {
                            block,
                            to: owner,
                            txn,
                        });
                        return;
                    }
                    out.push(BankMsg::Data {
                        block,
                        to: from,
                        exclusive: true,
                    });
                } else if dir.is_uncached() && allow_e {
                    dir.set_owner(from); // E grant
                    out.push(BankMsg::Data {
                        block,
                        to: from,
                        exclusive: true,
                    });
                } else {
                    dir.add_sharer(from);
                    out.push(BankMsg::Data {
                        block,
                        to: from,
                        exclusive: false,
                    });
                }
            }
            MissKind::Write => {
                if let Some(owner) = dir.owner() {
                    if owner != from {
                        let txn = self.start_txn(block, MissKind::Write, from, kind);
                        self.stats.forwards_sent += 1;
                        out.push(BankMsg::FwdGetM {
                            block,
                            to: owner,
                            txn,
                        });
                        return;
                    }
                    out.push(BankMsg::Data {
                        block,
                        to: from,
                        exclusive: true,
                    });
                } else {
                    let sharers: Vec<CoreId> = dir.sharers().filter(|&s| s != from).collect();
                    dir.set_owner(from);
                    for s in sharers {
                        self.stats.invalidations_sent += 1;
                        out.push(BankMsg::Inv { block, to: s });
                    }
                    out.push(BankMsg::Data {
                        block,
                        to: from,
                        exclusive: true,
                    });
                }
            }
        }
    }

    fn serve_line(&mut self, block: u64, from: CoreId, kind: MissKind, out: &mut Vec<BankMsg>) {
        self.serve_line_with(block, from, kind, true, out);
    }

    fn start_txn(&mut self, block: u64, fwd_kind: MissKind, from: CoreId, kind: MissKind) -> u64 {
        let id = self.next_txn;
        self.next_txn += 1;
        self.txns.insert(
            id,
            Txn {
                block,
                fwd_kind,
                waiters: vec![(from, kind)],
            },
        );
        id
    }

    fn complete_txn(&mut self, txn: u64, out: &mut Vec<BankMsg>) {
        let Some(t) = self.txns.remove(&txn) else {
            return;
        };
        for (from, kind) in t.waiters {
            self.serve_line(t.block, from, kind, out);
        }
    }

    fn on_put_write(
        &mut self,
        block: u64,
        from: CoreId,
        txn: Option<u64>,
        spill: bool,
        out: &mut Vec<BankMsg>,
    ) {
        match txn {
            None => {
                self.stats.putm_writes += 1;
                if spill {
                    self.stats.dirty_evictions += 1;
                    out.push(BankMsg::WriteMem { block });
                }
                if let Some(dir) = self.array.peek_mut(block) {
                    dir.remove(from);
                    dir.dirty = true;
                } else if self.mode == TagMode::Real {
                    // The home line was evicted while the PutM was in
                    // flight: the data continues to memory.
                    out.push(BankMsg::WriteMem { block });
                }
            }
            Some(t) => {
                let keep = self
                    .txns
                    .get(&t)
                    .map(|x| x.fwd_kind == MissKind::Read)
                    .unwrap_or(false);
                if let Some(dir) = self.array.peek_mut(block) {
                    dir.downgrade_owner(keep);
                    dir.dirty = true;
                }
                self.complete_txn(t, out);
            }
        }
    }

    fn on_fill(&mut self, block: u64, out: &mut Vec<BankMsg>) {
        self.stats.fills += 1;
        if self.mode == TagMode::Real && self.array.peek(block).is_none() {
            if let Some(ev) = self.array.insert(block, DirEntry::uncached()) {
                for s in ev.meta.sharers() {
                    self.stats.invalidations_sent += 1;
                    out.push(BankMsg::Inv {
                        block: ev.addr,
                        to: s,
                    });
                }
                if let Some(o) = ev.meta.owner() {
                    self.stats.invalidations_sent += 1;
                    out.push(BankMsg::Inv {
                        block: ev.addr,
                        to: o,
                    });
                }
                if ev.meta.dirty {
                    self.stats.dirty_evictions += 1;
                    out.push(BankMsg::WriteMem { block: ev.addr });
                }
            }
        }
        let Some((waiters, _)) = self.mshrs.complete(block) else {
            return;
        };
        match self.mode {
            TagMode::Real => {
                // Several merged waiters: readers get S (no E grant),
                // then writers claim ownership (invalidating them).
                let allow_e = waiters.len() == 1;
                let (reads, writes): (Vec<_>, Vec<_>) =
                    waiters.into_iter().partition(|w| w.kind == MissKind::Read);
                for w in reads.into_iter().chain(writes) {
                    self.serve_line_with(block, CoreId::new(w.token as u16), w.kind, allow_e, out);
                }
            }
            TagMode::Probabilistic => {
                for w in waiters {
                    out.push(BankMsg::Data {
                        block,
                        to: CoreId::new(w.token as u16),
                        exclusive: w.kind == MissKind::Write,
                    });
                }
            }
        }
    }
}

fn waiter(from: CoreId, kind: MissKind) -> Waiter {
    Waiter {
        token: from.index() as u64,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(mode: TagMode) -> L2Bank {
        L2Bank::new(
            BankId::new(0),
            &MemConfig::default(),
            MemTech::SttRam,
            None,
            mode,
        )
    }

    fn run(bank: &mut L2Bank, from: Cycle, cycles: u64) -> (Vec<BankMsg>, Cycle) {
        let mut out = Vec::new();
        for c in from..from + cycles {
            out.extend(bank.tick(c));
        }
        (out, from + cycles)
    }

    fn core(i: u16) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn cold_read_fetches_from_memory_then_replies_exclusive() {
        let mut b = bank(TagMode::Real);
        b.handle(
            BankIn::GetS {
                block: 0x1000,
                from: core(1),
            },
            false,
            0,
        );
        let (msgs, t) = run(&mut b, 0, 10);
        assert_eq!(msgs, vec![BankMsg::Fetch { block: 0x1000 }]);
        b.handle(BankIn::Fill { block: 0x1000 }, false, t);
        let (msgs, _) = run(&mut b, t, 40);
        assert_eq!(
            msgs,
            vec![BankMsg::Data {
                block: 0x1000,
                to: core(1),
                exclusive: true
            }]
        );
        assert_eq!(b.stats.fetches, 1);
        assert_eq!(b.stats.fills, 1);
        assert!(b.is_quiescent());
    }

    #[test]
    fn second_reader_gets_a_forward() {
        let mut b = bank(TagMode::Real);
        b.handle(
            BankIn::GetS {
                block: 0x1000,
                from: core(1),
            },
            false,
            0,
        );
        let (_, t) = run(&mut b, 0, 10);
        b.handle(BankIn::Fill { block: 0x1000 }, false, t);
        let (_, t) = run(&mut b, t, 40);
        // Core 1 owns the line in E; a second reader triggers FwdGetS.
        b.handle(
            BankIn::GetS {
                block: 0x1000,
                from: core(2),
            },
            false,
            t,
        );
        let (msgs, t) = run(&mut b, t, 10);
        let txn = match msgs[..] {
            [BankMsg::FwdGetS {
                block: 0x1000,
                to,
                txn,
            }] => {
                assert_eq!(to, core(1));
                txn
            }
            ref other => panic!("expected FwdGetS, got {other:?}"),
        };
        // Owner had a clean E copy: FwdMiss resolves from the array.
        let msgs = b.handle(
            BankIn::FwdMiss {
                block: 0x1000,
                from: core(1),
                txn,
            },
            false,
            t,
        );
        // With the stale owner gone the block is uncached again, so
        // the reader receives a fresh E grant.
        assert_eq!(
            msgs,
            vec![BankMsg::Data {
                block: 0x1000,
                to: core(2),
                exclusive: true
            }]
        );
        assert!(b.is_quiescent());
    }

    #[test]
    fn dirty_owner_writes_back_through_home() {
        let mut b = bank(TagMode::Real);
        // Core 1 takes the line for writing.
        b.handle(
            BankIn::GetM {
                block: 0x2000,
                from: core(1),
            },
            false,
            0,
        );
        let (_, t) = run(&mut b, 0, 10);
        b.handle(BankIn::Fill { block: 0x2000 }, false, t);
        let (_, t) = run(&mut b, t, 40);
        // Core 2 reads: home forwards to owner; owner sends FwdData.
        b.handle(
            BankIn::GetS {
                block: 0x2000,
                from: core(2),
            },
            false,
            t,
        );
        let (msgs, t) = run(&mut b, t, 10);
        let txn = match msgs[..] {
            [BankMsg::FwdGetS { txn, .. }] => txn,
            ref other => panic!("{other:?}"),
        };
        b.handle(
            BankIn::FwdData {
                block: 0x2000,
                from: core(1),
                txn,
            },
            false,
            t,
        );
        // The 33-cycle STT write applies, then the reader is served.
        let (msgs, _) = run(&mut b, t, 40);
        assert_eq!(
            msgs,
            vec![BankMsg::Data {
                block: 0x2000,
                to: core(2),
                exclusive: false
            }]
        );
        assert!(b.timing().writes >= 1, "owner data is an array write");
        assert!(b.is_quiescent());
    }

    #[test]
    fn write_to_shared_line_invalidates_sharers() {
        let mut b = bank(TagMode::Real);
        // Two concurrent readers merge on the fill and both install S.
        b.handle(
            BankIn::GetS {
                block: 0x3000,
                from: core(1),
            },
            false,
            0,
        );
        b.handle(
            BankIn::GetS {
                block: 0x3000,
                from: core(2),
            },
            false,
            0,
        );
        let (_, t) = run(&mut b, 0, 15);
        b.handle(BankIn::Fill { block: 0x3000 }, false, t);
        let (msgs, t) = run(&mut b, t, 40);
        assert!(
            msgs.iter().all(|m| matches!(
                m,
                BankMsg::Data {
                    exclusive: false,
                    ..
                }
            )),
            "merged readers get shared grants: {msgs:?}"
        );
        // Core 3 writes: both sharers must be invalidated.
        b.handle(
            BankIn::GetM {
                block: 0x3000,
                from: core(3),
            },
            false,
            t,
        );
        let (msgs, _) = run(&mut b, t, 10);
        assert!(msgs.contains(&BankMsg::Inv {
            block: 0x3000,
            to: core(1)
        }));
        assert!(msgs.contains(&BankMsg::Inv {
            block: 0x3000,
            to: core(2)
        }));
        assert!(msgs.contains(&BankMsg::Data {
            block: 0x3000,
            to: core(3),
            exclusive: true
        }));
        assert_eq!(b.stats.invalidations_sent, 2);
    }

    #[test]
    fn voluntary_putm_dirties_the_home_line() {
        let mut b = bank(TagMode::Real);
        b.handle(
            BankIn::GetM {
                block: 0x4000,
                from: core(1),
            },
            false,
            0,
        );
        let (_, t) = run(&mut b, 0, 10);
        b.handle(BankIn::Fill { block: 0x4000 }, false, t);
        let (_, t) = run(&mut b, t, 40);
        b.handle(
            BankIn::PutM {
                block: 0x4000,
                from: core(1),
            },
            false,
            t,
        );
        let (msgs, _) = run(&mut b, t, 40);
        assert!(msgs.is_empty(), "voluntary PutM needs no reply");
        assert_eq!(b.stats.putm_writes, 1);
        // A later reader is served from the (dirty) home line without
        // a memory fetch.
        let mut out = Vec::new();
        b.serve_line(0x4000, core(2), MissKind::Read, &mut out);
        assert_eq!(
            out,
            vec![BankMsg::Data {
                block: 0x4000,
                to: core(2),
                exclusive: true
            }]
        );
    }

    #[test]
    fn concurrent_misses_to_one_block_merge() {
        let mut b = bank(TagMode::Real);
        b.handle(
            BankIn::GetS {
                block: 0x5000,
                from: core(1),
            },
            false,
            0,
        );
        b.handle(
            BankIn::GetS {
                block: 0x5000,
                from: core(2),
            },
            false,
            0,
        );
        let (msgs, t) = run(&mut b, 0, 15);
        assert_eq!(msgs.len(), 1, "one fetch for both: {msgs:?}");
        b.handle(BankIn::Fill { block: 0x5000 }, false, t);
        let (msgs, _) = run(&mut b, t, 40);
        let datas = msgs
            .iter()
            .filter(|m| matches!(m, BankMsg::Data { .. }))
            .count();
        assert_eq!(datas, 2, "both waiters served: {msgs:?}");
    }

    #[test]
    fn probabilistic_hit_and_miss_paths() {
        let mut b = bank(TagMode::Probabilistic);
        b.handle(
            BankIn::GetS {
                block: 0x100,
                from: core(1),
            },
            false,
            0,
        );
        let (msgs, t) = run(&mut b, 0, 10);
        assert_eq!(
            msgs,
            vec![BankMsg::Data {
                block: 0x100,
                to: core(1),
                exclusive: false
            }]
        );
        b.handle(
            BankIn::GetS {
                block: 0x200,
                from: core(2),
            },
            true,
            t,
        );
        let (msgs, t2) = run(&mut b, t, 10);
        assert_eq!(msgs, vec![BankMsg::Fetch { block: 0x200 }]);
        b.handle(BankIn::Fill { block: 0x200 }, false, t2);
        let (msgs, _) = run(&mut b, t2, 40);
        assert_eq!(
            msgs,
            vec![BankMsg::Data {
                block: 0x200,
                to: core(2),
                exclusive: false
            }]
        );
    }

    #[test]
    fn probabilistic_write_miss_spills_to_memory() {
        // A forced-miss write models a dirty-victim displacement: the
        // bank emits a memory writeback alongside the array write.
        let mut b = bank(TagMode::Probabilistic);
        b.handle(
            BankIn::PutM {
                block: 0x700,
                from: core(1),
            },
            true,
            0,
        );
        let (msgs, _) = run(&mut b, 0, 50);
        assert!(
            msgs.contains(&BankMsg::WriteMem { block: 0x700 }),
            "{msgs:?}"
        );
        assert_eq!(b.stats.dirty_evictions, 1);
        // A hit write spills nothing.
        let mut b2 = bank(TagMode::Probabilistic);
        b2.handle(
            BankIn::PutM {
                block: 0x800,
                from: core(1),
            },
            false,
            0,
        );
        let (msgs, _) = run(&mut b2, 0, 50);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn probabilistic_getm_occupies_the_bank_for_the_write_latency() {
        // The paper's "write request": the requester is released fast
        // but the array is busy for 33 cycles.
        let mut b = bank(TagMode::Probabilistic);
        b.handle(
            BankIn::GetM {
                block: 0x100,
                from: core(1),
            },
            false,
            0,
        );
        b.handle(
            BankIn::GetS {
                block: 0x200,
                from: core(2),
            },
            false,
            1,
        );
        let mut data_times = Vec::new();
        for c in 0..80 {
            for m in b.tick(c) {
                if let BankMsg::Data { to, .. } = m {
                    data_times.push((to, c));
                }
            }
        }
        assert_eq!(data_times.len(), 2);
        assert!(data_times[0].1 <= 5, "writer released fast: {data_times:?}");
        assert!(
            data_times[1].1 >= 36,
            "read waits out the write: {data_times:?}"
        );
    }

    #[test]
    fn writeback_occupies_stt_bank_for_33_cycles() {
        let mut b = bank(TagMode::Probabilistic);
        b.handle(
            BankIn::PutM {
                block: 0x100,
                from: core(1),
            },
            false,
            0,
        );
        b.handle(
            BankIn::GetS {
                block: 0x200,
                from: core(2),
            },
            false,
            1,
        );
        let mut first_data_at = None;
        for c in 0..80 {
            for m in b.tick(c) {
                if matches!(m, BankMsg::Data { .. }) && first_data_at.is_none() {
                    first_data_at = Some(c);
                }
            }
        }
        // Read queued behind the 33-cycle write: served at >= 36.
        assert!(
            first_data_at.unwrap() >= 36,
            "read must wait: {first_data_at:?}"
        );
    }

    #[test]
    fn eviction_of_dirty_home_line_writes_memory() {
        // A tiny L2 (one set) forces evictions quickly.
        let cfg = MemConfig {
            l2_bank_bytes: 16 * 128, // 16 ways * 128B = one set
            ..MemConfig::default()
        };
        let mut b = L2Bank::new(BankId::new(0), &cfg, MemTech::Sram, None, TagMode::Real);
        // Fill 16 blocks; dirty the first via PutM.
        let mut t = 0;
        for i in 0..16u64 {
            b.handle(
                BankIn::GetS {
                    block: i * 128,
                    from: core(1),
                },
                false,
                t,
            );
            let (_, t2) = run(&mut b, t, 10);
            b.handle(BankIn::Fill { block: i * 128 }, false, t2);
            let (_, t3) = run(&mut b, t2, 10);
            t = t3;
        }
        b.handle(
            BankIn::PutM {
                block: 0,
                from: core(1),
            },
            false,
            t,
        );
        let (_, mut t) = run(&mut b, t, 10);
        // One more block evicts the LRU line.
        b.handle(
            BankIn::GetS {
                block: 17 * 128,
                from: core(2),
            },
            false,
            t,
        );
        let (_, t2) = run(&mut b, t, 10);
        t = t2;
        b.handle(BankIn::Fill { block: 17 * 128 }, false, t);
        let (msgs, _) = run(&mut b, t, 20);
        assert!(
            msgs.iter().any(|m| matches!(m, BankMsg::WriteMem { .. })),
            "dirty victim writes to memory: {msgs:?}"
        );
        assert_eq!(b.stats.dirty_evictions, 1);
    }

    #[test]
    fn mshr_overflow_defers_and_recovers() {
        let cfg = MemConfig {
            l2_mshrs: 1,
            ..MemConfig::default()
        };
        let mut b = L2Bank::new(BankId::new(0), &cfg, MemTech::SttRam, None, TagMode::Real);
        b.handle(
            BankIn::GetS {
                block: 0x100,
                from: core(1),
            },
            false,
            0,
        );
        b.handle(
            BankIn::GetS {
                block: 0x200,
                from: core(2),
            },
            false,
            0,
        );
        let (msgs, t) = run(&mut b, 0, 15);
        assert_eq!(msgs, vec![BankMsg::Fetch { block: 0x100 }]);
        assert_eq!(b.stats.deferred, 1);
        b.handle(BankIn::Fill { block: 0x100 }, false, t);
        let (msgs, t2) = run(&mut b, t, 45);
        assert!(
            msgs.contains(&BankMsg::Fetch { block: 0x200 }),
            "deferred miss retries"
        );
        b.handle(BankIn::Fill { block: 0x200 }, false, t2);
        let (msgs, _) = run(&mut b, t2, 45);
        assert!(msgs
            .iter()
            .any(|m| matches!(m, BankMsg::Data { to, .. } if *to == core(2))));
        assert!(b.is_quiescent());
    }
}
