//! Property tests for the two shortcuts the cycle loop takes (hand-rolled
//! with [`SimRng`], like `write_buffer_props.rs`):
//!
//! * a [`CacheArray`] allocates its lines on the first insert, and must
//!   behave before then exactly as an allocated array holding nothing;
//! * the system skips [`L2Bank::tick`] on an idle bank, so ticking an
//!   idle bank must emit nothing and change nothing.

use snoc_common::config::{MemConfig, MemTech, WriteBufferConfig};
use snoc_common::ids::{BankId, CoreId};
use snoc_common::rng::SimRng;
use snoc_mem::array::CacheArray;
use snoc_mem::protocol::{BankIn, BankMsg};
use snoc_mem::replacement::ReplacementKind;
use snoc_mem::{L2Bank, TagMode};

const BLOCK: usize = 128;

/// One array operation; `insert` is issued only when the block is
/// absent (the array's precondition) in both arrays alike.
fn step(a: &mut CacheArray<u32>, op: usize, addr: u64, meta: u32) -> String {
    match op {
        0 => format!("probe {:?}", a.probe(addr).map(|m| *m)),
        1 => format!("peek {:?}", a.peek(addr)),
        2 => format!("peek_mut {:?}", a.peek_mut(addr).map(|m| *m)),
        3 => match a.peek(addr) {
            Some(_) => "present".to_string(),
            None => format!("insert {:?}", a.insert(addr, meta)),
        },
        _ => format!("invalidate {:?}", a.invalidate(addr)),
    }
}

#[test]
fn unallocated_array_matches_an_allocated_empty_one() {
    for policy in [
        ReplacementKind::Lru,
        ReplacementKind::TreePlru,
        ReplacementKind::Random,
    ] {
        for seed in 0..40u64 {
            let mut rng = SimRng::for_stream(0x1A2_A77A, seed);
            let ways = 1 << rng.below(4);
            let sets = 1 << rng.below(4);
            let make =
                || CacheArray::<u32>::with_policy(sets * ways * BLOCK, ways, BLOCK, policy, seed);
            // Three times the capacity, so sets fill and evict.
            let blocks = 3 * sets * ways;
            let mut fresh = make();
            let mut emptied = make();
            let first = (rng.below(blocks) * BLOCK) as u64;
            assert!(emptied.insert(first, 1).is_none());
            assert_eq!(emptied.invalidate(first), Some(1));

            for i in 0..400 {
                let op = rng.below(5);
                let addr = (rng.below(blocks) * BLOCK + rng.below(BLOCK)) as u64;
                let meta = rng.below(1000) as u32;
                assert_eq!(
                    step(&mut fresh, op, addr, meta),
                    step(&mut emptied, op, addr, meta),
                    "{policy:?} seed {seed} op {i}"
                );
                assert_eq!(
                    (fresh.hits(), fresh.misses()),
                    (emptied.hits(), emptied.misses()),
                    "{policy:?} seed {seed} op {i}"
                );
            }
            let lines =
                |a: &CacheArray<u32>| a.iter().map(|(addr, &m)| (addr, m)).collect::<Vec<_>>();
            assert_eq!(lines(&fresh), lines(&emptied), "{policy:?} seed {seed}");
        }
    }
}

/// A small bank (16 KB, 4 MSHRs) so misses defer and the real-mode
/// array evicts. Random array latencies include writes shorter than
/// reads, where an early write reply outlives the array occupancy.
fn small_bank(mode: TagMode, buff20: bool, rng: &mut SimRng) -> L2Bank {
    let cfg = MemConfig {
        l2_bank_bytes: 16 * 1024,
        l2_mshrs: 4,
        l2_read_latency: 1 + rng.below(6) as u64,
        stt_write_latency: 1 + rng.below(40) as u64,
        ..MemConfig::default()
    };
    let wbuf = buff20.then(WriteBufferConfig::default);
    L2Bank::new(BankId::new(0), &cfg, MemTech::SttRam, wbuf, mode)
}

/// The endpoints' answer to a bank message, if it expects one.
fn answer(msg: &BankMsg) -> Option<BankIn> {
    match *msg {
        BankMsg::Fetch { block } => Some(BankIn::Fill { block }),
        BankMsg::Inv { block, to } => Some(BankIn::InvAck { block, from: to }),
        BankMsg::FwdGetS { block, to, txn } | BankMsg::FwdGetM { block, to, txn } => {
            Some(BankIn::FwdData {
                block,
                from: to,
                txn,
            })
        }
        BankMsg::Data { .. } | BankMsg::WriteMem { .. } => None,
    }
}

#[test]
fn idle_bank_tick_is_a_no_op() {
    for mode in [TagMode::Real, TagMode::Probabilistic] {
        for buff20 in [false, true] {
            let mut idle_ticks = 0;
            let mut busy_ticks = 0;
            for seed in 0..12u64 {
                let mut rng = SimRng::for_stream(0x1D1E, seed);
                let mut bank = small_bank(mode, buff20, &mut rng);
                // Answers in flight: (due cycle, message).
                let mut replies: Vec<(u64, BankIn)> = Vec::new();
                let mut was_busy = false;
                for now in 0..3_000u64 {
                    // Bursts of requests separated by quiet stretches
                    // long enough for the bank to drain.
                    let burst = (now / 300) % 3 == 0;
                    if burst && rng.chance(0.03) {
                        let block = (rng.below(512) * BLOCK) as u64;
                        let from = CoreId::new(rng.below(8) as u16);
                        let msg = match rng.below(3) {
                            0 => BankIn::GetS { block, from },
                            1 => BankIn::GetM { block, from },
                            _ => BankIn::PutM { block, from },
                        };
                        let now_replies = bank.handle(msg, rng.chance(0.5), now);
                        for m in &now_replies {
                            if let Some(a) = answer(m) {
                                replies.push((now + 1 + rng.below(80) as u64, a));
                            }
                        }
                    }
                    let (due, later): (Vec<_>, Vec<_>) =
                        replies.into_iter().partition(|&(t, _)| t <= now);
                    replies = later;
                    for (_, msg) in due {
                        for m in bank.handle(msg, false, now) {
                            if let Some(a) = answer(&m) {
                                replies.push((now + 1 + rng.below(80) as u64, a));
                            }
                        }
                    }

                    if bank.is_idle() {
                        // Snapshot the whole bank on the first idle
                        // tick after work, and now and then after.
                        let full = was_busy || idle_ticks % 64 == 0;
                        idle_ticks += 1;
                        was_busy = false;
                        let stats = format!("{:?}", bank.stats);
                        let timing = format!("{:?}", bank.timing());
                        let whole = full.then(|| format!("{bank:?}"));
                        let out = bank.tick(now);
                        assert!(
                            out.is_empty(),
                            "{mode:?} buff20 {buff20} seed {seed}: {out:?}"
                        );
                        assert_eq!(stats, format!("{:?}", bank.stats));
                        assert_eq!(timing, format!("{:?}", bank.timing()));
                        if let Some(whole) = whole {
                            assert_eq!(whole, format!("{bank:?}"), "idle tick changed the bank");
                        }
                    } else {
                        busy_ticks += 1;
                        was_busy = true;
                        for m in bank.tick(now) {
                            if let Some(a) = answer(&m) {
                                replies.push((now + 1 + rng.below(80) as u64, a));
                            }
                        }
                    }
                }
            }
            assert!(
                idle_ticks > 1_000 && busy_ticks > 1_000,
                "{mode:?} buff20 {buff20}: {idle_ticks} idle, {busy_ticks} busy ticks"
            );
        }
    }
}
