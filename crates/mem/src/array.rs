//! Set-associative tag array with pluggable replacement.
//!
//! Used for the private L1s (32 KB, 4-way) and the L2 banks (1 MB
//! SRAM / 4 MB STT-RAM, 16-way), parameterized over per-line metadata.
//! True LRU is the default (the paper's policy); tree pseudo-LRU and
//! seeded random are available for ablations (see
//! [`crate::replacement`]).
//!
//! The line and replacement storage is allocated on the first
//! [`CacheArray::insert`]. Until then the array behaves exactly as an
//! all-invalid one: `probe` misses, and `peek`, `invalidate` and
//! `iter` find nothing. Profile-driven runs never insert into their
//! tag arrays, so they never pay for them.

use crate::replacement::{ReplacementKind, SetState};
use snoc_common::rng::SimRng;

/// One cache line's bookkeeping.
#[derive(Debug, Clone)]
pub struct Line<M> {
    tag: u64,
    valid: bool,
    lru: u64,
    /// Caller-owned metadata (coherence state, dirty bit, directory
    /// entry, ...).
    pub meta: M,
}

/// The outcome of an [`CacheArray::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction<M> {
    /// The replaced block's address (block-aligned).
    pub addr: u64,
    /// Its metadata at eviction time.
    pub meta: M,
}

/// A set-associative tag array.
#[derive(Debug, Clone)]
pub struct CacheArray<M> {
    sets: usize,
    ways: usize,
    block_bits: u32,
    /// `sets * ways` lines, or empty until the first insert.
    lines: Vec<Line<M>>,
    stamp: u64,
    hits: u64,
    misses: u64,
    policy: ReplacementKind,
    /// One entry per set, or empty until the first insert.
    set_state: Vec<SetState>,
    rng: Option<SimRng>,
}

impl<M: Default + Clone> CacheArray<M> {
    /// Creates an array of `capacity_bytes` with `ways` ways and
    /// `block_bytes` blocks.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity_bytes` divides evenly into at least one
    /// power-of-two set of `ways x block_bytes`.
    pub fn new(capacity_bytes: usize, ways: usize, block_bytes: usize) -> Self {
        Self::with_policy(capacity_bytes, ways, block_bytes, ReplacementKind::Lru, 0)
    }

    /// Creates an array with an explicit replacement policy; `seed`
    /// feeds the random policy (ignored otherwise).
    pub fn with_policy(
        capacity_bytes: usize,
        ways: usize,
        block_bytes: usize,
        policy: ReplacementKind,
        seed: u64,
    ) -> Self {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        let sets = capacity_bytes / (ways * block_bytes);
        assert!(
            sets > 0,
            "capacity too small for {ways} ways of {block_bytes} B"
        );
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        Self {
            sets,
            ways,
            block_bits: block_bytes.trailing_zeros(),
            lines: Vec::new(),
            stamp: 0,
            hits: 0,
            misses: 0,
            policy,
            set_state: Vec::new(),
            rng: matches!(policy, ReplacementKind::Random)
                .then(|| SimRng::for_stream(seed, 0xCAC4E)),
        }
    }

    /// Allocates the all-invalid line and replacement storage (first
    /// insert only).
    fn allocate(&mut self) {
        self.lines = vec![
            Line {
                tag: 0,
                valid: false,
                lru: 0,
                meta: M::default()
            };
            self.sets * self.ways
        ];
        self.set_state = (0..self.sets)
            .map(|_| SetState::new(self.policy, self.ways))
            .collect();
    }

    /// The replacement policy in force.
    pub fn policy(&self) -> ReplacementKind {
        self.policy
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> usize {
        1 << self.block_bits
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.block_bytes()
    }

    /// Hits recorded by `probe`.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded by `probe`.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.block_bits) as usize) & (self.sets - 1)
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.block_bits >> self.sets.trailing_zeros()
    }

    /// The block-aligned address of a line.
    fn addr_of(&self, set: usize, tag: u64) -> u64 {
        ((tag << self.sets.trailing_zeros()) | set as u64) << self.block_bits
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// The ways a lookup searches: none before the first insert
    /// allocates the lines.
    fn searched_ways(&self) -> usize {
        if self.lines.is_empty() {
            0
        } else {
            self.ways
        }
    }

    /// Looks up `addr`, updating LRU and hit/miss counters. Returns
    /// mutable metadata on a hit.
    pub fn probe(&mut self, addr: u64) -> Option<&mut M> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.stamp += 1;
        let ways = self.searched_ways();
        for way in 0..ways {
            let idx = self.slot(set, way);
            if self.lines[idx].valid && self.lines[idx].tag == tag {
                self.hits += 1;
                self.lines[idx].lru = self.stamp;
                self.set_state[set].touch(way, self.ways);
                return Some(&mut self.lines[idx].meta);
            }
        }
        self.misses += 1;
        None
    }

    /// Looks up `addr` without perturbing LRU or counters.
    pub fn peek(&self, addr: u64) -> Option<&M> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let ways = self.searched_ways();
        (0..ways)
            .map(|w| &self.lines[self.slot(set, w)])
            .find(|l| l.valid && l.tag == tag)
            .map(|l| &l.meta)
    }

    /// Mutable variant of [`CacheArray::peek`].
    pub fn peek_mut(&mut self, addr: u64) -> Option<&mut M> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let ways = self.searched_ways();
        (0..ways)
            .map(|w| self.slot(set, w))
            .find(|&i| self.lines[i].valid && self.lines[i].tag == tag)
            .map(|i| &mut self.lines[i].meta)
    }

    /// Installs `addr` with `meta`, evicting the LRU victim if the set
    /// is full. Returns the eviction, if any.
    ///
    /// # Panics
    ///
    /// Panics if the block is already present (callers must `probe`
    /// first).
    pub fn insert(&mut self, addr: u64, meta: M) -> Option<Eviction<M>> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        debug_assert!(
            self.peek(addr).is_none(),
            "inserting a block that is already present"
        );
        if self.lines.is_empty() {
            self.allocate();
        }
        self.stamp += 1;
        // Prefer an invalid way.
        for way in 0..self.ways {
            let idx = self.slot(set, way);
            if !self.lines[idx].valid {
                self.lines[idx] = Line {
                    tag,
                    valid: true,
                    lru: self.stamp,
                    meta,
                };
                self.set_state[set].touch(way, self.ways);
                return None;
            }
        }
        // Evict the policy's victim.
        let stamps: Vec<u64> = (0..self.ways)
            .map(|w| self.lines[self.slot(set, w)].lru)
            .collect();
        let victim_way = self.set_state[set].victim(self.ways, &stamps, self.rng.as_mut());
        let victim = self.slot(set, victim_way);
        let old = &self.lines[victim];
        let evicted = Eviction {
            addr: self.addr_of(set, old.tag),
            meta: old.meta.clone(),
        };
        self.lines[victim] = Line {
            tag,
            valid: true,
            lru: self.stamp,
            meta,
        };
        self.set_state[set].touch(victim_way, self.ways);
        Some(evicted)
    }

    /// Removes `addr` if present, returning its metadata.
    pub fn invalidate(&mut self, addr: u64) -> Option<M> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let ways = self.searched_ways();
        for way in 0..ways {
            let idx = self.slot(set, way);
            if self.lines[idx].valid && self.lines[idx].tag == tag {
                self.lines[idx].valid = false;
                return Some(std::mem::take(&mut self.lines[idx].meta));
            }
        }
        None
    }

    /// Iterates over all valid blocks as `(addr, &meta)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &M)> {
        let sets = if self.lines.is_empty() { 0 } else { self.sets };
        (0..sets).flat_map(move |set| {
            (0..self.ways).filter_map(move |way| {
                let l = &self.lines[self.slot(set, way)];
                l.valid.then(|| (self.addr_of(set, l.tag), &l.meta))
            })
        })
    }
}

impl<M: Default + Clone> Default for CacheArray<M> {
    fn default() -> Self {
        Self::new(32 * 1024, 4, 128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> CacheArray<bool> {
        // 32 KB, 4-way, 128 B blocks: 64 sets.
        CacheArray::new(32 * 1024, 4, 128)
    }

    #[test]
    fn geometry_matches_table1() {
        let a = l1();
        assert_eq!(a.sets(), 64);
        assert_eq!(a.ways(), 4);
        assert_eq!(a.block_bytes(), 128);
        assert_eq!(a.capacity_bytes(), 32 * 1024);
        let l2 = CacheArray::<bool>::new(1024 * 1024, 16, 128);
        assert_eq!(l2.sets(), 512);
        let l2stt = CacheArray::<bool>::new(4 * 1024 * 1024, 16, 128);
        assert_eq!(l2stt.sets(), 2048);
    }

    #[test]
    fn probe_only_array_allocates_nothing() {
        let mut a = CacheArray::<u32>::new(4 * 1024 * 1024, 16, 128);
        for i in 0..1000u64 {
            assert!(a.probe(i * 128).is_none());
            assert!(a.peek(i * 128).is_none());
            assert!(a.peek_mut(i * 128).is_none());
            assert!(a.invalidate(i * 128).is_none());
        }
        assert_eq!(a.iter().count(), 0);
        assert_eq!((a.hits(), a.misses()), (0, 1000));
        assert_eq!(a.lines.capacity(), 0, "no line storage before an insert");
        assert_eq!(a.set_state.capacity(), 0, "no set state before an insert");
        a.insert(0, 7);
        assert_eq!(a.lines.len(), a.sets() * a.ways());
        assert_eq!(a.peek(0), Some(&7));
    }

    #[test]
    fn probe_miss_then_hit() {
        let mut a = l1();
        assert!(a.probe(0x1000).is_none());
        a.insert(0x1000, true);
        assert_eq!(a.probe(0x1000), Some(&mut true));
        assert_eq!(a.hits(), 1);
        assert_eq!(a.misses(), 1);
    }

    #[test]
    fn same_block_offsets_hit_together() {
        let mut a = l1();
        a.insert(0x1000, false);
        assert!(a.probe(0x1000 + 127).is_some());
        assert!(a.probe(0x1000 + 128).is_none(), "next block differs");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut a = CacheArray::<u32>::new(4 * 128, 4, 128); // 1 set, 4 ways
        for i in 0..4u64 {
            a.insert(i * 128, i as u32);
        }
        // Touch 0, 1, 2 — way 3 is LRU.
        for i in 0..3u64 {
            a.probe(i * 128);
        }
        let ev = a.insert(4 * 128, 9).expect("set full");
        assert_eq!(ev.addr, 3 * 128);
        assert_eq!(ev.meta, 3);
    }

    #[test]
    fn insert_prefers_invalid_ways() {
        let mut a = CacheArray::<u32>::new(4 * 128, 4, 128);
        a.insert(0, 0);
        assert!(a.insert(128, 1).is_none(), "free ways left");
    }

    #[test]
    fn invalidate_removes() {
        let mut a = CacheArray::<u32>::new(32 * 1024, 4, 128);
        a.insert(0x40_0000, 7u32);
        assert_eq!(a.invalidate(0x40_0000), Some(7));
        assert!(a.probe(0x40_0000).is_none());
        assert_eq!(a.invalidate(0x40_0000), None);
    }

    #[test]
    fn eviction_reconstructs_block_address() {
        let mut a = CacheArray::<u32>::new(2 * 128 * 2, 2, 128); // 2 sets, 2 ways
                                                                 // Fill set 0 (addresses with set bit 0).
        a.insert(0x0000, 1);
        a.insert(0x0100, 2); // 0x100 = set 0 again? 0x100>>7 = 2 -> set 0.
        let ev = a.insert(0x0200, 3).unwrap();
        assert_eq!(ev.addr, 0x0000);
        assert!(a.peek(0x0100).is_some());
        assert!(a.peek(0x0200).is_some());
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut a = CacheArray::<u32>::new(2 * 128, 2, 128); // 1 set, 2 ways
        a.insert(0, 0);
        a.insert(128, 1);
        // Peek way 0 repeatedly; it must still be the LRU victim.
        for _ in 0..5 {
            assert!(a.peek(0).is_some());
        }
        a.probe(128);
        let ev = a.insert(256, 2).unwrap();
        assert_eq!(ev.addr, 0);
    }

    #[test]
    fn iter_visits_valid_lines() {
        let mut a = l1();
        a.insert(0x1000, true);
        a.insert(0x2000, false);
        let mut addrs: Vec<u64> = a.iter().map(|(addr, _)| addr).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![0x1000, 0x2000]);
    }

    #[test]
    fn plru_and_random_policies_work_end_to_end() {
        use crate::replacement::ReplacementKind;
        for policy in [ReplacementKind::TreePlru, ReplacementKind::Random] {
            let mut a = CacheArray::<u32>::with_policy(4 * 128, 4, 128, policy, 42);
            assert_eq!(a.policy(), policy);
            for i in 0..4u64 {
                a.insert(i * 128, i as u32);
            }
            // A fifth insert evicts exactly one resident line.
            let ev = a.insert(4 * 128, 9).expect("set full");
            assert!(ev.addr < 4 * 128);
            let resident = (0..5u64).filter(|&i| a.peek(i * 128).is_some()).count();
            assert_eq!(resident, 4, "{policy:?}");
        }
    }

    #[test]
    fn plru_keeps_hot_lines_resident() {
        use crate::replacement::ReplacementKind;
        let mut a = CacheArray::<()>::with_policy(8 * 128, 8, 128, ReplacementKind::TreePlru, 0);
        // Line 0 is hot; a stream of other lines churns the set.
        a.insert(0, ());
        for i in 1..200u64 {
            assert!(a.probe(0).is_some(), "hot line evicted at step {i}");
            if a.probe(i * 128).is_none() {
                a.insert(i * 128, ());
            }
        }
    }

    #[test]
    fn capacity_effect_on_miss_rate() {
        // The 4x STT-RAM bank keeps a working set the SRAM bank
        // cannot: the capacity effect behind Figure 6's read-intensive
        // wins.
        let mut small = CacheArray::<()>::new(64 * 1024, 16, 128);
        let mut big = CacheArray::<()>::new(256 * 1024, 16, 128);
        let blocks: Vec<u64> = (0..1500u64).map(|i| i * 128).collect();
        for pass in 0..4 {
            for &b in &blocks {
                for a in [&mut small, &mut big] {
                    if a.probe(b).is_none() {
                        a.insert(b, ());
                    }
                }
                let _ = pass;
            }
        }
        assert!(big.misses() < small.misses() / 2);
    }
}
