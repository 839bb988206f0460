//! Round-robin arbitration over bitmasks.
//!
//! Routers use rotating-priority (round-robin) arbiters for VC and
//! switch allocation. Both keep their candidates as bitmasks, so one
//! primitive serves both: the first candidate after the last winner,
//! wrapping around. The bank-aware policy's SA priority levels are
//! layered on top by the switch allocator itself.

/// The first set bit of `eligible` in rotating order starting *after*
/// bit `last`: the lowest set bit above `last`, else the lowest set
/// bit overall (the wrap-around), or `None` when no bit is set.
///
/// Over an `n`-bit mask with `last < n` this visits exactly the order
/// of the modulo loop `(last + 1..=last + n) % n`, without a division
/// per step.
#[inline]
pub fn rr_pick(eligible: u64, last: usize) -> Option<usize> {
    debug_assert!(last < 64, "rotation pointer {last} outside a u64 mask");
    let above = eligible & (u64::MAX << 1).wrapping_shl(last as u32);
    let pool = if above != 0 { above } else { eligible };
    (pool != 0).then(|| pool.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoc_common::rng::SimRng;

    #[test]
    fn rr_rotates_fairly() {
        // With everything eligible, successive picks cycle through all
        // indices.
        let mut last = 0;
        let mut seen = Vec::new();
        for _ in 0..4 {
            last = rr_pick(0b1111, last).unwrap();
            seen.push(last);
        }
        assert_eq!(seen, vec![1, 2, 3, 0]);
    }

    #[test]
    fn rr_skips_ineligible() {
        assert_eq!(rr_pick(0b1000, 0), Some(3));
        assert_eq!(rr_pick(0b1000, 3), Some(3));
        assert_eq!(rr_pick(0b0010, 3), Some(1), "wraps past the top");
        assert_eq!(rr_pick(0, 0), None);
        assert_eq!(rr_pick(1 << 63, 63), Some(63), "top bit wraps to itself");
    }

    #[test]
    fn rr_pick_matches_the_modulo_loop_over_random_masks() {
        let mut rng = SimRng::for_stream(0xA4B1, 0);
        for _ in 0..20_000 {
            let n = 1 + rng.below(9);
            let last = rng.below(n);
            let eligible = rng.bits() & ((1u64 << n) - 1);
            let want = (1..=n)
                .map(|off| (last + off) % n)
                .find(|&i| eligible >> i & 1 == 1);
            assert_eq!(
                rr_pick(eligible, last),
                want,
                "mask {eligible:#b}, last {last}, n {n}"
            );
        }
    }
}
