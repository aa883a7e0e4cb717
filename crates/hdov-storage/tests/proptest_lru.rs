//! Property tests for the non-promoting LRU lookups.
//!
//! The batched prefetch path probes pages it only *might* need, so the pool
//! has two lookups that leave recency untouched: [`LruCache::peek`] and
//! [`LruCache::lookup`] with `promote` off. Both must be invisible to the
//! eviction order, or speculative probes would displace genuinely hot pages
//! and the deterministic hit/miss traces the CI gate pins down would drift.

use hdov_storage::LruCache;
use proptest::prelude::*;

const KEY_SPACE: u32 = 16;

/// Applies one workload op; returns the eviction (if the op was an insert
/// that overflowed), so two caches can be compared op by op.
fn apply(c: &mut LruCache<u32, u32>, op: u8, key: u32) -> Option<(u32, u32)> {
    if op == 0 {
        c.insert(key, key.wrapping_mul(31))
    } else {
        c.lookup(&key, true);
        None
    }
}

/// Drains the complete eviction order by flushing with fresh keys.
fn eviction_order(c: &mut LruCache<u32, u32>, fresh_base: u32) -> Vec<u32> {
    (0..c.capacity() as u32)
        .filter_map(|i| c.insert(fresh_base + i, 0).map(|(k, _)| k))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn peek_never_changes_eviction_order(
        cap in 1usize..9,
        ops in prop::collection::vec((0u8..2, 0u32..KEY_SPACE), 1..100),
    ) {
        let mut plain = LruCache::new(cap);
        let mut peeked = LruCache::new(cap);
        for &(op, key) in &ops {
            // A peek storm over the whole key space before every op: any
            // effect on recency would desynchronize the caches.
            for k in 0..KEY_SPACE {
                let want = peeked.peek(&k).copied();
                prop_assert_eq!(want, plain.peek(&k).copied());
            }
            let a = apply(&mut plain, op, key);
            let b = apply(&mut peeked, op, key);
            prop_assert_eq!(a, b, "peek changed which entry was evicted");
            prop_assert_eq!(plain.len(), peeked.len());
        }
        prop_assert_eq!(
            eviction_order(&mut plain, 1_000),
            eviction_order(&mut peeked, 1_000),
            "full LRU order diverged after interleaved peeks"
        );
    }

    #[test]
    fn lookup_without_promote_never_promotes(
        cap in 1usize..9,
        ops in prop::collection::vec((0u8..2, 0u32..KEY_SPACE), 1..100),
        probes in prop::collection::vec(0u32..KEY_SPACE, 1..100),
    ) {
        let mut plain = LruCache::new(cap);
        let mut probed = LruCache::new(cap);
        let mut next_probe = probes.iter().cycle();
        for &(op, key) in &ops {
            let k = *next_probe.next().unwrap();
            let hit = probed.lookup(&k, false).is_some();
            prop_assert_eq!(hit, probed.peek(&k).is_some(),
                "probe presence must agree with peek");
            let a = apply(&mut plain, op, key);
            let b = apply(&mut probed, op, key);
            prop_assert_eq!(a, b, "probe changed which entry was evicted");
            prop_assert_eq!(plain.len(), probed.len());
        }
        prop_assert_eq!(
            eviction_order(&mut plain, 1_000),
            eviction_order(&mut probed, 1_000),
            "full LRU order diverged after interleaved probes"
        );
    }
}
