//! A slab-based LRU cache used for buffer pools.

use crate::idhash::IdHashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used cache with O(1) lookup/insert/evict.
///
/// Capacity is counted in entries; the storage layer sizes it so that
/// `entries × PAGE_SIZE` matches the intended buffer-pool bytes. The cache
/// keeps no counters: the pool that owns it counts hits and misses.
///
/// ```
/// use hdov_storage::LruCache;
/// let mut pool = LruCache::new(2);
/// pool.insert("a", 1);
/// pool.insert("b", 2);
/// assert_eq!(pool.lookup(&"a", true), Some(&1)); // promotes "a"
/// assert_eq!(pool.insert("c", 3), Some(("b", 2))); // evicts the LRU entry
/// ```
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: IdHashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries. A zero-capacity
    /// cache keeps nothing: every [`insert`](Self::insert) hands its pair
    /// straight back, so every lookup misses.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: IdHashMap::with_capacity_and_hasher(capacity, Default::default()),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key` without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.slab[idx].value)
    }

    /// Looks up `key`, marking it most-recently-used on a hit when
    /// `promote`. Speculative probes (prefetch) pass `false`, so pages they
    /// only *might* need don't displace genuinely hot recency state.
    pub fn lookup(&mut self, key: &K, promote: bool) -> Option<&V> {
        let idx = *self.map.get(key)?;
        if promote {
            self.detach(idx);
            self.attach_front(idx);
        }
        Some(&self.slab[idx].value)
    }

    /// Inserts `key -> value`, evicting the least-recently-used entry when
    /// full. Returns the evicted `(key, value)` if any — the inserted pair
    /// itself when the capacity is zero.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return Some((key, value));
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }
        if self.map.len() == self.capacity {
            // Reuse the victim's slot.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.detach(victim);
            let node = &mut self.slab[victim];
            self.map.remove(&node.key);
            let old_key = std::mem::replace(&mut node.key, key.clone());
            let old_val = std::mem::replace(&mut node.value, value);
            self.map.insert(key, victim);
            self.attach_front(victim);
            return Some((old_key, old_val));
        }
        self.slab.push(Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        });
        let idx = self.slab.len() - 1;
        self.map.insert(key, idx);
        self.attach_front(idx);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_lookup() {
        let mut c = LruCache::new(2);
        assert!(c.insert("a", 1).is_none());
        assert!(c.insert("b", 2).is_none());
        assert_eq!(c.lookup(&"a", true), Some(&1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.lookup(&"a", true); // a is now MRU
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert!(c.peek(&"b").is_none());
        assert_eq!(c.peek(&"a"), Some(&1));
        assert_eq!(c.peek(&"c"), Some(&3));
    }

    #[test]
    fn update_existing_key_no_eviction() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert!(c.insert("a", 10).is_none());
        assert_eq!(c.lookup(&"a", true), Some(&10));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lookup_promotes_only_when_asked() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.lookup(&"z", true), None);
        assert_eq!(c.lookup(&"a", false), Some(&1));
        // The non-promoting hit left "a" least recently used.
        assert_eq!(c.insert("c", 3), Some(("a", 1)));
        assert_eq!(c.lookup(&"b", true), Some(&2));
        assert_eq!(c.insert("d", 4), Some(("c", 3)));
    }

    #[test]
    fn peek_does_not_promote() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.peek(&"a");
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("a", 1))); // a stayed LRU despite peek
    }

    #[test]
    fn capacity_one_churns_correctly() {
        let mut c = LruCache::new(1);
        for i in 0..100u32 {
            c.insert(i, i * 2);
            assert_eq!(c.len(), 1);
            assert_eq!(c.peek(&i), Some(&(i * 2)));
        }
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let mut c = LruCache::new(0);
        assert_eq!(c.insert("a", 1), Some(("a", 1)));
        assert!(c.is_empty());
        assert_eq!(c.lookup(&"a", true), None);
    }

    #[test]
    fn long_random_workload_consistent_with_map() {
        // Differential test against a naive model.
        use std::collections::VecDeque;
        let cap = 8;
        let mut c = LruCache::new(cap);
        let mut model: VecDeque<(u32, u32)> = VecDeque::new(); // front = MRU
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % 32) as u32
        };
        for step in 0..5000 {
            let k = next();
            if step % 3 == 0 {
                // insert
                if let Some(pos) = model.iter().position(|&(mk, _)| mk == k) {
                    model.remove(pos);
                } else if model.len() == cap {
                    model.pop_back();
                }
                model.push_front((k, step as u32));
                c.insert(k, step as u32);
            } else {
                // lookup
                let expect = model.iter().position(|&(mk, _)| mk == k);
                let got = c.lookup(&k, true).copied();
                match expect {
                    Some(pos) => {
                        let entry = model.remove(pos).unwrap();
                        assert_eq!(got, Some(entry.1));
                        model.push_front(entry);
                    }
                    None => assert_eq!(got, None),
                }
            }
            assert_eq!(c.len(), model.len());
        }
    }
}
