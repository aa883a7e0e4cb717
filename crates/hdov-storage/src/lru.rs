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

/// A fixed-capacity least-recently-used cache with O(1) get/insert/evict.
///
/// Capacity is counted in entries; the storage layer sizes it so that
/// `entries × PAGE_SIZE` matches the intended buffer-pool bytes.
///
/// ```
/// use hdov_storage::LruCache;
/// let mut pool = LruCache::new(2);
/// pool.insert("a", 1);
/// pool.insert("b", 2);
/// assert_eq!(pool.get(&"a"), Some(&1));     // promotes "a"
/// assert_eq!(pool.insert("c", 3), Some(("b", 2))); // evicts the LRU entry
/// assert_eq!(pool.hit_stats(), (1, 0));
/// ```
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: IdHashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries. A zero-capacity
    /// cache keeps nothing: every [`insert`](Self::insert) hands its pair
    /// straight back, so every lookup misses.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: IdHashMap::with_capacity_and_hasher(capacity, Default::default()),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
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

    /// `(hits, misses)` counters over all `get` calls.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
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

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.counted(key, true)
    }

    /// Looks up `key` without touching recency or hit counters.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.slab[idx].value)
    }

    /// Looks up `key`, counting a hit or miss but **not** promoting: the
    /// eviction order is left untouched. Speculative probes (prefetch) use
    /// this so pages they only *might* need don't displace genuinely hot
    /// recency state, while the hit/miss accounting stays comparable with
    /// [`get`](Self::get).
    pub fn probe(&mut self, key: &K) -> Option<&V> {
        self.counted(key, false)
    }

    /// Finds `key`'s slot, counting a hit (and promoting when `promote`).
    fn find(&mut self, key: &K, promote: bool) -> Option<usize> {
        let idx = *self.map.get(key)?;
        self.hits += 1;
        if promote {
            self.detach(idx);
            self.attach_front(idx);
        }
        Some(idx)
    }

    /// [`find`](Self::find), counting a miss when `key` is absent.
    fn counted(&mut self, key: &K, promote: bool) -> Option<&V> {
        match self.find(key, promote) {
            Some(idx) => Some(&self.slab[idx].value),
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up `key`, counting a hit (and promoting it when `promote`),
    /// but counting **no** miss: a caller whose miss can still fail after
    /// the lookup counts it with [`count_miss`](Self::count_miss) once it
    /// has succeeded, so the counters only ever record completed accesses.
    pub fn lookup(&mut self, key: &K, promote: bool) -> Option<&V> {
        let idx = self.find(key, promote)?;
        Some(&self.slab[idx].value)
    }

    /// Counts one miss (the completion of a [`lookup`](Self::lookup) that
    /// found nothing).
    pub fn count_miss(&mut self) {
        self.misses += 1;
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
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.detach(victim);
            let node = &mut self.slab[victim];
            self.map.remove(&node.key);
            // Reuse the slot.
            let old_key = std::mem::replace(&mut node.key, key.clone());
            let old_val = std::mem::replace(&mut node.value, value);
            evicted = Some((old_key, old_val));
            self.map.insert(key, victim);
            self.attach_front(victim);
            return evicted;
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.slab[idx] = Node {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            self.slab.push(Node {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        evicted
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V>
    where
        V: Default,
    {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        Some(std::mem::take(&mut self.slab[idx].value))
    }

    /// Drops all entries (capacity and counters retained).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_get() {
        let mut c = LruCache::new(2);
        assert!(c.insert("a", 1).is_none());
        assert!(c.insert("b", 2).is_none());
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.get(&"a"); // a is now MRU
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
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_and_reuse_slot() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.remove(&"a"), Some(1));
        assert_eq!(c.len(), 1);
        assert!(c.insert("c", 3).is_none());
        assert!(c.insert("d", 4).is_some()); // evicts b
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn hit_stats_track() {
        let mut c = LruCache::new(4);
        c.insert(1u32, ());
        c.get(&1);
        c.get(&2);
        c.get(&1);
        assert_eq!(c.hit_stats(), (2, 1));
    }

    #[test]
    fn lookup_counts_hits_and_leaves_misses_to_the_caller() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.lookup(&"z", true), None);
        assert_eq!(c.hit_stats(), (0, 0), "a failed lookup counts nothing");
        c.count_miss();
        assert_eq!(c.lookup(&"a", false), Some(&1));
        assert_eq!(c.hit_stats(), (1, 1));
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
    fn clear_resets() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(&"a").is_none());
        c.insert("b", 2);
        assert_eq!(c.get(&"b"), Some(&2));
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
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.hit_stats(), (0, 1));
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
                // get
                let expect = model.iter().position(|&(mk, _)| mk == k);
                let got = c.get(&k).copied();
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
