//! The one hasher for maps keyed by ids the store itself assigns.
//!
//! Page ids, object ids and node ordinals are chosen by the build and the
//! store layout, not by any outside party, so SipHash's flooding
//! resistance buys nothing for them, while every pool probe, resident-set
//! lookup and shard-ownership check pays for its hash on the query path.
//! [`IdHasher`] is a fixed multiplicative (Fibonacci) hash: each written
//! word is xored in and multiplied by 2⁶⁴/φ, and
//! [`finish`](Hasher::finish) rotates the well-mixed high bits down,
//! because the table picks a bucket from the low bits and ids often share
//! a residue (one pool shard's page ids are all congruent modulo the shard
//! count).
//!
//! Its users — the [`LruCache`](crate::LruCache) page index, the delta
//! resident set and the shard plan's object-owner map — never iterate their
//! maps in an order-dependent way, so the hasher changes no behaviour.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A fixed multiplicative hasher for store-assigned ids (see the module
/// docs).
///
/// Integer writes fold one word each, so a `#[derive(Hash)]` enum such as
/// `enum Key { Object(u64), Internal(u32) }` hashes its discriminant and its
/// payload in two multiplies.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// A `HashMap` keyed through [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

impl IdHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.fold(u64::from_le_bytes(w.try_into().expect("8-byte word")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.fold(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.fold(u64::from(word));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.fold(word);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.fold(word as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        let mut h = IdHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn keys_sharing_a_residue_stay_distinct() {
        // One pool shard's page ids: all congruent modulo the shard count.
        let mut m = IdHashMap::default();
        for k in 0..512u64 {
            m.insert(k * 8 + 3, k);
        }
        for k in 0..512u64 {
            assert_eq!(m.get(&(k * 8 + 3)), Some(&k));
            assert_eq!(m.get(&(k * 8 + 4)), None);
        }
        // Buckets come from the low bits of the finished hash: a residue
        // class must still spread over them.
        let low: std::collections::HashSet<u64> =
            (0..512u64).map(|k| hash_of(k * 8 + 3) & 511).collect();
        assert!(low.len() > 256, "only {} of 512 low-bit buckets", low.len());
    }

    #[test]
    fn integer_writes_fold_one_word_each() {
        // u32 and usize fold as their u64 value: one multiply each.
        assert_eq!(hash_of(7u32), hash_of(7u64));
        assert_eq!(hash_of(7usize), hash_of(7u64));
        assert_ne!(hash_of(7u64), hash_of(8u64));
        // Byte writes fold little-endian words, zero-padded.
        let mut h = IdHasher::default();
        h.write(&7u64.to_le_bytes());
        assert_eq!(h.finish(), hash_of(7u64));
    }
}
