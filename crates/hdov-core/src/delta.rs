//! Delta search: the walkthrough optimisation of §5.4.
//!
//! "For VISUAL, the search algorithm can be improved to a 'delta' search
//! algorithm which does not retrieve objects that have been retrieved in the
//! previous queries. As the models stored in the database are heavy-weighted,
//! delta search can reduce the I/O cost significantly."
//!
//! [`DeltaSearch`] tracks the resident set (model key → LoD level and bytes)
//! across a sequence of queries and accounts resident/peak memory — the
//! numbers behind the paper's 28 MB (VISUAL) vs 62 MB (REVIEW) comparison.
//! A [`Query`](crate::Query) carries it as its `resident` set: every
//! traversal looks resident levels up in place
//! ([`resident_level`](DeltaSearch::resident_level)), and the caller folds
//! the answer back in with [`apply`](DeltaSearch::apply) or
//! [`merge`](DeltaSearch::merge).

use crate::search::{QueryResult, ResultKey};
use std::collections::HashMap;

/// Outcome of folding one query into the resident set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaSummary {
    /// Entries fetched this query (new key, or level change).
    pub added: usize,
    /// Entries reused from the resident set.
    pub retained: usize,
    /// Entries evicted because they left the result set.
    pub evicted: usize,
}

/// Resident-set tracker for walkthrough sessions.
#[derive(Debug, Default)]
pub struct DeltaSearch {
    resident: HashMap<ResultKey, (usize, u64)>, // level, bytes
    /// The map [`apply`](Self::apply) builds the next resident set in,
    /// then swaps with `resident`: cleared and reused, so a frame's apply
    /// allocates nothing once both maps have grown to the working set.
    next: HashMap<ResultKey, (usize, u64)>,
    resident_bytes: u64,
    peak_bytes: u64,
}

impl DeltaSearch {
    /// An empty resident set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The LoD level at which `key` is resident, if it is.
    pub fn resident_level(&self, key: ResultKey) -> Option<usize> {
        self.resident.get(&key).map(|&(level, _)| level)
    }

    /// Folds a query result into the resident set: newly fetched entries are
    /// added, reused entries retained, and entries absent from the result are
    /// evicted (the paper's systems do not cache beyond the active set).
    pub fn apply(&mut self, result: &QueryResult) -> DeltaSummary {
        let mut summary = DeltaSummary::default();
        self.next.clear();
        for e in result.entries() {
            if e.cached {
                summary.retained += 1;
            } else {
                summary.added += 1;
            }
            self.next.insert(e.key, (e.level, e.bytes));
        }
        summary.evicted = self
            .resident
            .keys()
            .filter(|k| !self.next.contains_key(k))
            .count();
        std::mem::swap(&mut self.resident, &mut self.next);
        self.resident_bytes = self.resident.values().map(|&(_, b)| b).sum();
        self.peak_bytes = self.peak_bytes.max(self.resident_bytes);
        summary
    }

    /// Merges a (possibly partial) result into the resident set without
    /// evicting anything — used by budget-truncated progressive frames,
    /// where absence from the result only means "not re-confirmed yet".
    pub fn merge(&mut self, result: &QueryResult) -> DeltaSummary {
        let mut summary = DeltaSummary::default();
        for e in result.entries() {
            if e.cached {
                summary.retained += 1;
            } else {
                summary.added += 1;
            }
            self.resident.insert(e.key, (e.level, e.bytes));
        }
        self.resident_bytes = self.resident.values().map(|&(_, b)| b).sum();
        self.peak_bytes = self.peak_bytes.max(self.resident_bytes);
        summary
    }

    /// Iterates over the resident keys (what is currently "on screen").
    pub fn resident_keys(&self) -> impl Iterator<Item = ResultKey> + '_ {
        self.resident.keys().copied()
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Peak resident bytes over the session.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Number of resident models.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Empties the resident set (peak is kept).
    pub fn clear(&mut self) {
        self.resident.clear();
        self.resident_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::ResultEntry;

    fn result(entries: Vec<ResultEntry>) -> QueryResult {
        let mut r = QueryResult::default();
        for e in entries {
            r.push_for_test(e);
        }
        r
    }

    fn obj(id: u64, level: usize, bytes: u64, cached: bool) -> ResultEntry {
        ResultEntry {
            key: ResultKey::Object(id),
            level,
            polygons: bytes / 10,
            bytes,
            dov: 0.1,
            cached,
        }
    }

    #[test]
    fn first_apply_adds_everything() {
        let mut d = DeltaSearch::new();
        let s = d.apply(&result(vec![obj(1, 0, 100, false), obj(2, 1, 50, false)]));
        assert_eq!(
            s,
            DeltaSummary {
                added: 2,
                retained: 0,
                evicted: 0
            }
        );
        assert_eq!(d.resident_bytes(), 150);
        assert_eq!(d.resident_count(), 2);
    }

    #[test]
    fn retained_and_evicted_tracked() {
        let mut d = DeltaSearch::new();
        d.apply(&result(vec![obj(1, 0, 100, false), obj(2, 1, 50, false)]));
        // Object 1 reused (cached), object 2 gone, object 3 new.
        let s = d.apply(&result(vec![obj(1, 0, 100, true), obj(3, 0, 70, false)]));
        assert_eq!(
            s,
            DeltaSummary {
                added: 1,
                retained: 1,
                evicted: 1
            }
        );
        assert_eq!(d.resident_bytes(), 170);
    }

    #[test]
    fn peak_survives_eviction() {
        let mut d = DeltaSearch::new();
        d.apply(&result(vec![obj(1, 0, 1000, false)]));
        d.apply(&result(vec![obj(2, 0, 10, false)]));
        assert_eq!(d.peak_bytes(), 1000);
        assert_eq!(d.resident_bytes(), 10);
    }

    #[test]
    fn resident_level_reflects_levels() {
        let mut d = DeltaSearch::new();
        d.apply(&result(vec![obj(7, 2, 40, false)]));
        assert_eq!(d.resident_level(ResultKey::Object(7)), Some(2));
        assert_eq!(d.resident_level(ResultKey::Object(8)), None);
        assert_eq!(d.resident_level(ResultKey::Internal(7)), None);
        d.merge(&result(vec![obj(7, 0, 90, false)]));
        assert_eq!(d.resident_level(ResultKey::Object(7)), Some(0));
    }

    #[test]
    fn clear_resets_resident_not_peak() {
        let mut d = DeltaSearch::new();
        d.apply(&result(vec![obj(1, 0, 500, false)]));
        d.clear();
        assert_eq!(d.resident_bytes(), 0);
        assert_eq!(d.resident_count(), 0);
        assert_eq!(d.peak_bytes(), 500);
    }
}
