//! Replicated frozen stores: quarantine, failover accounting, and in-place
//! page repair.
//!
//! A [`ReplicaSet`] owns N byte-identical copies of one frozen store (the
//! primary plus the extras attached by
//! [`FrozenPages::with_replicas`](crate::FrozenPages::with_replicas), padded
//! with clones of the primary for mem-backed stores) and the health book the
//! self-healing read path needs:
//!
//! * **per-replica fault slots** — chaos tests arm each copy's
//!   [`SharedFaultyFile`] independently, so a plan can kill replica 0
//!   outright while the others stay healthy;
//! * **quarantine** — the first checksum failure of a `(replica, page)`
//!   pair is recorded (and counted once as `quarantined_pages`); quarantine
//!   is *bookkeeping only* — reads still try every replica every time, so
//!   there is no negative caching and a transiently-corrupting injector
//!   that is disarmed reads clean again immediately;
//! * **repair** — once a healthy replica supplies bytes that verify against
//!   the trusted checksum table, every replica whose copy of the page was
//!   corrupt is rewritten in place ([`crate::frozen::repair_page`]: page +
//!   full sidecar restamp + read-back verify) under a **per-page repair
//!   lock**, so concurrent sessions discovering the same bad page repair it
//!   exactly once. Mem-backed replicas cannot rot on their own (their bytes
//!   *are* the trusted table's source), so their "repair" re-verifies the
//!   store and clears the quarantine.
//!
//! The trusted checksum table is captured from the primary at construction;
//! every repair can only restore a page to the bytes that table already
//! promised, so a store can be healed but never changed.

use crate::error::StoreOrigin;
use crate::frozen::StoreLayout;
use crate::{
    page_checksum, FaultPlan, FrozenPages, PageId, Result, SharedFaultyFile, StorageError,
    PAGE_SIZE,
};
use std::collections::HashMap;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Locks a health/repair map, recovering from poison (the maps hold plain
/// bookkeeping with no cross-panic invariants; one crashed session must not
/// wedge every other session's repairs).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Health of one `(replica, page)` pair that has seen a checksum failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageHealth {
    /// Corrupt bytes observed; no verified repair yet.
    Quarantined,
    /// Rewritten (or re-verified, for mem replicas) from a healthy copy.
    /// A later clean read clears the entry entirely.
    Repaired,
}

/// One copy of the store plus its fault slot and page-health book.
#[derive(Debug)]
struct Replica {
    data: FrozenPages,
    /// Armed at most once per replica (first plan wins), like the pool-level
    /// injector it generalizes.
    faults: OnceLock<Arc<SharedFaultyFile>>,
    health: Mutex<HashMap<u64, PageHealth>>,
    /// Per-page repair locks: sessions racing to repair the same page
    /// serialize here (and only here), so the rewrite happens once.
    repair_locks: Mutex<HashMap<u64, Arc<Mutex<()>>>>,
}

impl Replica {
    fn new(data: FrozenPages) -> Self {
        Replica {
            data,
            faults: OnceLock::new(),
            health: Mutex::new(HashMap::new()),
            repair_locks: Mutex::new(HashMap::new()),
        }
    }
}

/// Aggregated replica-set health, reported per session-server run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// Copies of the store behind the read path (1 = unreplicated).
    pub replicas: usize,
    /// Reads served by a non-primary replica after the primary failed.
    pub failover_reads: u64,
    /// Pages rewritten (or re-verified, for mem replicas) from a healthy
    /// copy.
    pub pages_repaired: u64,
    /// Pages currently quarantined: corrupt bytes seen, no repair yet.
    pub quarantined_pages: u64,
}

impl ReplicaHealth {
    /// Folds another set's health in: counters sum, replica counts take the
    /// max (an environment reports the widest set behind any of its pools).
    pub fn merge(&mut self, other: &ReplicaHealth) {
        self.replicas = self.replicas.max(other.replicas);
        self.failover_reads += other.failover_reads;
        self.pages_repaired += other.pages_repaired;
        self.quarantined_pages += other.quarantined_pages;
    }

    /// True when nothing noteworthy happened — the fault-free steady state.
    pub fn is_clean(&self) -> bool {
        self.failover_reads == 0 && self.pages_repaired == 0 && self.quarantined_pages == 0
    }
}

/// N copies of one frozen store plus the quarantine/repair book.
///
/// Owned by every [`SharedCachedFile`](crate::SharedCachedFile); with one
/// replica and no faults it is pure bookkeeping (a single relaxed atomic
/// load per verified miss) and the read path is bit-identical to the
/// unreplicated one.
#[derive(Debug)]
pub struct ReplicaSet {
    checksums: Arc<[u64]>,
    replicas: Vec<Replica>,
    /// Set once any health entry exists anywhere; lets the fault-free hot
    /// path skip the health locks entirely.
    dirty: AtomicBool,
    failover_reads: AtomicU64,
    pages_repaired: AtomicU64,
}

impl ReplicaSet {
    /// Builds the set from a primary store: replica 0 is the primary
    /// itself, replicas 1.. are the stores attached via
    /// [`FrozenPages::with_replicas`](crate::FrozenPages::with_replicas).
    ///
    /// # Panics
    /// Panics when an attached replica's page count differs from the
    /// primary's (replicas are byte-identical copies by construction).
    pub fn new(primary: &FrozenPages) -> Self {
        let mut replicas = vec![Replica::new(primary.clone())];
        for extra in primary.replicas() {
            assert_eq!(
                extra.page_count(),
                primary.page_count(),
                "replica page counts must match the primary"
            );
            replicas.push(Replica::new(extra.clone()));
        }
        ReplicaSet {
            checksums: primary.checksum_table(),
            replicas,
            dirty: AtomicBool::new(false),
            failover_reads: AtomicU64::new(0),
            pages_repaired: AtomicU64::new(0),
        }
    }

    /// Pads the set to at least `n` replicas by cloning the primary — how
    /// mem-backed stores (whose `Arc`-shared pages need no extra files) get
    /// replication for chaos tests and examples.
    pub fn pad_to(&mut self, n: usize) {
        while self.replicas.len() < n {
            self.replicas
                .push(Replica::new(self.replicas[0].data.clone()));
        }
    }

    /// Number of replicas (≥ 1).
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Always false: a set holds at least the primary.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The store behind replica `k`.
    pub fn data(&self, k: usize) -> &FrozenPages {
        &self.replicas[k].data
    }

    /// The trusted per-page checksum table (captured from the primary).
    pub fn checksums(&self) -> &Arc<[u64]> {
        &self.checksums
    }

    /// Arms deterministic fault injection on replica `k`'s read path
    /// (first plan wins, like
    /// [`SharedCachedFile::arm_faults`](crate::SharedCachedFile::arm_faults)).
    pub fn arm(&self, k: usize, plan: &FaultPlan) -> Arc<SharedFaultyFile> {
        let r = &self.replicas[k];
        Arc::clone(
            r.faults
                .get_or_init(|| Arc::new(SharedFaultyFile::new(r.data.clone(), plan.clone()))),
        )
    }

    /// Replica `k`'s armed injector, if any.
    pub fn faults(&self, k: usize) -> Option<&Arc<SharedFaultyFile>> {
        self.replicas[k].faults.get()
    }

    /// Whether any replica has an armed injector (the single-`pread` run
    /// read disables itself when so).
    pub fn any_faults(&self) -> bool {
        self.replicas.iter().any(|r| r.faults.get().is_some())
    }

    /// Records a corrupt read of `page` on replica `k`. Counted (once per
    /// pair) as `quarantined_pages`; repaired pages are not re-quarantined —
    /// a copy that still serves bad bytes after its repair (an armed
    /// corruption fault) must not spin the counter.
    pub fn quarantine(&self, k: usize, page: u64) -> bool {
        let mut health = lock(&self.replicas[k].health);
        if health.contains_key(&page) {
            return false;
        }
        health.insert(page, PageHealth::Quarantined);
        drop(health);
        self.dirty.store(true, Ordering::Relaxed);
        hdov_obs::add(hdov_obs::Counter::QuarantinedPages, 1);
        true
    }

    /// Clears any health entry for `page` on replica `k` after a verified
    /// clean read — no negative caching, and a repaired page that reads
    /// clean leaves the book entirely. A single relaxed load when the set
    /// has never seen a failure.
    pub fn note_clean(&self, k: usize, page: u64) {
        if !self.dirty.load(Ordering::Relaxed) {
            return;
        }
        lock(&self.replicas[k].health).remove(&page);
    }

    /// Whether `(k, page)` is currently quarantined (corrupt, unrepaired).
    pub fn is_quarantined(&self, k: usize, page: u64) -> bool {
        matches!(
            lock(&self.replicas[k].health).get(&page),
            Some(PageHealth::Quarantined)
        )
    }

    /// Counts one read served by a non-primary replica.
    pub fn record_failover(&self) {
        self.failover_reads.fetch_add(1, Ordering::Relaxed);
        hdov_obs::add(hdov_obs::Counter::FailoverReads, 1);
    }

    /// Repairs `page` of replica `k` in place from `good` bytes (which must
    /// hash to the trusted table entry), under the pair's repair lock.
    ///
    /// File-backed replicas re-read the page from disk under the lock and
    /// rewrite only if the bytes there are actually bad — a session that
    /// lost the repair race performs no redundant write. Returns `Ok(true)` when this
    /// call healed the pair (counted as `pages_repaired`), `Ok(false)` when
    /// it was already healthy.
    pub fn repair(&self, k: usize, page: u64, good: &[u8]) -> Result<bool> {
        let expected = *self
            .checksums
            .get(page as usize)
            .ok_or_else(|| StorageError::Corrupt(format!("repair of page {page} out of bounds")))?;
        if good.len() < PAGE_SIZE || page_checksum(&good[..PAGE_SIZE]) != expected {
            return Err(StorageError::Corrupt(format!(
                "repair bytes for page {page} fail the trusted checksum"
            )));
        }
        let r = &self.replicas[k];
        let page_lock = Arc::clone(lock(&r.repair_locks).entry(page).or_default());
        let _guard = lock(&page_lock);
        let repaired_before = matches!(lock(&r.health).get(&page), Some(PageHealth::Repaired));
        let wrote = match r.data.origin() {
            StoreOrigin::Mem => {
                // Mem bytes are the trusted table's own source; a mismatch
                // here would mean the snapshot itself changed under us.
                let mut cur = vec![0u8; PAGE_SIZE];
                r.data.read_into(PageId(page), &mut cur)?;
                if page_checksum(&cur) != expected {
                    return Err(StorageError::Corrupt(format!(
                        "mem replica bytes for page {page} diverge from the trusted table"
                    )));
                }
                false
            }
            StoreOrigin::File(path) => {
                let file = std::fs::File::open(&path)?;
                let mut cur = vec![0u8; PAGE_SIZE];
                file.read_exact_at(&mut cur, StoreLayout::page_offset(page))?;
                drop(file);
                if page_checksum(&cur) == expected {
                    false // lost the race: disk is healthy
                } else {
                    crate::frozen::repair_page(&path, page, &good[..PAGE_SIZE], &self.checksums)?;
                    true
                }
            }
        };
        lock(&r.health).insert(page, PageHealth::Repaired);
        self.dirty.store(true, Ordering::Relaxed);
        let healed = wrote || !repaired_before;
        if healed {
            self.pages_repaired.fetch_add(1, Ordering::Relaxed);
            hdov_obs::add(hdov_obs::Counter::PagesRepaired, 1);
        }
        Ok(healed)
    }

    /// Current health: live counters plus the number of still-quarantined
    /// pages across all replicas.
    pub fn status(&self) -> ReplicaHealth {
        let quarantined = self
            .replicas
            .iter()
            .map(|r| {
                lock(&r.health)
                    .values()
                    .filter(|h| **h == PageHealth::Quarantined)
                    .count() as u64
            })
            .sum();
        ReplicaHealth {
            replicas: self.replicas.len(),
            failover_reads: self.failover_reads.load(Ordering::Relaxed),
            pages_repaired: self.pages_repaired.load(Ordering::Relaxed),
            quarantined_pages: quarantined,
        }
    }

    /// A fresh set over the same stores: same replica count and trusted
    /// table, but empty health book, zeroed counters, and unarmed fault
    /// slots (forks arm independently, like pool forks).
    pub fn fork(&self) -> Self {
        ReplicaSet {
            checksums: Arc::clone(&self.checksums),
            replicas: self
                .replicas
                .iter()
                .map(|r| Replica::new(r.data.clone()))
                .collect(),
            dirty: AtomicBool::new(false),
            failover_reads: AtomicU64::new(0),
            pages_repaired: AtomicU64::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemPagedFile, Page, PagedFile};

    fn frozen(n: u64) -> FrozenPages {
        let mut f = MemPagedFile::new();
        for i in 0..n {
            let id = f.allocate_page().unwrap();
            let mut p = Page::zeroed();
            p.bytes_mut()[..8].copy_from_slice(&i.to_le_bytes());
            f.write_page(id, &p).unwrap();
        }
        FrozenPages::from_mem(f)
    }

    #[test]
    fn pad_to_clones_the_primary() {
        let mut rs = ReplicaSet::new(&frozen(3));
        assert_eq!(rs.len(), 1);
        rs.pad_to(3);
        assert_eq!(rs.len(), 3);
        rs.pad_to(2); // never shrinks
        assert_eq!(rs.len(), 3);
        let mut buf = vec![0u8; PAGE_SIZE];
        rs.data(2).read_into(PageId(1), &mut buf).unwrap();
        assert_eq!(&buf[..8], &1u64.to_le_bytes());
        assert!(!rs.is_empty());
    }

    #[test]
    fn quarantine_counts_once_and_clean_reads_clear_it() {
        let mut rs = ReplicaSet::new(&frozen(2));
        rs.pad_to(2);
        assert!(rs.quarantine(0, 1), "first quarantine of the pair");
        assert!(!rs.quarantine(0, 1), "second is a no-op");
        assert!(rs.is_quarantined(0, 1));
        assert_eq!(rs.status().quarantined_pages, 1);
        rs.note_clean(0, 1);
        assert!(!rs.is_quarantined(0, 1));
        assert!(rs.status().is_clean());
    }

    #[test]
    fn mem_repair_reverifies_and_counts_once() {
        let mut rs = ReplicaSet::new(&frozen(2));
        rs.pad_to(2);
        rs.quarantine(1, 0);
        let mut good = vec![0u8; PAGE_SIZE];
        rs.data(0).read_into(PageId(0), &mut good).unwrap();
        assert!(rs.repair(1, 0, &good).unwrap());
        assert!(!rs.repair(1, 0, &good).unwrap(), "repair happens once");
        let h = rs.status();
        assert_eq!(h.pages_repaired, 1);
        assert_eq!(h.quarantined_pages, 0, "repair lifts the quarantine");
    }

    #[test]
    fn repair_refuses_bytes_that_fail_the_trusted_table() {
        let rs = ReplicaSet::new(&frozen(2));
        let junk = vec![0xA5u8; PAGE_SIZE];
        assert!(rs.repair(0, 0, &junk).is_err());
        assert!(rs.repair(0, 99, &junk).is_err());
        assert_eq!(rs.status().pages_repaired, 0);
    }

    #[test]
    fn per_replica_fault_slots_are_independent_and_first_wins() {
        let mut rs = ReplicaSet::new(&frozen(1));
        rs.pad_to(2);
        assert!(!rs.any_faults());
        let a = rs.arm(0, &FaultPlan::dead());
        assert!(rs.any_faults());
        assert!(rs.faults(1).is_none(), "replica 1 stays unarmed");
        let again = rs.arm(0, &FaultPlan::default());
        assert!(Arc::ptr_eq(&a, &again), "re-arming returns the first plan");
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(a.read_into(PageId(0), &mut buf).is_err(), "dead replica");
    }

    #[test]
    fn fork_resets_health_and_fault_slots() {
        let mut rs = ReplicaSet::new(&frozen(2));
        rs.pad_to(3);
        rs.arm(0, &FaultPlan::dead());
        rs.quarantine(0, 1);
        rs.record_failover();
        let fork = rs.fork();
        assert_eq!(fork.len(), 3, "fork keeps the replica count");
        assert!(!fork.any_faults());
        assert!(fork.status().is_clean());
        assert!(Arc::ptr_eq(fork.checksums(), rs.checksums()));
    }

    #[test]
    fn merge_sums_counters_and_maxes_replicas() {
        let mut a = ReplicaHealth {
            replicas: 2,
            failover_reads: 1,
            pages_repaired: 1,
            quarantined_pages: 0,
        };
        let b = ReplicaHealth {
            replicas: 3,
            failover_reads: 2,
            pages_repaired: 0,
            quarantined_pages: 4,
        };
        a.merge(&b);
        assert_eq!(a.replicas, 3);
        assert_eq!(a.failover_reads, 3);
        assert_eq!(a.pages_repaired, 1);
        assert_eq!(a.quarantined_pages, 4);
        assert!(!a.is_clean());
        assert!(ReplicaHealth::default().is_clean());
    }
}
