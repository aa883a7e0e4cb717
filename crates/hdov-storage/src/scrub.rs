//! Background scrubbing: proactive, budgeted verification sweeps that find
//! latent corruption before a query does, and repair it from a healthy
//! replica.
//!
//! A [`Scrubber`] walks every replica of a pool's
//! [`ReplicaSet`](crate::ReplicaSet) in
//! sequential runs (one positioned read per run, the same streaming-scan
//! discipline as the vectored prefetch path), verifies each page against
//! the trusted checksum table, and hands any mismatch to
//! [`ReplicaSet::repair`](crate::ReplicaSet::repair) with bytes recovered
//! from the first healthy
//! replica. Pages with *no* healthy copy anywhere stay quarantined and are
//! reported as unrepairable — the one case where the read path's
//! LoD-degradation fallback remains the last resort.
//!
//! **Budget currency is wall-clock time**: with
//! [`ScrubConfig::pages_per_second`] set, every run of `R` pages costs
//! `R / pages_per_second` seconds of wall time (the scrubber pauses the full
//! quota regardless of how fast the read finished), so a scrub can be pinned
//! well below a disk's throughput and never competes with foreground I/O.
//! The pause goes through a [`ScrubClock`] seam: production sleeps for real,
//! tests swap in [`ManualScrubClock`] and assert the requested budget exactly.
//! Simulated time is never charged: scrubbing is maintenance, not a session
//! workload, and fault-free benchmark figures are unchanged by running it.
//!
//! Verification always reads **fresh from disk** (a dedicated file handle
//! per replica, bypassing the pool), so a store verifies by its on-disk
//! bytes, never by a pooled copy.

use crate::error::StoreOrigin;
use crate::shared::SharedCachedFile;
use crate::{page_checksum, FrozenPages, PageId, Result, PAGE_SIZE};
use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The scrubber's time source.
///
/// Production scrubbing throttles with real [`std::thread::sleep`]; tests
/// swap in a [`ManualScrubClock`] that *records* every requested pause
/// instead of taking it, so the pages/second budget is asserted exactly —
/// no sleep, no timer-resolution flake.
#[derive(Debug, Clone, Default)]
pub enum ScrubClock {
    /// Real wall-clock throttling.
    #[default]
    Wall,
    /// Deterministic ledger: pauses are summed, never slept.
    Manual(Arc<ManualScrubClock>),
}

impl ScrubClock {
    fn pause(&self, d: Duration) {
        match self {
            ScrubClock::Wall => std::thread::sleep(d),
            ScrubClock::Manual(m) => {
                m.requested_us
                    .fetch_add(d.as_micros() as u64, Ordering::Relaxed);
            }
        }
    }
}

/// Deterministic stand-in for the scrub throttle's sleeps: accumulates the
/// total pause the budget *asked for*, in microseconds.
#[derive(Debug, Default)]
pub struct ManualScrubClock {
    requested_us: AtomicU64,
}

impl ManualScrubClock {
    /// A fresh zeroed clock, ready to hand to [`Scrubber::with_clock`].
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    /// Total pause the throttle has requested so far.
    pub fn requested(&self) -> Duration {
        Duration::from_micros(self.requested_us.load(Ordering::Relaxed))
    }
}

/// Scrub pacing and sweep geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubConfig {
    /// Pages per sequential run (one positioned read each).
    pub run_pages: u64,
    /// Wall-clock budget: the sweep is throttled to this many pages per
    /// second (`None` = unthrottled, for tests and one-shot CI sweeps).
    pub pages_per_second: Option<f64>,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            run_pages: 64,
            pages_per_second: None,
        }
    }
}

/// What a scrub sweep found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Pages verified (one per page per replica scanned).
    pub pages_scanned: u64,
    /// Pages whose on-disk bytes failed the trusted checksum.
    pub corrupt_found: u64,
    /// Corrupt pages healed from a healthy replica.
    pub repaired: u64,
    /// `(replica, page)` pairs with no healthy copy anywhere — left
    /// quarantined.
    pub unrepairable: Vec<(usize, u64)>,
}

impl ScrubReport {
    /// True when every corrupt page found was repaired.
    pub fn is_clean(&self) -> bool {
        self.unrepairable.is_empty()
    }

    /// Folds another sweep's report in (for multi-pool environments).
    pub fn merge(&mut self, other: ScrubReport) {
        self.pages_scanned += other.pages_scanned;
        self.corrupt_found += other.corrupt_found;
        self.repaired += other.repaired;
        self.unrepairable.extend(other.unrepairable);
    }
}

/// A raw, pool-free view of one replica for verification reads.
#[derive(Debug)]
enum RawReader {
    /// Mem stores are their own source of truth; read through the snapshot.
    Mem(FrozenPages),
    /// File stores get a dedicated handle so reads see the bytes on disk,
    /// never a pooled copy.
    File(File),
}

impl RawReader {
    fn open(data: &FrozenPages) -> Result<RawReader> {
        match data.origin() {
            StoreOrigin::Mem => Ok(RawReader::Mem(data.clone())),
            StoreOrigin::File(path) => Ok(RawReader::File(File::open(path)?)),
        }
    }

    fn read_run(&self, first: u64, len: u64, out: &mut [u8]) -> Result<()> {
        match self {
            RawReader::Mem(fp) => {
                for k in 0..len as usize {
                    fp.read_into(
                        PageId(first + k as u64),
                        &mut out[k * PAGE_SIZE..(k + 1) * PAGE_SIZE],
                    )?;
                }
                Ok(())
            }
            RawReader::File(f) => {
                crate::frozen::read_run_raw(f, first, len, out)?;
                hdov_obs::add(hdov_obs::Counter::PhysReads, 1);
                Ok(())
            }
        }
    }

    fn read_page(&self, id: u64, out: &mut [u8]) -> Result<()> {
        self.read_run(id, 1, out)
    }
}

/// Drives budgeted verification sweeps over a pool's replica set.
#[derive(Debug, Clone, Default)]
pub struct Scrubber {
    cfg: ScrubConfig,
    clock: ScrubClock,
}

impl Scrubber {
    /// A scrubber with the given pacing (throttled by real wall time).
    pub fn new(cfg: ScrubConfig) -> Self {
        Scrubber {
            cfg,
            clock: ScrubClock::Wall,
        }
    }

    /// Replaces the throttle's time source (tests pass
    /// [`ScrubClock::Manual`] to assert the budget without sleeping).
    pub fn with_clock(mut self, clock: ScrubClock) -> Self {
        self.clock = clock;
        self
    }

    /// The pacing in use.
    pub fn config(&self) -> ScrubConfig {
        self.cfg
    }

    /// Sweeps every replica behind `pool` once: verifies each page against
    /// the trusted table (`scrub_pages` per page), quarantines and repairs
    /// mismatches from the first healthy copy (`scrub_repairs` +
    /// `pages_repaired` per heal), and reports pairs no replica could heal.
    ///
    /// Errors only on environmental failures (a replica file that cannot be
    /// opened or read at all); corruption is never an error here — finding
    /// it is the job.
    pub fn scrub_pool(&self, pool: &SharedCachedFile) -> Result<ScrubReport> {
        let rs = pool.replica_set();
        let checksums = rs.checksums();
        let pages = pool.page_count();
        let run = self.cfg.run_pages.max(1);
        let readers: Vec<RawReader> = (0..rs.len())
            .map(|k| RawReader::open(rs.data(k)))
            .collect::<Result<_>>()?;
        let mut report = ScrubReport::default();
        let mut buf = vec![0u8; run as usize * PAGE_SIZE];
        let mut good = vec![0u8; PAGE_SIZE];
        for (k, reader) in readers.iter().enumerate() {
            let mut first = 0u64;
            while first < pages {
                let len = run.min(pages - first);
                reader.read_run(first, len, &mut buf)?;
                for i in 0..len {
                    let id = first + i;
                    let bytes = &buf[i as usize * PAGE_SIZE..(i as usize + 1) * PAGE_SIZE];
                    hdov_obs::add(hdov_obs::Counter::ScrubPages, 1);
                    report.pages_scanned += 1;
                    if page_checksum(bytes) == checksums[id as usize] {
                        rs.note_clean(k, id);
                        continue;
                    }
                    report.corrupt_found += 1;
                    rs.quarantine(k, id);
                    let healthy = readers.iter().enumerate().any(|(j, other)| {
                        j != k
                            && other.read_page(id, &mut good).is_ok()
                            && page_checksum(&good) == checksums[id as usize]
                    });
                    if healthy {
                        rs.repair(k, id, &good)?;
                        hdov_obs::add(hdov_obs::Counter::ScrubRepairs, 1);
                        report.repaired += 1;
                    } else {
                        report.unrepairable.push((k, id));
                    }
                }
                if let Some(pps) = self.cfg.pages_per_second {
                    if pps > 0.0 {
                        self.clock.pause(Duration::from_secs_f64(len as f64 / pps));
                    }
                }
                first += len;
            }
        }
        Ok(report)
    }
}

/// Verifies every page of every replica fresh from disk without repairing
/// or counting anything; returns the `(replica, page)` pairs that fail.
/// The post-scrub "is the store really clean now?" check used by tests and
/// the CI scrub-chaos job.
pub fn verify_pool(pool: &SharedCachedFile) -> Result<Vec<(usize, u64)>> {
    let rs = pool.replica_set();
    let checksums = rs.checksums();
    let mut bad = Vec::new();
    let mut buf = vec![0u8; PAGE_SIZE];
    for k in 0..rs.len() {
        let reader = RawReader::open(rs.data(k))?;
        for id in 0..pool.page_count() {
            reader.read_page(id, &mut buf)?;
            if page_checksum(&buf) != checksums[id as usize] {
                bad.push((k, id));
            }
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskModel, MemPagedFile, Page, PagedFile};
    use std::os::unix::fs::FileExt;

    fn built(n: u64) -> MemPagedFile {
        let mut f = MemPagedFile::new();
        for i in 0..n {
            let id = f.allocate_page().unwrap();
            let mut p = Page::zeroed();
            p.bytes_mut()[..8].copy_from_slice(&i.to_le_bytes());
            f.write_page(id, &p).unwrap();
        }
        f
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hdov_scrub_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn flip(path: &std::path::Path, page: u64) {
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .unwrap();
        let mut b = [0u8; 1];
        let off = crate::frozen::StoreLayout::page_offset(page);
        f.read_exact_at(&mut b, off).unwrap();
        b[0] ^= 0xFF;
        f.write_all_at(&b, off).unwrap();
        f.sync_all().unwrap();
    }

    /// A 2-replica pread-backed pool over a freshly written store pair.
    fn replicated_pool(dir: &std::path::Path, pages: u64) -> SharedCachedFile {
        let frozen = FrozenPages::from_mem(built(pages));
        let paths = [dir.join("s.hdov"), dir.join("s.r1.hdov")];
        frozen.write_replicated(&paths, 1, 0).unwrap();
        let primary = FrozenPages::open_pread(&paths[0]).unwrap();
        let extra = FrozenPages::open_pread(&paths[1]).unwrap();
        SharedCachedFile::new(primary.with_replicas(vec![extra]), DiskModel::FREE, 8, 2)
    }

    #[test]
    fn clean_store_scrubs_clean() {
        let dir = tmp("clean");
        let pool = replicated_pool(&dir, 5);
        let report = Scrubber::default().scrub_pool(&pool).unwrap();
        assert_eq!(report.pages_scanned, 10, "5 pages × 2 replicas");
        assert_eq!(report.corrupt_found, 0);
        assert_eq!(report.repaired, 0);
        assert!(report.is_clean());
        assert!(verify_pool(&pool).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scrub_finds_and_repairs_seeded_corruption() {
        let dir = tmp("repair");
        let pool = replicated_pool(&dir, 6);
        // Corrupt disjoint pages on both replicas *after* open.
        flip(&dir.join("s.hdov"), 2);
        flip(&dir.join("s.hdov"), 4);
        flip(&dir.join("s.r1.hdov"), 1);
        assert_eq!(verify_pool(&pool).unwrap().len(), 3);
        let report = Scrubber::new(ScrubConfig {
            run_pages: 2,
            pages_per_second: None,
        })
        .scrub_pool(&pool)
        .unwrap();
        assert_eq!(report.corrupt_found, 3);
        assert_eq!(report.repaired, 3);
        assert!(report.is_clean());
        assert!(
            verify_pool(&pool).unwrap().is_empty(),
            "store healed on disk"
        );
        assert_eq!(pool.replica_set().status().pages_repaired, 3);
        // A second sweep finds nothing.
        let again = Scrubber::default().scrub_pool(&pool).unwrap();
        assert_eq!(again.corrupt_found, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn page_corrupt_on_every_replica_is_unrepairable_and_quarantined() {
        let dir = tmp("unrepairable");
        let pool = replicated_pool(&dir, 4);
        flip(&dir.join("s.hdov"), 3);
        flip(&dir.join("s.r1.hdov"), 3);
        let report = Scrubber::default().scrub_pool(&pool).unwrap();
        assert_eq!(report.corrupt_found, 2);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.unrepairable, vec![(0, 3), (1, 3)]);
        assert!(!report.is_clean());
        let h = pool.replica_set().status();
        assert_eq!(h.quarantined_pages, 2, "both copies stay quarantined");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn throttled_scrub_requests_exactly_the_budget() {
        let dir = tmp("budget");
        let pool = replicated_pool(&dir, 4);
        // 4 pages × 2 replicas in runs of 2 = 4 runs; each run of 2 pages at
        // 400 pages/sec pauses 5ms → exactly 20ms requested, zero slept.
        let clock = ManualScrubClock::new();
        Scrubber::new(ScrubConfig {
            run_pages: 2,
            pages_per_second: Some(400.0),
        })
        .with_clock(ScrubClock::Manual(clock.clone()))
        .scrub_pool(&pool)
        .unwrap();
        assert_eq!(clock.requested(), Duration::from_millis(20));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unthrottled_scrub_requests_no_pause() {
        let dir = tmp("nopause");
        let pool = replicated_pool(&dir, 3);
        let clock = ManualScrubClock::new();
        Scrubber::default()
            .with_clock(ScrubClock::Manual(clock.clone()))
            .scrub_pool(&pool)
            .unwrap();
        assert_eq!(clock.requested(), Duration::ZERO);
        std::fs::remove_dir_all(&dir).ok();
    }
}
