//! Fault injection for robustness testing.
//!
//! [`FaultyFile`] wraps any [`PagedFile`] and injects failures according to
//! a [`FaultPlan`]: I/O errors on chosen pages or at a failure rate, and
//! deterministic bit corruption. Index structures built on the storage layer
//! must surface these as [`StorageError`]s — never panic — which the
//! integration suites assert by driving full queries over faulty disks.

use crate::{FrozenPages, Page, PageId, PagedFile, Result, StorageError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// What to inject.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Reads of these pages fail with an I/O error.
    pub fail_read_pages: Vec<u64>,
    /// Every `n`-th read fails (0 = disabled). Counted across all pages.
    pub fail_every_nth_read: u64,
    /// Reads of these pages succeed but return bit-flipped data.
    pub corrupt_pages: Vec<u64>,
    /// XOR mask applied to every byte of a corrupted page.
    pub corruption_mask: u8,
    /// Probability in `[0, 1]` that any read fails with a *transient* I/O
    /// error (drawn deterministically from [`seed`](Self::seed) and the
    /// read counter, so retries of the same page see fresh draws).
    pub transient_fail_rate: f64,
    /// Probability in `[0, 1]` that a successful read is hit by a latency
    /// spike of [`latency_spike_us`](Self::latency_spike_us).
    pub latency_spike_rate: f64,
    /// Extra simulated microseconds charged when a latency spike fires.
    pub latency_spike_us: f64,
    /// Seed for the deterministic fault stream backing the two rates.
    pub seed: u64,
}

/// `splitmix64` — a tiny, high-quality mixer; the standard seeding
/// permutation for xoshiro-family generators.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a 64-bit hash to a uniform draw in `[0, 1)`.
fn unit_draw(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// A plan that corrupts exactly one page.
    pub fn corrupt_one(page: u64) -> Self {
        FaultPlan {
            corrupt_pages: vec![page],
            corruption_mask: 0xA5,
            ..Default::default()
        }
    }

    /// A plan that fails reads of exactly one page.
    pub fn fail_one(page: u64) -> Self {
        FaultPlan {
            fail_read_pages: vec![page],
            ..Default::default()
        }
    }

    /// A plan that fails **every** read: the device is dead. Used to model
    /// a replica whose backing file is gone entirely.
    pub fn dead() -> Self {
        FaultPlan {
            fail_every_nth_read: 1,
            ..Default::default()
        }
    }

    /// A plan that fails each read with probability `rate`, seeded.
    pub fn transient(rate: f64, seed: u64) -> Self {
        FaultPlan {
            transient_fail_rate: rate,
            seed,
            ..Default::default()
        }
    }

    /// Whether read number `nth` (1-based, the value of the read counter
    /// *after* incrementing) of page `page` draws a transient failure.
    fn draws_transient(&self, nth: u64, page: u64) -> bool {
        self.transient_fail_rate > 0.0
            && unit_draw(splitmix64(
                self.seed ^ nth.wrapping_mul(0x517c_c1b7_2722_0a95) ^ page,
            )) < self.transient_fail_rate
    }

    /// Latency-spike microseconds for read number `nth` of `page` (0 if the
    /// spike does not fire).
    pub(crate) fn draws_spike_us(&self, nth: u64, page: u64) -> f64 {
        if self.latency_spike_rate > 0.0
            && unit_draw(splitmix64(
                self.seed ^ 0xd6e8_feb8_6659_fd93 ^ nth.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ page,
            )) < self.latency_spike_rate
        {
            self.latency_spike_us
        } else {
            0.0
        }
    }

    /// Whether read `nth` (1-based) trips the deterministic fail rules.
    pub(crate) fn fails_read(&self, nth: u64, page: u64) -> bool {
        self.fail_read_pages.contains(&page)
            || (self.fail_every_nth_read > 0 && nth.is_multiple_of(self.fail_every_nth_read))
            || self.draws_transient(nth, page)
    }
}

/// A [`PagedFile`] wrapper that injects faults per a [`FaultPlan`].
///
/// This is the fake substituted under structures generic over
/// [`PagedFile`] (the R-tree's fault-tolerance tests) to prove injected
/// faults surface as typed errors. Nothing wrapping it retries or verifies
/// checksums; queries over frozen stores inject through
/// [`SharedFaultyFile`] instead, on the buffer pool's miss path, where
/// retries and checksum admission live.
///
/// # Read counting
///
/// Every `read_page` call increments the read counter, **including the
/// calls that fail with an injected fault**. `fail_every_nth_read: n`
/// therefore fails reads number `n, 2n, 3n, …` of *all attempts*, not of
/// successful reads only — so a caller that blindly retries a failed read
/// gets a fresh (usually passing) draw, and the pattern over nine reads
/// with `n = 3` is exactly `ok ok FAIL ok ok FAIL ok ok FAIL`. The
/// [`reads`](Self::reads) and [`injected`](Self::injected) accessors expose
/// both counters for tests that assert this.
///
/// Latency spikes ([`FaultPlan::latency_spike_rate`]) are inert here: a
/// bare [`PagedFile`] has no cost channel. They take effect on the metered
/// pool path ([`SharedFaultyFile`]).
#[derive(Debug)]
pub struct FaultyFile<F> {
    inner: F,
    plan: FaultPlan,
    reads: u64,
    injected: u64,
}

impl<F: PagedFile> FaultyFile<F> {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: F, plan: FaultPlan) -> Self {
        FaultyFile {
            inner,
            plan,
            reads: 0,
            injected: 0,
        }
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Total `read_page` attempts so far, failed attempts included.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Disables all further injection (passthrough mode).
    pub fn disarm(&mut self) {
        self.plan = FaultPlan::default();
    }

    /// The wrapped file.
    pub fn into_inner(self) -> F {
        self.inner
    }
}

impl<F: PagedFile> PagedFile for FaultyFile<F> {
    fn read_page(&mut self, id: PageId, out: &mut Page) -> Result<()> {
        self.reads += 1;
        if self.plan.fails_read(self.reads, id.0) {
            self.injected += 1;
            return Err(StorageError::Io(std::io::Error::other(format!(
                "injected read fault at {id}"
            ))));
        }
        self.inner.read_page(id, out)?;
        if self.plan.corrupt_pages.contains(&id.0) {
            self.injected += 1;
            for b in out.bytes_mut() {
                *b ^= self.plan.corruption_mask;
            }
        }
        Ok(())
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<()> {
        self.inner.write_page(id, page)
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        self.inner.allocate_page()
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
}

/// Lock-free fault injection over immutable [`FrozenPages`], for
/// chaos-testing the concurrent read path.
///
/// [`SharedCachedFile`](crate::SharedCachedFile) consults an armed
/// `SharedFaultyFile` on pool *misses* only (pooled frames were already
/// verified at admission); every session sharing the pool draws from the
/// same deterministic fault stream. All counters are relaxed atomics — the
/// exact interleaving under concurrency is not deterministic, but the
/// *totals* and the per-read draw function are.
#[derive(Debug)]
pub struct SharedFaultyFile {
    data: FrozenPages,
    plan: FaultPlan,
    reads: AtomicU64,
    injected: AtomicU64,
    armed: AtomicBool,
}

impl SharedFaultyFile {
    /// Wraps `data` with `plan`, armed.
    pub fn new(data: FrozenPages, plan: FaultPlan) -> Self {
        SharedFaultyFile {
            data,
            plan,
            reads: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            armed: AtomicBool::new(true),
        }
    }

    /// Reads page `id` into `out`, injecting faults per the plan.
    ///
    /// Returns the latency-spike microseconds to charge for this read
    /// (0 when no spike fires). Injected I/O failures and corrupted bytes
    /// count toward [`injected`](Self::injected); like [`FaultyFile`],
    /// failed attempts still increment [`reads`](Self::reads).
    pub fn read_into(&self, id: PageId, out: &mut [u8]) -> Result<f64> {
        // Bounds precede the fault stream: an out-of-range id is a caller
        // bug, not a read attempt, and must not advance the plan's draws.
        self.data.check(id)?;
        if !self.armed.load(Ordering::Relaxed) {
            self.data.read_into(id, out)?;
            return Ok(0.0);
        }
        let nth = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.fails_read(nth, id.0) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Io(std::io::Error::other(format!(
                "injected read fault at {id}"
            ))));
        }
        self.data.read_into(id, out)?;
        if self.plan.corrupt_pages.contains(&id.0) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            for b in out.iter_mut() {
                *b ^= self.plan.corruption_mask;
            }
        }
        Ok(self.plan.draws_spike_us(nth, id.0))
    }

    /// Total read attempts so far, failed attempts included.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Disables all further injection (passthrough mode). Unlike
    /// [`FaultyFile::disarm`] this needs no `&mut`, so live sessions keep
    /// their handles.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemPagedFile;

    fn file_with(n: u64) -> MemPagedFile {
        let mut f = MemPagedFile::new();
        for i in 0..n {
            let id = f.allocate_page().unwrap();
            f.write_page(id, &Page::from_bytes(&[i as u8; 16])).unwrap();
        }
        f
    }

    #[test]
    fn fail_specific_page() {
        let mut f = FaultyFile::new(file_with(3), FaultPlan::fail_one(1));
        let mut p = Page::zeroed();
        assert!(f.read_page(PageId(0), &mut p).is_ok());
        assert!(f.read_page(PageId(1), &mut p).is_err());
        assert!(f.read_page(PageId(2), &mut p).is_ok());
        assert_eq!(f.injected(), 1);
    }

    #[test]
    fn fail_every_nth() {
        let plan = FaultPlan {
            fail_every_nth_read: 3,
            ..Default::default()
        };
        let mut f = FaultyFile::new(file_with(1), plan);
        let mut p = Page::zeroed();
        let results: Vec<bool> = (0..9)
            .map(|_| f.read_page(PageId(0), &mut p).is_ok())
            .collect();
        assert_eq!(
            results,
            vec![true, true, false, true, true, false, true, true, false]
        );
        assert_eq!(f.injected(), 3);
    }

    #[test]
    fn corruption_flips_bits() {
        let mut f = FaultyFile::new(file_with(2), FaultPlan::corrupt_one(0));
        let mut p = Page::zeroed();
        f.read_page(PageId(0), &mut p).unwrap();
        assert_eq!(p.bytes()[0], 0xA5); // 0 ^ 0xA5
        f.read_page(PageId(1), &mut p).unwrap();
        assert_eq!(p.bytes()[0], 1); // untouched
        assert_eq!(f.injected(), 1);
    }

    #[test]
    fn disarm_restores_normal_operation() {
        let mut f = FaultyFile::new(file_with(1), FaultPlan::fail_one(0));
        let mut p = Page::zeroed();
        assert!(f.read_page(PageId(0), &mut p).is_err());
        f.disarm();
        assert!(f.read_page(PageId(0), &mut p).is_ok());
    }

    #[test]
    fn writes_pass_through() {
        let mut f = FaultyFile::new(file_with(1), FaultPlan::fail_one(0));
        assert!(f.write_page(PageId(0), &Page::from_bytes(b"x")).is_ok());
        assert_eq!(f.page_count(), 1);
        let inner = f.into_inner();
        assert_eq!(inner.page_count(), 1);
    }

    #[test]
    fn injected_failures_count_as_reads() {
        // The documented contract: the read counter advances on failed
        // attempts too, so nth-read faults fail *attempts*, not successes.
        let plan = FaultPlan {
            fail_every_nth_read: 2,
            ..Default::default()
        };
        let mut f = FaultyFile::new(file_with(1), plan);
        let mut p = Page::zeroed();
        for _ in 0..6 {
            let _ = f.read_page(PageId(0), &mut p);
        }
        assert_eq!(f.reads(), 6, "failed attempts must increment reads");
        assert_eq!(f.injected(), 3);
    }

    #[test]
    fn transient_rate_is_seeded_and_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let mut f = FaultyFile::new(file_with(1), FaultPlan::transient(0.3, seed));
            let mut p = Page::zeroed();
            (0..64)
                .map(|_| f.read_page(PageId(0), &mut p).is_ok())
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed, same stream");
        assert_ne!(run(42), run(43), "different seed, different stream");
        let fails = run(42).iter().filter(|ok| !**ok).count();
        assert!((5..=25).contains(&fails), "rate ~0.3 of 64, got {fails}");
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let mut f = FaultyFile::new(file_with(2), FaultPlan::transient(0.0, 7));
        let mut p = Page::zeroed();
        for _ in 0..32 {
            f.read_page(PageId(1), &mut p).unwrap();
        }
        assert_eq!(f.injected(), 0);
    }

    #[test]
    fn shared_faulty_file_matches_plan() {
        let frozen = FrozenPages::from_mem(file_with(3));
        let f = SharedFaultyFile::new(frozen, FaultPlan::corrupt_one(1));
        let mut buf = vec![0u8; crate::PAGE_SIZE];
        assert_eq!(f.read_into(PageId(0), &mut buf).unwrap(), 0.0);
        assert_eq!(buf[0], 0);
        f.read_into(PageId(1), &mut buf).unwrap();
        assert_eq!(buf[0], 1 ^ 0xA5, "page 1 corrupted");
        assert_eq!(f.injected(), 1);
        assert_eq!(f.reads(), 2);
    }

    #[test]
    fn shared_faulty_file_disarm_is_shared() {
        let frozen = FrozenPages::from_mem(file_with(1));
        let f = SharedFaultyFile::new(frozen, FaultPlan::fail_one(0));
        let mut buf = vec![0u8; crate::PAGE_SIZE];
        assert!(f.read_into(PageId(0), &mut buf).is_err());
        f.disarm();
        assert!(f.read_into(PageId(0), &mut buf).is_ok());
        assert_eq!(buf[0], 0, "clean bytes after disarm");
    }

    #[test]
    fn shared_faulty_file_latency_spikes_are_bounded_and_seeded() {
        let frozen = FrozenPages::from_mem(file_with(1));
        let plan = FaultPlan {
            latency_spike_rate: 0.5,
            latency_spike_us: 250.0,
            seed: 9,
            ..Default::default()
        };
        let f = SharedFaultyFile::new(frozen, plan);
        let mut buf = vec![0u8; crate::PAGE_SIZE];
        let spikes: Vec<f64> = (0..32)
            .map(|_| f.read_into(PageId(0), &mut buf).unwrap())
            .collect();
        assert!(spikes.iter().all(|&s| s == 0.0 || s == 250.0));
        let hits = spikes.iter().filter(|&&s| s > 0.0).count();
        assert!((4..=28).contains(&hits), "rate ~0.5 of 32, got {hits}");
    }

    #[test]
    fn shared_faulty_file_oob_is_not_an_injection() {
        let frozen = FrozenPages::from_mem(file_with(1));
        let f = SharedFaultyFile::new(frozen, FaultPlan::default());
        let mut buf = vec![0u8; crate::PAGE_SIZE];
        assert!(matches!(
            f.read_into(PageId(5), &mut buf),
            Err(StorageError::PageOutOfBounds { .. })
        ));
        assert_eq!(f.reads(), 0, "bounds errors precede the fault stream");
    }
}
