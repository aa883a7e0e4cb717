//! Simulated-disk cost model.
//!
//! The paper ran on a single IDE-era disk where the random/sequential gap is
//! the dominant effect (e.g. the horizontal scheme loses Fig. 7 purely on
//! seeks). [`SimulatedDisk`] wraps any [`PagedFile`] and charges:
//!
//! * `seek_us + transfer_us` for a *random* access (page ≠ previous page + 1),
//! * `transfer_us` for a *sequential* access.
//!
//! The accumulated [`IoStats`] is the sole time source for the experiment
//! harness, making results deterministic.

use crate::{page_checksum, IoStats, Page, PageId, PagedFile, Result, RetryPolicy, StorageError};

/// Disk timing parameters (microseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Cost of a seek (average seek + rotational delay).
    pub seek_us: f64,
    /// Cost of transferring one page once positioned.
    pub transfer_us: f64,
}

impl DiskModel {
    /// A circa-2002 commodity disk: ~8 ms average positioning, ~40 MB/s
    /// sequential transfer (≈ 0.1 ms per 4 KiB page).
    pub const PAPER_ERA: DiskModel = DiskModel {
        seek_us: 8000.0,
        transfer_us: 100.0,
    };

    /// A fast modern NVMe-like device, for sensitivity studies.
    pub const MODERN_SSD: DiskModel = DiskModel {
        seek_us: 80.0,
        transfer_us: 4.0,
    };

    /// Zero-cost model (pure counting).
    pub const FREE: DiskModel = DiskModel {
        seek_us: 0.0,
        transfer_us: 0.0,
    };
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel::PAPER_ERA
    }
}

/// A [`PagedFile`] wrapper that meters every access against a [`DiskModel`].
///
/// ```
/// use hdov_storage::{DiskModel, MemPagedFile, Page, PagedFile, SimulatedDisk};
/// let mut disk = SimulatedDisk::new(MemPagedFile::new(), DiskModel::PAPER_ERA);
/// let a = disk.append_page(&Page::from_bytes(b"hello")).unwrap();
/// let mut out = Page::zeroed();
/// disk.read_page(a, &mut out).unwrap();
/// let stats = disk.stats();
/// assert_eq!(stats.page_reads, 1);
/// assert!(stats.elapsed_us > 0.0); // seek + transfer were charged
/// ```
#[derive(Debug)]
pub struct SimulatedDisk<F> {
    inner: F,
    model: DiskModel,
    stats: IoStats,
    last_page: Option<u64>,
    /// Sidecar per-page checksum table, stamped by
    /// [`enable_checksums`](Self::enable_checksums) and kept fresh on every
    /// write. `None` until stamped. Verification costs zero simulated time.
    checksums: Option<Vec<u64>>,
    /// Per-page "verified since last stamp" bits. The backend is an
    /// immutable in-memory store between writes, so re-hashing a page
    /// already verified this generation can only re-measure the hasher —
    /// verification is amortized to once per page per stamp.
    verified: Vec<bool>,
    retry: RetryPolicy,
}

impl<F: PagedFile> SimulatedDisk<F> {
    /// Wraps `inner` with cost model `model`.
    pub fn new(inner: F, model: DiskModel) -> Self {
        SimulatedDisk {
            inner,
            model,
            stats: IoStats::new(),
            last_page: None,
            checksums: None,
            verified: Vec::new(),
            retry: RetryPolicy::default(),
        }
    }

    /// Stamps a checksum for every current page and verifies all future
    /// reads against the table (kept fresh by writes). Stamping reads the
    /// backend directly and charges no simulated time: integrity metadata
    /// is bookkeeping, not I/O.
    ///
    /// Call once the store is fully built — after this, a read whose bytes
    /// do not match the stamped table fails with
    /// [`StorageError::Corrupt`] before any cost is charged.
    pub fn enable_checksums(&mut self) -> Result<()> {
        let mut table = Vec::with_capacity(self.inner.page_count() as usize);
        let mut page = Page::zeroed();
        for id in 0..self.inner.page_count() {
            self.inner.read_page(PageId(id), &mut page)?;
            table.push(page_checksum(page.bytes()));
        }
        self.verified = vec![false; table.len()];
        self.checksums = Some(table);
        Ok(())
    }

    /// Whether [`enable_checksums`](Self::enable_checksums) has run.
    pub fn checksums_enabled(&self) -> bool {
        self.checksums.is_some()
    }

    /// Sets the transient-failure retry policy (default:
    /// [`RetryPolicy::default`]). Inert unless the backend fails
    /// transiently (for example a [`FaultyFile`](crate::FaultyFile)).
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Accumulated statistics since construction or the last
    /// [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Clears counters (the head position memory is kept).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::new();
    }

    /// The cost model in use.
    pub fn model(&self) -> DiskModel {
        self.model
    }

    /// Read-only access to the wrapped backend.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// Consumes the wrapper, returning the backend.
    pub fn into_inner(self) -> F {
        self.inner
    }

    /// Consumes the wrapper into what a buffer pool over the same pages
    /// needs: the backend, the cost model, the head position (the last
    /// page touched, if any), and the stamped checksum table, if any.
    pub(crate) fn into_parts(self) -> (F, DiskModel, Option<u64>, Option<Vec<u64>>) {
        (self.inner, self.model, self.last_page, self.checksums)
    }

    /// Replaces the wrapped backend, returning the old one. Stats, the
    /// head position, and any enabled checksum table are all kept, so the
    /// new backend must hold byte-identical pages (the table and the
    /// per-page `verified` memoization stay valid).
    pub fn swap_inner(&mut self, inner: F) -> F {
        std::mem::replace(&mut self.inner, inner)
    }

    fn charge(&mut self, id: PageId, is_read: bool) {
        let sequential =
            self.last_page == Some(id.0.wrapping_sub(1)) || self.last_page == Some(id.0);
        let cost = if sequential {
            self.model.transfer_us
        } else {
            self.model.seek_us + self.model.transfer_us
        };
        self.stats.elapsed_us += cost;
        if is_read {
            self.stats.page_reads += 1;
            if sequential {
                self.stats.sequential_reads += 1;
            } else {
                self.stats.random_reads += 1;
            }
        } else {
            self.stats.page_writes += 1;
        }
        self.last_page = Some(id.0);
    }
}

impl<F: PagedFile> SimulatedDisk<F> {
    /// Verifies `out` against the stamped table (no-op when disabled).
    ///
    /// Amortized: a page re-read since its last stamp-and-verify is skipped
    /// (the in-memory backend cannot rot between writes).
    fn verify(&mut self, id: PageId, out: &Page) -> Result<()> {
        let slot = id.0 as usize;
        if self.verified.get(slot).copied().unwrap_or(false) {
            return Ok(());
        }
        if let Some(expect) = self.checksums.as_ref().and_then(|t| t.get(slot).copied()) {
            if page_checksum(out.bytes()) != expect {
                hdov_obs::add(hdov_obs::Counter::ChecksumFailures, 1);
                return Err(StorageError::Corrupt(format!("checksum mismatch on {id}")));
            }
            if let Some(v) = self.verified.get_mut(slot) {
                *v = true;
            }
        }
        Ok(())
    }
}

impl<F: PagedFile> PagedFile for SimulatedDisk<F> {
    fn read_page(&mut self, id: PageId, out: &mut Page) -> Result<()> {
        let attempts = self.retry.attempts();
        let mut attempt = 0u32;
        loop {
            match self.inner.read_page(id, out) {
                Ok(()) => {
                    // Integrity first (zero simulated cost, errors are
                    // never charged), then the ordinary access charge.
                    self.verify(id, out)?;
                    self.charge(id, true);
                    return Ok(());
                }
                Err(e) if e.is_transient() && attempt + 1 < attempts => {
                    // A failed attempt costs a full access plus backoff in
                    // simulated time, but is never counted as a read.
                    attempt += 1;
                    self.stats.elapsed_us += self.model.seek_us
                        + self.model.transfer_us
                        + self.retry.backoff_us(attempt);
                    hdov_obs::add(hdov_obs::Counter::ReadRetries, 1);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<()> {
        self.inner.write_page(id, page)?;
        if let Some(table) = &mut self.checksums {
            let slot = id.0 as usize;
            if table.len() <= slot {
                table.resize(slot + 1, page_checksum(Page::zeroed().bytes()));
                self.verified.resize(slot + 1, false);
            }
            table[slot] = page_checksum(page.bytes());
            self.verified[slot] = false; // new generation: re-verify on read
        }
        self.charge(id, false);
        Ok(())
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        let id = self.inner.allocate_page()?;
        if let Some(table) = &mut self.checksums {
            let slot = id.0 as usize;
            if table.len() <= slot {
                table.resize(slot + 1, page_checksum(Page::zeroed().bytes()));
                self.verified.resize(slot + 1, false);
            }
        }
        Ok(id)
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, FaultyFile, MemPagedFile};

    fn disk_with_pages(n: u64) -> SimulatedDisk<MemPagedFile> {
        let mut f = MemPagedFile::new();
        for _ in 0..n {
            f.allocate_page().unwrap();
        }
        SimulatedDisk::new(
            f,
            DiskModel {
                seek_us: 1000.0,
                transfer_us: 10.0,
            },
        )
    }

    #[test]
    fn first_access_is_random() {
        let mut d = disk_with_pages(4);
        let mut p = Page::zeroed();
        d.read_page(PageId(0), &mut p).unwrap();
        assert_eq!(d.stats().random_reads, 1);
        assert_eq!(d.stats().elapsed_us, 1010.0);
    }

    #[test]
    fn sequential_run_is_cheap() {
        let mut d = disk_with_pages(5);
        let mut p = Page::zeroed();
        for i in 0..5 {
            d.read_page(PageId(i), &mut p).unwrap();
        }
        let s = d.stats();
        assert_eq!(s.page_reads, 5);
        assert_eq!(s.random_reads, 1);
        assert_eq!(s.sequential_reads, 4);
        assert_eq!(s.elapsed_us, 1010.0 + 4.0 * 10.0);
    }

    #[test]
    fn rereading_same_page_counts_sequential() {
        let mut d = disk_with_pages(2);
        let mut p = Page::zeroed();
        d.read_page(PageId(1), &mut p).unwrap();
        d.read_page(PageId(1), &mut p).unwrap();
        assert_eq!(d.stats().sequential_reads, 1);
    }

    #[test]
    fn backwards_jump_is_random() {
        let mut d = disk_with_pages(10);
        let mut p = Page::zeroed();
        d.read_page(PageId(5), &mut p).unwrap();
        d.read_page(PageId(2), &mut p).unwrap();
        assert_eq!(d.stats().random_reads, 2);
    }

    #[test]
    fn writes_are_charged() {
        let mut d = disk_with_pages(1);
        d.write_page(PageId(0), &Page::zeroed()).unwrap();
        assert_eq!(d.stats().page_writes, 1);
        assert!(d.stats().elapsed_us > 0.0);
    }

    #[test]
    fn reset_keeps_head_position() {
        let mut d = disk_with_pages(3);
        let mut p = Page::zeroed();
        d.read_page(PageId(0), &mut p).unwrap();
        d.reset_stats();
        d.read_page(PageId(1), &mut p).unwrap();
        // Still sequential after reset: head was at page 0.
        assert_eq!(d.stats().sequential_reads, 1);
        assert_eq!(d.stats().page_reads, 1);
    }

    #[test]
    fn free_model_costs_nothing() {
        let mut f = MemPagedFile::new();
        f.allocate_page().unwrap();
        let mut d = SimulatedDisk::new(f, DiskModel::FREE);
        let mut p = Page::zeroed();
        d.read_page(PageId(0), &mut p).unwrap();
        assert_eq!(d.stats().elapsed_us, 0.0);
        assert_eq!(d.stats().page_reads, 1);
    }

    #[test]
    fn errors_are_not_charged() {
        let mut d = disk_with_pages(1);
        let mut p = Page::zeroed();
        assert!(d.read_page(PageId(5), &mut p).is_err());
        assert_eq!(d.stats().page_reads, 0);
    }

    fn written_disk(n: u64) -> SimulatedDisk<MemPagedFile> {
        written(MemPagedFile::new(), n)
    }

    fn written<F: PagedFile>(inner: F, n: u64) -> SimulatedDisk<F> {
        let mut d = SimulatedDisk::new(
            inner,
            DiskModel {
                seek_us: 1000.0,
                transfer_us: 10.0,
            },
        );
        for i in 0..n {
            let id = d.allocate_page().unwrap();
            d.write_page(id, &Page::from_bytes(&[i as u8; 8])).unwrap();
        }
        d.reset_stats();
        d
    }

    /// `written_disk(n)` behind a [`FaultyFile`] that injects nothing yet.
    fn faulty_disk(n: u64) -> SimulatedDisk<FaultyFile<MemPagedFile>> {
        written(
            FaultyFile::new(MemPagedFile::new(), FaultPlan::default()),
            n,
        )
    }

    /// Replaces the fault plan between `d` and its pages (head, stats and
    /// checksum table are kept).
    fn set_plan(d: &mut SimulatedDisk<FaultyFile<MemPagedFile>>, plan: FaultPlan) {
        let empty = FaultyFile::new(MemPagedFile::new(), FaultPlan::default());
        let pages = d.swap_inner(empty).into_inner();
        d.swap_inner(FaultyFile::new(pages, plan));
    }

    #[test]
    fn checksums_cost_nothing_and_catch_corruption() {
        let mut d = faulty_disk(3);
        d.enable_checksums().unwrap();
        assert!(d.checksums_enabled());
        let mut p = Page::zeroed();
        d.read_page(PageId(1), &mut p).unwrap();
        let clean = d.stats();
        // Same trace without checksums charges identically.
        let mut plain = written_disk(3);
        plain.read_page(PageId(1), &mut p).unwrap();
        assert_eq!(clean.elapsed_us, plain.stats().elapsed_us);
        assert_eq!(clean.page_reads, plain.stats().page_reads);
        // A bit flip is caught before any charge.
        set_plan(&mut d, FaultPlan::corrupt_one(2));
        let before = d.stats();
        let err = d.read_page(PageId(2), &mut p).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        assert_eq!(d.stats().page_reads, before.page_reads);
        assert_eq!(d.stats().elapsed_us, before.elapsed_us);
        assert_eq!(d.inner().injected(), 1);
    }

    #[test]
    fn corruption_without_checksums_passes_through() {
        // Matches FaultyFile: undetected bit rot is the baseline hazard
        // the checksum table exists to close.
        let mut d = faulty_disk(1);
        set_plan(&mut d, FaultPlan::corrupt_one(0));
        let mut p = Page::zeroed();
        d.read_page(PageId(0), &mut p).unwrap();
        assert_eq!(p.bytes()[0], 0xA5);
    }

    #[test]
    fn writes_keep_the_table_fresh() {
        let mut d = written_disk(2);
        d.enable_checksums().unwrap();
        d.write_page(PageId(0), &Page::from_bytes(b"new bytes"))
            .unwrap();
        let id = d.allocate_page().unwrap();
        d.write_page(id, &Page::from_bytes(b"appended")).unwrap();
        let mut p = Page::zeroed();
        d.read_page(PageId(0), &mut p).unwrap();
        assert_eq!(&p.bytes()[..9], b"new bytes");
        d.read_page(id, &mut p).unwrap();
        assert_eq!(&p.bytes()[..8], b"appended");
    }

    #[test]
    fn allocated_but_unwritten_page_verifies_as_zeroed() {
        let mut d = written_disk(1);
        d.enable_checksums().unwrap();
        let id = d.allocate_page().unwrap();
        let mut p = Page::zeroed();
        d.read_page(id, &mut p).unwrap();
        assert_eq!(p.bytes()[0], 0);
    }

    #[test]
    fn transient_faults_retry_with_penalties() {
        let mut d = faulty_disk(2);
        d.set_retry(RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 5.0,
            max_backoff_us: 100.0,
        });
        // Fault-stream read #2 fails: the first read passes, the second
        // fails once and succeeds on retry.
        set_plan(
            &mut d,
            FaultPlan {
                fail_every_nth_read: 2,
                ..Default::default()
            },
        );
        let mut p = Page::zeroed();
        d.read_page(PageId(0), &mut p).unwrap();
        let base = d.stats().elapsed_us;
        d.read_page(PageId(1), &mut p).unwrap();
        assert_eq!(p.bytes()[0], 1);
        let s = d.stats();
        assert_eq!(s.page_reads, 2, "failed attempts are not reads");
        // Penalty (1000 + 10 + 5) then the sequential success (10).
        assert_eq!(s.elapsed_us, base + 1015.0 + 10.0);
        assert_eq!(d.inner().injected(), 1);
    }

    #[test]
    fn exhausted_retries_surface_io_error() {
        let mut d = faulty_disk(1);
        d.set_retry(RetryPolicy {
            max_attempts: 2,
            base_backoff_us: 5.0,
            max_backoff_us: 100.0,
        });
        set_plan(&mut d, FaultPlan::fail_one(0));
        let mut p = Page::zeroed();
        let err = d.read_page(PageId(0), &mut p).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(d.stats().page_reads, 0);
        assert_eq!(d.stats().elapsed_us, 1015.0, "one charged retry penalty");
        set_plan(&mut d, FaultPlan::default());
        d.read_page(PageId(0), &mut p).unwrap();
        assert_eq!(d.stats().page_reads, 1);
    }
}
