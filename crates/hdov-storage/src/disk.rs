//! Simulated-disk cost model.
//!
//! The paper ran on a single IDE-era disk where the random/sequential gap is
//! the dominant effect (e.g. the horizontal scheme loses Fig. 7 purely on
//! seeks). [`IoCursor`] holds a disk head and charges:
//!
//! * `seek_us + transfer_us` for a *random* access (page ≠ previous page + 1),
//! * `transfer_us` for a *sequential* access.
//!
//! [`SimulatedDisk`] wraps any [`PagedFile`] and charges every access
//! through one cursor. The accumulated [`IoStats`] is the sole time source
//! for the experiment harness, making results deterministic.

use crate::{IoStats, Page, PageId, PagedFile, Result};

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

/// A disk head plus the costs charged against it: the one place the
/// seek-versus-transfer rule lives.
///
/// An access is *sequential* iff it targets the previous page or the one
/// after it, and costs `transfer_us`; any other access is *random* and
/// costs `seek_us + transfer_us`. A [`SimulatedDisk`] charges its build
/// writes (and any reads) through one cursor; a query session carries its
/// own cursor into the shared buffer pool, because a head position cannot
/// be shared state once sessions interleave.
#[derive(Debug, Clone, Default)]
pub struct IoCursor {
    last_page: Option<u64>,
    stats: IoStats,
}

impl IoCursor {
    /// A cursor with no head-position memory and zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulated stats since construction or the last
    /// [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Clears counters; the head position is kept.
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::new();
    }

    /// Moves the head to `id` and charges the access time; returns whether
    /// the access was sequential.
    fn seek(&mut self, id: PageId, model: DiskModel) -> bool {
        let sequential =
            self.last_page == Some(id.0.wrapping_sub(1)) || self.last_page == Some(id.0);
        self.stats.elapsed_us += if sequential {
            model.transfer_us
        } else {
            model.seek_us + model.transfer_us
        };
        self.last_page = Some(id.0);
        sequential
    }

    /// Charges a page read of `id`.
    pub(crate) fn charge_read(&mut self, id: PageId, model: DiskModel) {
        self.stats.page_reads += 1;
        if self.seek(id, model) {
            self.stats.sequential_reads += 1;
        } else {
            self.stats.random_reads += 1;
        }
    }

    /// Charges a page write of `id`.
    pub(crate) fn charge_write(&mut self, id: PageId, model: DiskModel) {
        self.seek(id, model);
        self.stats.page_writes += 1;
    }

    /// Adds pure simulated time (retry backoff, latency spikes) with no
    /// access counted and no head movement.
    pub(crate) fn charge_penalty(&mut self, cost_us: f64) {
        self.stats.elapsed_us += cost_us;
    }
}

/// A [`PagedFile`] wrapper that meters every access against a [`DiskModel`]
/// through an [`IoCursor`].
///
/// This is the build-time writer: structures are laid out through it, and
/// [`SharedCachedFile::from_disk`](crate::SharedCachedFile::from_disk)
/// freezes the pages and hands the cursor to the pool every query reads
/// through. Reads are the inner read plus a charge; integrity checks and
/// retries belong to the pool.
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
    cursor: IoCursor,
}

impl<F: PagedFile> SimulatedDisk<F> {
    /// Wraps `inner` with cost model `model`.
    pub fn new(inner: F, model: DiskModel) -> Self {
        SimulatedDisk {
            inner,
            model,
            cursor: IoCursor::new(),
        }
    }

    /// Accumulated statistics since construction or the last
    /// [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> IoStats {
        self.cursor.stats()
    }

    /// Clears counters (the head position memory is kept).
    pub fn reset_stats(&mut self) {
        self.cursor.reset_stats();
    }

    /// Consumes the wrapper into the backend, the cost model and the
    /// cursor (head position and stats).
    pub(crate) fn into_parts(self) -> (F, DiskModel, IoCursor) {
        (self.inner, self.model, self.cursor)
    }
}

impl<F: PagedFile> PagedFile for SimulatedDisk<F> {
    fn read_page(&mut self, id: PageId, out: &mut Page) -> Result<()> {
        self.inner.read_page(id, out)?;
        self.cursor.charge_read(id, self.model);
        Ok(())
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<()> {
        self.inner.write_page(id, page)?;
        self.cursor.charge_write(id, self.model);
        Ok(())
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        self.inner.allocate_page()
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemPagedFile;

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
}
