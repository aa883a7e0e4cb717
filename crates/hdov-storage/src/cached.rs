//! A generic write-through buffer pool over any [`PagedFile`].
//!
//! [`CachedFile`] keeps the most recently used pages in an [`LruCache`]:
//! reads served from the pool touch no underlying device (and hence, when
//! the backend is a [`SimulatedDisk`](crate::SimulatedDisk), cost nothing);
//! writes go through to the backend and refresh the pooled copy, so the pool
//! is never stale.
//!
//! ```
//! use hdov_storage::{CachedFile, DiskModel, MemPagedFile, Page, PagedFile, SimulatedDisk};
//! let disk = SimulatedDisk::new(MemPagedFile::new(), DiskModel::PAPER_ERA);
//! let mut file = CachedFile::new(disk, 8);
//! let id = file.append_page(&Page::from_bytes(b"hot page")).unwrap();
//! // The write-through insert already pooled the page, so both reads hit.
//! let mut out = Page::zeroed();
//! file.read_page(id, &mut out).unwrap();
//! file.read_page(id, &mut out).unwrap();
//! assert_eq!(file.pool_stats(), (2, 0));
//! assert_eq!(file.inner().stats().page_reads, 0);
//! ```

use crate::{page_checksum, Frame, LruCache, Page, PageId, PagedFile, Result, StorageError};
use std::sync::Arc;

/// A write-through page cache wrapping another [`PagedFile`].
///
/// The pool holds [`Arc<Frame>`]s — the same frame type as
/// [`SharedCachedFile`](crate::SharedCachedFile), whose single-stripe
/// behaviour this type is the reference for — so
/// [`read_frame`](Self::read_frame) reads without copying pooled bytes, and
/// decoded overlays live exactly as long as a page stays pooled. The [`PagedFile`] `read_page` remains available as a
/// copying compatibility wrapper.
pub struct CachedFile<F> {
    inner: F,
    pool: LruCache<u64, Arc<Frame>>,
    checksums: Option<Vec<u64>>,
}

impl<F: PagedFile> CachedFile<F> {
    /// Wraps `inner` with a pool of `capacity_pages` pages.
    ///
    /// # Panics
    /// Panics if `capacity_pages == 0`.
    pub fn new(inner: F, capacity_pages: usize) -> Self {
        CachedFile {
            inner,
            pool: LruCache::new(capacity_pages),
            checksums: None,
        }
    }

    /// Installs a per-page checksum table (as produced at build time by a
    /// stamped store): every miss is verified before frame admission, and
    /// a mismatch fails with [`StorageError::Corrupt`] without pooling the
    /// frame. Writes through this pool keep the table fresh.
    #[must_use]
    pub fn with_checksums(mut self, table: Vec<u64>) -> Self {
        self.checksums = Some(table);
        self
    }

    /// Verifies a freshly read page against the admission table (no-op
    /// when no table is installed).
    fn verify(&self, id: PageId, page: &Page) -> Result<()> {
        if let Some(expect) = self
            .checksums
            .as_ref()
            .and_then(|t| t.get(id.0 as usize).copied())
        {
            if page_checksum(page.bytes()) != expect {
                hdov_obs::add(hdov_obs::Counter::ChecksumFailures, 1);
                return Err(StorageError::Corrupt(format!("checksum mismatch on {id}")));
            }
        }
        Ok(())
    }

    /// Reads page `id` as a shared frame: a pool hit clones the pooled
    /// `Arc` (no page memcpy), a miss reads from the backend once and pools
    /// the new frame. Hit/miss accounting and backend I/O are identical to
    /// [`read_page`](PagedFile::read_page) on the same trace.
    pub fn read_frame(&mut self, id: PageId) -> Result<Arc<Frame>> {
        if let Some(frame) = self.pool.get(&id.0) {
            let frame = Arc::clone(frame);
            hdov_obs::add(hdov_obs::Counter::BytesCopiedSaved, crate::PAGE_SIZE as u64);
            return Ok(frame);
        }
        let mut page = Page::zeroed();
        self.inner.read_page(id, &mut page)?;
        self.verify(id, &page)?;
        let frame = Arc::new(Frame::new(id, page));
        self.pool.insert(id.0, Arc::clone(&frame));
        hdov_obs::add(hdov_obs::Counter::BytesCopiedSaved, crate::PAGE_SIZE as u64);
        Ok(frame)
    }

    /// `(hits, misses)` counters of the pool.
    pub fn pool_stats(&self) -> (u64, u64) {
        self.pool.hit_stats()
    }

    /// Pool hit rate in `[0, 1]` (0 when no reads happened).
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = self.pool.hit_stats();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Drops every pooled page (counters retained).
    pub fn invalidate(&mut self) {
        self.pool.clear();
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// Mutable access to the wrapped backend.
    ///
    /// Writing to the backend directly bypasses the pool; call
    /// [`invalidate`](Self::invalidate) afterwards if you do.
    pub fn inner_mut(&mut self) -> &mut F {
        &mut self.inner
    }

    /// Consumes the wrapper, returning the backend.
    pub fn into_inner(self) -> F {
        self.inner
    }
}

impl<F: PagedFile> PagedFile for CachedFile<F> {
    fn read_page(&mut self, id: PageId, out: &mut Page) -> Result<()> {
        if let Some(frame) = self.pool.get(&id.0) {
            out.bytes_mut().copy_from_slice(frame.bytes());
            return Ok(());
        }
        self.inner.read_page(id, out)?;
        self.verify(id, out)?;
        self.pool
            .insert(id.0, Arc::new(Frame::new(id, out.clone())));
        Ok(())
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<()> {
        self.inner.write_page(id, page)?;
        if let Some(table) = &mut self.checksums {
            let slot = id.0 as usize;
            if table.len() <= slot {
                table.resize(slot + 1, page_checksum(Page::zeroed().bytes()));
            }
            table[slot] = page_checksum(page.bytes());
        }
        // A fresh frame: the old frame's decoded overlay (stale now) dies
        // with the pool's reference.
        self.pool
            .insert(id.0, Arc::new(Frame::new(id, page.clone())));
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
    use crate::{DiskModel, MemPagedFile, SimulatedDisk};

    fn cached(capacity: usize) -> CachedFile<SimulatedDisk<MemPagedFile>> {
        let mut disk = SimulatedDisk::new(MemPagedFile::new(), DiskModel::PAPER_ERA);
        for i in 0..16u8 {
            let id = disk.allocate_page().unwrap();
            disk.write_page(id, &Page::from_bytes(&[i; 8])).unwrap();
        }
        disk.reset_stats();
        CachedFile::new(disk, capacity)
    }

    #[test]
    fn repeat_reads_hit_the_pool() {
        let mut f = cached(4);
        let mut out = Page::zeroed();
        for _ in 0..5 {
            f.read_page(PageId(3), &mut out).unwrap();
        }
        assert_eq!(out.bytes()[0], 3);
        assert_eq!(f.pool_stats(), (4, 1));
        assert_eq!(f.inner().stats().page_reads, 1, "only the first read pays");
        assert!((f.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn write_through_keeps_pool_fresh() {
        let mut f = cached(4);
        let mut out = Page::zeroed();
        f.read_page(PageId(2), &mut out).unwrap();
        f.write_page(PageId(2), &Page::from_bytes(b"fresh"))
            .unwrap();
        f.read_page(PageId(2), &mut out).unwrap();
        assert_eq!(&out.bytes()[..5], b"fresh");
        // The post-write read was a pool hit.
        assert_eq!(f.inner().stats().page_reads, 1);
        // And the backend holds the same bytes.
        let mut direct = Page::zeroed();
        f.inner_mut().read_page(PageId(2), &mut direct).unwrap();
        assert_eq!(&direct.bytes()[..5], b"fresh");
    }

    #[test]
    fn eviction_respects_capacity() {
        let mut f = cached(2);
        let mut out = Page::zeroed();
        for i in [0u64, 1, 2, 0] {
            f.read_page(PageId(i), &mut out).unwrap();
        }
        // Page 0 was evicted by 2, so the second read of 0 missed.
        assert_eq!(f.pool_stats(), (0, 4));
        assert_eq!(f.inner().stats().page_reads, 4);
    }

    #[test]
    fn invalidate_forces_reread() {
        let mut f = cached(4);
        let mut out = Page::zeroed();
        f.read_page(PageId(1), &mut out).unwrap();
        f.invalidate();
        f.read_page(PageId(1), &mut out).unwrap();
        assert_eq!(f.inner().stats().page_reads, 2);
    }

    #[test]
    fn errors_do_not_poison_the_pool() {
        let mut f = cached(4);
        let mut out = Page::zeroed();
        assert!(f.read_page(PageId(99), &mut out).is_err());
        assert_eq!(f.pool_stats().0, 0);
        assert!(f.read_page(PageId(0), &mut out).is_ok());
    }

    #[test]
    fn read_frame_shares_pooled_frame() {
        let mut f = cached(4);
        let a = f.read_frame(PageId(3)).unwrap();
        let b = f.read_frame(PageId(3)).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b), "hit must clone the Arc");
        assert_eq!(a.bytes()[0], 3);
        assert_eq!(f.pool_stats(), (1, 1));
        assert_eq!(f.inner().stats().page_reads, 1);
    }

    #[test]
    fn write_replaces_frame_and_drops_overlay() {
        let mut f = cached(4);
        let before = f.read_frame(PageId(2)).unwrap();
        let _: std::sync::Arc<u8> = before.overlay(|p| Ok(p[0])).unwrap();
        assert!(before.has_overlay());
        f.write_page(PageId(2), &Page::from_bytes(b"fresh"))
            .unwrap();
        let after = f.read_frame(PageId(2)).unwrap();
        assert!(!std::sync::Arc::ptr_eq(&before, &after));
        assert!(
            !after.has_overlay(),
            "stale overlay must not survive a write"
        );
        assert_eq!(&after.bytes()[..5], b"fresh");
    }

    #[test]
    fn checksum_admission_rejects_and_never_pools() {
        use crate::{FaultPlan, FaultyFile};
        let mut disk = SimulatedDisk::new(MemPagedFile::new(), DiskModel::FREE);
        for i in 0..4u8 {
            let id = disk.allocate_page().unwrap();
            disk.write_page(id, &Page::from_bytes(&[i; 8])).unwrap();
        }
        let table: Vec<u64> = (0..4)
            .map(|i| {
                let mut p = Page::zeroed();
                disk.read_page(PageId(i), &mut p).unwrap();
                crate::page_checksum(p.bytes())
            })
            .collect();
        let faulty = FaultyFile::new(disk, FaultPlan::corrupt_one(2));
        let mut f = CachedFile::new(faulty, 4).with_checksums(table);
        let mut out = Page::zeroed();
        f.read_page(PageId(1), &mut out).unwrap();
        assert_eq!(out.bytes()[0], 1);
        let err = f.read_frame(PageId(2)).unwrap_err();
        assert!(matches!(err, crate::StorageError::Corrupt(_)), "{err}");
        // The corrupt frame never entered the pool, and once the fault is
        // cleared the page reads (and pools) clean: no negative caching.
        f.inner_mut().disarm();
        f.read_page(PageId(2), &mut out).unwrap();
        assert_eq!(out.bytes()[0], 2);
    }

    #[test]
    fn checksum_table_follows_writes() {
        let f = cached(4);
        let table: Vec<u64> = (0..16)
            .map(|i| crate::page_checksum(Page::from_bytes(&[i as u8; 8]).bytes()))
            .collect();
        let mut f2 = CachedFile::new(f.into_inner(), 4).with_checksums(table);
        f2.write_page(PageId(0), &Page::from_bytes(b"rewritten"))
            .unwrap();
        f2.invalidate();
        let mut out = Page::zeroed();
        f2.read_page(PageId(0), &mut out).unwrap();
        assert_eq!(&out.bytes()[..9], b"rewritten");
    }

    #[test]
    fn into_inner_round_trip() {
        let f = cached(2);
        let disk = f.into_inner();
        assert_eq!(disk.page_count(), 16);
    }
}
