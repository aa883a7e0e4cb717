//! The [`PagedFile`] abstraction and its in-memory backend.
//!
//! Structures are built by writing pages through a [`PagedFile`] (usually a
//! [`SimulatedDisk`](crate::SimulatedDisk) over a [`MemPagedFile`]); the
//! built pages are then frozen into a [`FrozenPages`](crate::FrozenPages)
//! snapshot, which a file backend can serialize and reopen. Queries never
//! read through this trait: they read frozen pages through the buffer pool.

use crate::error::StoreOrigin;
use crate::{Page, PageId, Result, StorageError, PAGE_SIZE};

/// A file addressed in whole pages.
///
/// This is the only interface the index structures use to touch storage, so
/// any backend (in-memory, simulated disk, fault injector) can be swapped in.
pub trait PagedFile {
    /// Reads page `id` into `out`.
    fn read_page(&mut self, id: PageId, out: &mut Page) -> Result<()>;

    /// Writes `page` at `id`. `id` must have been allocated.
    fn write_page(&mut self, id: PageId, page: &Page) -> Result<()>;

    /// Appends a new zeroed page, returning its id.
    fn allocate_page(&mut self) -> Result<PageId>;

    /// Number of allocated pages.
    fn page_count(&self) -> u64;

    /// Convenience: allocates a page and writes `page` into it.
    fn append_page(&mut self, page: &Page) -> Result<PageId> {
        let id = self.allocate_page()?;
        self.write_page(id, page)?;
        Ok(id)
    }

    /// Total size in bytes (pages × page size).
    fn size_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE as u64
    }
}

/// In-memory backend: a vector of pages.
///
/// Every structure is built into one — the I/O *costs* come from the
/// [`SimulatedDisk`](crate::SimulatedDisk) wrapper, not from real device
/// time, so results are deterministic.
#[derive(Debug, Default)]
pub struct MemPagedFile {
    pages: Vec<Box<[u8]>>,
}

impl MemPagedFile {
    /// Creates an empty in-memory paged file.
    pub fn new() -> Self {
        Self::default()
    }

    fn check(&self, id: PageId) -> Result<usize> {
        let idx = id.0 as usize;
        if idx >= self.pages.len() {
            Err(StorageError::PageOutOfBounds {
                page: id,
                page_count: self.pages.len() as u64,
                origin: StoreOrigin::Mem,
            })
        } else {
            Ok(idx)
        }
    }

    /// Consumes the file, yielding its raw pages — used to freeze a fully
    /// built store into an immutable, shareable
    /// [`FrozenPages`](crate::FrozenPages) snapshot.
    pub fn into_pages(self) -> Vec<Box<[u8]>> {
        self.pages
    }
}

impl PagedFile for MemPagedFile {
    fn read_page(&mut self, id: PageId, out: &mut Page) -> Result<()> {
        let idx = self.check(id)?;
        out.bytes_mut().copy_from_slice(&self.pages[idx]);
        Ok(())
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<()> {
        let idx = self.check(id)?;
        self.pages[idx].copy_from_slice(page.bytes());
        Ok(())
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        self.pages.push(vec![0u8; PAGE_SIZE].into_boxed_slice());
        Ok(PageId(self.pages.len() as u64 - 1))
    }

    fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(file: &mut dyn PagedFile) {
        let a = file.allocate_page().unwrap();
        let b = file.allocate_page().unwrap();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert_eq!(file.page_count(), 2);

        let pa = Page::from_bytes(b"alpha");
        let pb = Page::from_bytes(b"beta");
        file.write_page(a, &pa).unwrap();
        file.write_page(b, &pb).unwrap();

        let mut out = Page::zeroed();
        file.read_page(a, &mut out).unwrap();
        assert_eq!(&out.bytes()[..5], b"alpha");
        file.read_page(b, &mut out).unwrap();
        assert_eq!(&out.bytes()[..4], b"beta");

        // Out-of-bounds is an error.
        assert!(file.read_page(PageId(2), &mut out).is_err());
        assert!(file.write_page(PageId(9), &pa).is_err());
        assert_eq!(file.size_bytes(), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn mem_backend_roundtrip() {
        let mut f = MemPagedFile::new();
        roundtrip(&mut f);
    }

    #[test]
    fn append_page_combines_alloc_and_write() {
        let mut f = MemPagedFile::new();
        let id = f.append_page(&Page::from_bytes(b"xyz")).unwrap();
        let mut out = Page::zeroed();
        f.read_page(id, &mut out).unwrap();
        assert_eq!(&out.bytes()[..3], b"xyz");
    }
}
