//! The [`PagedFile`] abstraction and its in-memory backend.
//!
//! Structures are built by writing pages through a [`PagedFile`] (usually a
//! [`SimulatedDisk`](crate::SimulatedDisk) over a [`MemPagedFile`]); the
//! built pages are then frozen into a [`FrozenPages`](crate::FrozenPages)
//! snapshot, which a file backend can serialize and reopen. Queries never
//! read through this trait: they read frozen pages through the buffer pool.

use crate::error::StoreOrigin;
use crate::frame::{SharedPage, SharedPages};
use crate::{page_checksum, Page, PageId, Result, StorageError, PAGE_SIZE};
use std::collections::HashMap;
use std::sync::Arc;

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

/// In-memory backend: a vector of pages, one shared copy per distinct
/// content.
///
/// Every structure is built into one — the I/O *costs* come from the
/// [`SimulatedDisk`](crate::SimulatedDisk) wrapper, not from real device
/// time, so results are deterministic.
///
/// Pages are interned as they are written: each slot holds an `Arc` of its
/// bytes, and slots with equal bytes hold the same `Arc`. A scene that
/// places many copies of one prototype's LoD chain therefore keeps one copy
/// of each of its pages in memory, however many page ids the copies take.
/// The intern table is keyed by [`page_checksum`], and a page is shared
/// only after a full byte comparison. Fresh pages share one zero page. An
/// overwrite points its slot at the new bytes and drops the old bytes from
/// the table once no slot holds them. Interning changes no page id and no
/// byte read back.
#[derive(Debug)]
pub struct MemPagedFile {
    pages: Vec<Arc<[u8]>>,
    /// Every distinct content some slot holds, by checksum; a bucket lists
    /// the contents that share one checksum. Page bytes can come from
    /// outside the program (a loaded project), so the map keeps the
    /// default, flooding-resistant hasher.
    interned: HashMap<u64, Vec<Arc<[u8]>>>,
    /// The zero page every fresh slot shares (also interned, never dropped).
    zero: Arc<[u8]>,
}

impl Default for MemPagedFile {
    fn default() -> Self {
        let zero: Arc<[u8]> = Arc::from(vec![0u8; PAGE_SIZE]);
        let mut interned = HashMap::new();
        interned.insert(page_checksum(&zero), vec![Arc::clone(&zero)]);
        MemPagedFile {
            pages: Vec::new(),
            interned,
            zero,
        }
    }
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

    /// The shared copy of `bytes`, interned on first sight.
    fn intern(&mut self, bytes: &[u8]) -> Arc<[u8]> {
        let bucket = self.interned.entry(page_checksum(bytes)).or_default();
        if let Some(shared) = bucket.iter().find(|p| ***p == *bytes) {
            return Arc::clone(shared);
        }
        let shared: Arc<[u8]> = Arc::from(bytes);
        bucket.push(Arc::clone(&shared));
        shared
    }

    /// Drops `old`, just swapped out of a slot, from the intern table when
    /// the table's reference and `old` itself are the last ones left.
    fn release(&mut self, old: Arc<[u8]>) {
        if Arc::strong_count(&old) > 2 {
            return;
        }
        let sum = page_checksum(&old);
        if let Some(bucket) = self.interned.get_mut(&sum) {
            bucket.retain(|p| !Arc::ptr_eq(p, &old));
            if bucket.is_empty() {
                self.interned.remove(&sum);
            }
        }
    }

    /// Consumes the file, yielding one [`SharedPage`] per distinct content
    /// a slot holds (in order of first slot), with the checksum it was
    /// interned under, and every slot's index into them: the frozen
    /// [`FrozenPages`](crate::FrozenPages) snapshot of a built store.
    pub fn into_shared(self) -> SharedPages {
        let sums: HashMap<*const u8, u64> = self
            .interned
            .iter()
            .flat_map(|(&sum, bucket)| bucket.iter().map(move |p| (p.as_ptr(), sum)))
            .collect();
        let mut index: HashMap<*const u8, u32> = HashMap::new();
        let mut pages = Vec::new();
        let table = self
            .pages
            .into_iter()
            .map(|bytes| {
                let at = bytes.as_ptr();
                *index.entry(at).or_insert_with(|| {
                    pages.push(SharedPage::new(bytes, sums[&at]));
                    u32::try_from(pages.len() - 1).expect("fewer than 2^32 distinct pages")
                })
            })
            .collect();
        SharedPages {
            table,
            pages: pages.into(),
        }
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
        let shared = self.intern(page.bytes());
        let old = std::mem::replace(&mut self.pages[idx], shared);
        self.release(old);
        Ok(())
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        self.pages.push(Arc::clone(&self.zero));
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

    fn page(tag: u64) -> Page {
        Page::from_bytes(&tag.to_le_bytes())
    }

    #[test]
    fn equal_pages_share_one_allocation() {
        let mut f = MemPagedFile::new();
        for tag in [1, 2, 1, 1] {
            f.append_page(&page(tag)).unwrap();
        }
        let shared = f.into_shared();
        assert_eq!(&*shared.table, &[0, 1, 0, 0]);
        assert_eq!(shared.pages.len(), 2);
        for (page, tag) in shared.pages.iter().zip([1u64, 2]) {
            assert_eq!(&page.frame().bytes()[..8], &tag.to_le_bytes());
            assert_eq!(page.checksum(), page_checksum(page.frame().bytes()));
        }
    }

    #[test]
    fn overwriting_one_of_two_equal_pages_leaves_the_other() {
        let mut f = MemPagedFile::new();
        let a = f.append_page(&page(7)).unwrap();
        let b = f.append_page(&page(7)).unwrap();
        f.write_page(a, &page(8)).unwrap();
        let mut out = Page::zeroed();
        f.read_page(b, &mut out).unwrap();
        assert_eq!(out, page(7));
        f.read_page(a, &mut out).unwrap();
        assert_eq!(out, page(8));
    }

    #[test]
    fn rewrites_drop_old_versions_from_the_table() {
        let mut f = MemPagedFile::new();
        let id = f.allocate_page().unwrap();
        for tag in 1..=1000 {
            f.write_page(id, &page(tag)).unwrap();
        }
        // The zero page and the live version, nothing older.
        let entries: usize = f.interned.values().map(Vec::len).sum();
        assert!(entries <= 2, "{entries} table entries");
        let mut out = Page::zeroed();
        f.read_page(id, &mut out).unwrap();
        assert_eq!(out, page(1000));
    }

    #[test]
    fn fresh_pages_share_one_zero_page() {
        let mut f = MemPagedFile::new();
        for _ in 0..3 {
            f.allocate_page().unwrap();
        }
        // A written page of zeros is the same content, so the same page.
        f.append_page(&Page::zeroed()).unwrap();
        let shared = f.into_shared();
        assert_eq!(&*shared.table, &[0; 4]);
        assert!(shared.pages[0].frame().bytes().iter().all(|&b| b == 0));
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
