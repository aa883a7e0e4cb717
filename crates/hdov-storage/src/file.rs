//! The [`PagedFile`] abstraction and its backends.

use crate::error::StoreOrigin;
use crate::shared::FrozenPages;
use crate::{Page, PageId, Result, StorageError, PAGE_SIZE};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A file addressed in whole pages.
///
/// This is the only interface the index structures use to touch storage, so
/// any backend (in-memory, real file, simulated disk) can be swapped in.
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
/// This is the default backend for experiments — the I/O *costs* come from
/// the [`SimulatedDisk`](crate::SimulatedDisk) wrapper, not from real device
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
    /// [`FrozenPages`] snapshot.
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

/// Real-file backend over `std::fs::File`.
///
/// Provided so the system can genuinely run out-of-core; experiments default
/// to [`MemPagedFile`] + simulated costs for determinism.
#[derive(Debug)]
pub struct FilePagedFile {
    file: File,
    path: PathBuf,
    page_count: u64,
}

impl FilePagedFile {
    /// Creates (truncating) a paged file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        Ok(FilePagedFile {
            file,
            path: path.as_ref().to_path_buf(),
            page_count: 0,
        })
    }

    /// Opens an existing paged file at `path`.
    ///
    /// Returns [`StorageError::Corrupt`] if the file length is not a whole
    /// number of pages.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "file length {len} is not a multiple of the page size"
            )));
        }
        Ok(FilePagedFile {
            file,
            path: path.as_ref().to_path_buf(),
            page_count: len / PAGE_SIZE as u64,
        })
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn check(&self, id: PageId) -> Result<()> {
        if id.0 >= self.page_count {
            Err(StorageError::PageOutOfBounds {
                page: id,
                page_count: self.page_count,
                origin: StoreOrigin::File(self.path.clone()),
            })
        } else {
            Ok(())
        }
    }
}

impl PagedFile for FilePagedFile {
    fn read_page(&mut self, id: PageId, out: &mut Page) -> Result<()> {
        self.check(id)?;
        self.file.seek(SeekFrom::Start(id.byte_offset()))?;
        self.file.read_exact(out.bytes_mut())?;
        Ok(())
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<()> {
        self.check(id)?;
        self.file.seek(SeekFrom::Start(id.byte_offset()))?;
        self.file.write_all(page.bytes())?;
        Ok(())
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        let id = PageId(self.page_count);
        self.file.seek(SeekFrom::Start(id.byte_offset()))?;
        self.file.write_all(&vec![0u8; PAGE_SIZE])?;
        self.page_count += 1;
        Ok(id)
    }

    fn page_count(&self) -> u64 {
        self.page_count
    }
}

/// A store in either phase of its life: a mutable in-memory file while a
/// structure is being **built** (every build disk is a
/// `SimulatedDisk<StoreFile>` starting in `Mem`), or an immutable
/// [`FrozenPages`] snapshot (possibly file-backed) once it has been frozen
/// or relocated to a storage backend
/// ([`StorageBackend::freeze`](crate::StorageBackend::freeze)). Reads
/// behave identically in both states; writes to a frozen store fail (the
/// build phase is over).
#[derive(Debug)]
pub enum StoreFile {
    /// A mutable in-memory file (the build phase).
    Mem(MemPagedFile),
    /// An immutable frozen snapshot, mem- or file-backed.
    Frozen(FrozenPages),
}

impl Default for StoreFile {
    fn default() -> Self {
        StoreFile::Mem(MemPagedFile::new())
    }
}

impl StoreFile {
    /// A fresh, empty in-memory store (the state every build starts in).
    pub fn new_mem() -> Self {
        Self::default()
    }

    /// Freezes into an immutable snapshot: an in-memory file is frozen in
    /// place; an already-frozen store is returned as-is (cheap `Arc`
    /// clone), preserving whatever backend it lives on.
    pub fn into_frozen(self) -> FrozenPages {
        match self {
            StoreFile::Mem(f) => FrozenPages::from_mem(f),
            StoreFile::Frozen(fp) => fp,
        }
    }

    /// The frozen snapshot behind this store, if already frozen.
    pub fn frozen(&self) -> Option<&FrozenPages> {
        match self {
            StoreFile::Frozen(fp) => Some(fp),
            StoreFile::Mem(_) => None,
        }
    }

    /// Where this store's bytes live.
    pub fn origin(&self) -> StoreOrigin {
        match self {
            StoreFile::Mem(_) => StoreOrigin::Mem,
            StoreFile::Frozen(fp) => fp.origin(),
        }
    }
}

impl PagedFile for StoreFile {
    fn read_page(&mut self, id: PageId, out: &mut Page) -> Result<()> {
        match self {
            StoreFile::Mem(f) => f.read_page(id, out),
            StoreFile::Frozen(fp) => fp.read_into(id, out.bytes_mut()),
        }
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<()> {
        match self {
            StoreFile::Mem(f) => f.write_page(id, page),
            StoreFile::Frozen(_) => Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "frozen stores are immutable",
            ))),
        }
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        match self {
            StoreFile::Mem(f) => f.allocate_page(),
            StoreFile::Frozen(_) => Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "frozen stores are immutable",
            ))),
        }
    }

    fn page_count(&self) -> u64 {
        match self {
            StoreFile::Mem(f) => f.page_count(),
            StoreFile::Frozen(fp) => fp.page_count(),
        }
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
    fn file_backend_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hdov_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.pages");
        {
            let mut f = FilePagedFile::create(&path).unwrap();
            roundtrip(&mut f);
        }
        // Reopen and confirm persistence.
        let mut f = FilePagedFile::open(&path).unwrap();
        assert_eq!(f.page_count(), 2);
        let mut out = Page::zeroed();
        f.read_page(PageId(1), &mut out).unwrap();
        assert_eq!(&out.bytes()[..4], b"beta");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_ragged_file() {
        let dir = std::env::temp_dir().join(format!("hdov_test_ragged_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.pages");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(FilePagedFile::open(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_page_combines_alloc_and_write() {
        let mut f = MemPagedFile::new();
        let id = f.append_page(&Page::from_bytes(b"xyz")).unwrap();
        let mut out = Page::zeroed();
        f.read_page(id, &mut out).unwrap();
        assert_eq!(&out.bytes()[..3], b"xyz");
    }

    #[test]
    fn store_file_builds_in_mem_then_freezes_read_only() {
        let mut s = StoreFile::new_mem();
        roundtrip(&mut s);
        assert_eq!(s.origin(), StoreOrigin::Mem);
        let frozen = s.into_frozen();
        let mut s = StoreFile::Frozen(frozen);
        assert_eq!(s.page_count(), 2);
        let mut out = Page::zeroed();
        s.read_page(PageId(0), &mut out).unwrap();
        assert_eq!(&out.bytes()[..5], b"alpha");
        // The build phase is over: mutation is rejected.
        assert!(s.write_page(PageId(0), &out).is_err());
        assert!(s.allocate_page().is_err());
        // Refreezing an already-frozen store is the identity.
        let again = s.into_frozen();
        assert_eq!(again.page_count(), 2);
    }

    #[test]
    fn file_backend_oob_error_names_its_path() {
        let dir = std::env::temp_dir().join(format!("hdov_test_origin_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("named.pages");
        let mut f = FilePagedFile::create(&path).unwrap();
        f.allocate_page().unwrap();
        let mut out = Page::zeroed();
        let err = f.read_page(PageId(5), &mut out).unwrap_err();
        assert!(err.to_string().contains("named.pages"), "{err}");
        assert_eq!(f.path(), path.as_path());
        std::fs::remove_dir_all(&dir).ok();
    }
}
