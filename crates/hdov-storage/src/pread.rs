//! Positioned-read (`pread`) access to a verified frozen store.
//!
//! The file backend: pages are copied out of the store file with
//! `read_exact_at` on a shared handle, so pages that are repaired in place
//! are read fresh on the next miss. A contiguous page run is one
//! contiguous byte range on disk, so the vectored-prefetch path reads a
//! whole run with a **single** `pread`.
//!
//! Every physical read issued here bumps
//! [`Counter::PhysReads`](hdov_obs::Counter::PhysReads) — the observable
//! the run-coalescing acceptance test asserts on.

use crate::error::StoreOrigin;
use crate::frozen::{self, StoreLayout};
use crate::{PageId, Result, StorageError, PAGE_SIZE};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A frozen store served by positioned reads on a shared file handle.
///
/// `read_exact_at` takes `&File`, so concurrent sessions read without any
/// lock and without moving a shared file cursor.
#[derive(Debug)]
pub struct PreadStore {
    file: File,
    path: PathBuf,
    layout: StoreLayout,
    checksums: Arc<[u64]>,
}

impl PreadStore {
    /// Opens and fully verifies the frozen store at `path` (header, exact
    /// length, checksum table, every page).
    pub fn open(path: &Path) -> Result<Self> {
        let file = File::open(path)?;
        let layout = frozen::read_layout(&file, path)?;
        let checksums: Arc<[u64]> = frozen::read_checksum_table(&file, path, &layout)?.into();
        let mut buf = vec![0u8; PAGE_SIZE];
        for i in 0..layout.page_count {
            file.read_exact_at(&mut buf, StoreLayout::page_offset(i))?;
            frozen::verify_page(path, i, &buf, checksums[i as usize])?;
        }
        Ok(PreadStore {
            file,
            path: path.to_path_buf(),
            layout,
            checksums,
        })
    }

    /// Number of data pages.
    pub fn page_count(&self) -> u64 {
        self.layout.page_count
    }

    /// Build generation recorded in the header.
    pub fn generation(&self) -> u64 {
        self.layout.generation
    }

    /// The store file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The origin carried in this store's errors.
    pub fn origin(&self) -> StoreOrigin {
        StoreOrigin::File(self.path.clone())
    }

    /// The verified per-page checksum sidecar.
    pub fn checksums(&self) -> &Arc<[u64]> {
        &self.checksums
    }

    fn check(&self, id: PageId) -> Result<()> {
        if id.0 >= self.layout.page_count {
            return Err(StorageError::PageOutOfBounds {
                page: id,
                page_count: self.layout.page_count,
                origin: self.origin(),
            });
        }
        Ok(())
    }

    /// Copies page `id` into `out` with one positioned read.
    pub fn read_into(&self, id: PageId, out: &mut [u8]) -> Result<()> {
        self.check(id)?;
        self.file
            .read_exact_at(&mut out[..PAGE_SIZE], StoreLayout::page_offset(id.0))?;
        hdov_obs::add(hdov_obs::Counter::PhysReads, 1);
        Ok(())
    }

    /// Reads the `len`-page contiguous run starting at `first` into `out`
    /// (`len · PAGE_SIZE` bytes) with a **single** positioned read.
    pub fn read_run(&self, first: PageId, len: u64, out: &mut [u8]) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        self.check(first)?;
        self.check(PageId(first.0 + len - 1))?;
        let n = len as usize * PAGE_SIZE;
        self.file
            .read_exact_at(&mut out[..n], StoreLayout::page_offset(first.0))?;
        hdov_obs::add(hdov_obs::Counter::PhysReads, 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::write_store;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdov_pread_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("store.hdov")
    }

    fn pages(n: u64) -> Vec<Box<[u8]>> {
        (0..n)
            .map(|i| {
                let mut p = vec![0u8; PAGE_SIZE].into_boxed_slice();
                p[..8].copy_from_slice(&i.to_le_bytes());
                p
            })
            .collect()
    }

    #[test]
    fn single_and_run_reads() {
        let path = tmp("reads");
        write_store(&path, &pages(5), 3).unwrap();
        let s = PreadStore::open(&path).unwrap();
        assert_eq!(s.page_count(), 5);
        assert_eq!(s.generation(), 3);
        let mut one = vec![0u8; PAGE_SIZE];
        s.read_into(PageId(2), &mut one).unwrap();
        assert_eq!(&one[..8], &2u64.to_le_bytes());
        let mut run = vec![0u8; 3 * PAGE_SIZE];
        s.read_run(PageId(1), 3, &mut run).unwrap();
        for (k, want) in (1u64..4).enumerate() {
            assert_eq!(&run[k * PAGE_SIZE..k * PAGE_SIZE + 8], &want.to_le_bytes());
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn out_of_bounds_names_the_file() {
        let path = tmp("oob");
        write_store(&path, &pages(2), 0).unwrap();
        let s = PreadStore::open(&path).unwrap();
        let mut out = vec![0u8; PAGE_SIZE];
        let err = s.read_into(PageId(2), &mut out).unwrap_err();
        assert!(err.to_string().contains("file store"), "{err}");
        // A run that starts in bounds but runs off the end is rejected too.
        let mut run = vec![0u8; 2 * PAGE_SIZE];
        assert!(s.read_run(PageId(1), 2, &mut run).is_err());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn corrupted_page_fails_open() {
        let path = tmp("corrupt");
        write_store(&path, &pages(2), 0).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[PAGE_SIZE + 100] ^= 0x10; // data page 0
        std::fs::write(&path, &raw).unwrap();
        let err = PreadStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("page 0 checksum"), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
