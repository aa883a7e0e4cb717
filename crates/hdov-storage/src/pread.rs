//! Positioned-read (`pread`) access to a verified frozen store.
//!
//! The file backend: pages are copied out of the store file with
//! `read_exact_at` on a shared handle, so pages that are repaired in place
//! are read fresh on the next miss. A contiguous page run is one
//! contiguous byte range on disk, so the vectored-prefetch path reads a
//! whole run with a **single** `pread`.
//!
//! Opening a store reads it whole, in fixed chunks of [`OPEN_CHUNK_PAGES`]
//! pages, to verify every page and to build its **twin classes**
//! ([`twin_classes`]): the sets of pages whose bytes repeat elsewhere in
//! the file. The store keeps one verified [`SharedPage`] per class
//! ([`PreadStore::shared`]), which a miss on any member admits, as a miss
//! on any mem page admits its store's (see
//! [`FrozenPages::shared`](crate::FrozenPages::shared)). So the file keeps
//! every copy, memory holds one page per repeated content, and a miss
//! reads the file only for a page that repeats nowhere. A class frame, and
//! its decoded overlay, lives as long as the store.
//!
//! Every physical read issued on the query path bumps
//! [`Counter::PhysReads`](hdov_obs::Counter::PhysReads) — the observable
//! the run-coalescing acceptance test asserts on. A miss served by its
//! class frame issues none (it bumps `twin_copies` instead), and neither
//! do the reads of [`PreadStore::open`].

use crate::error::StoreOrigin;
use crate::frame::{SharedPage, SharedPages, UNSHARED};
use crate::frozen::{self, StoreLayout};
use crate::{page_checksum, PageId, Result, StorageError, PAGE_SIZE};
use std::collections::HashMap;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Pages read per positioned read while [`PreadStore::open`] verifies a
/// store (256 KiB).
pub const OPEN_CHUNK_PAGES: u64 = 64;

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
    twins: SharedPages,
}

impl PreadStore {
    /// Opens and fully verifies the frozen store at `path` (header, exact
    /// length, checksum table, every page), reading the pages in chunks of
    /// [`OPEN_CHUNK_PAGES`] and building the twin classes, with their
    /// frames, in the same pass.
    pub fn open(path: &Path) -> Result<Self> {
        let file = File::open(path)?;
        let layout = frozen::read_layout(&file, path)?;
        let checksums: Arc<[u64]> = frozen::read_checksum_table(&file, path, &layout)?.into();
        let twins = twin_classes(&checksums, |visit| {
            let n = layout.page_count;
            let mut chunk = vec![0u8; OPEN_CHUNK_PAGES.min(n) as usize * PAGE_SIZE];
            for first in (0..n).step_by(OPEN_CHUNK_PAGES as usize) {
                let len = OPEN_CHUNK_PAGES.min(n - first);
                frozen::read_run_raw(&file, first, len, &mut chunk)?;
                for (id, bytes) in (first..).zip(chunk.chunks_exact(PAGE_SIZE).take(len as usize)) {
                    frozen::verify_page(path, id, bytes, checksums[id as usize])?;
                    visit(id, bytes);
                }
            }
            Ok(())
        })?;
        Ok(PreadStore {
            file,
            path: path.to_path_buf(),
            layout,
            checksums,
            twins,
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

    /// Number of twin-class frames held in memory: one page per repeated
    /// content.
    pub fn class_copies(&self) -> usize {
        self.twins.pages.len()
    }

    /// The verified shared page of page `id`'s twin class, built at open;
    /// `None` when `id`'s bytes appear nowhere else in the store (or `id`
    /// is out of bounds).
    pub fn shared(&self, id: PageId) -> Option<&SharedPage> {
        self.twins.get(id)
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

/// The `(lowest page id, bytes)` of each distinct content seen under one
/// repeated checksum.
type Contents = Vec<(u32, Arc<[u8]>)>;

/// Finds the twin classes of a store: sets of pages with byte-identical
/// contents, numbered in the order of their lowest page id. In the
/// returned table every page whose bytes repeat elsewhere in the store
/// names its class, and every other page is [`UNSHARED`]; class `k`'s
/// shared page is the `k`-th.
///
/// `pages` must hand each page's bytes to its visitor once, in ascending
/// id order. Only pages whose checksum appears more than once in
/// `checksums` are looked at: each is compared byte for byte with one kept
/// representative of every distinct content seen under its checksum, so an
/// equal checksum alone never makes two pages twins. The representatives
/// that found a twin become the class frames; the others are freed before
/// this returns. The checksums come from the store file, so the maps keyed
/// by them keep the default (flooding-resistant) hasher.
pub fn twin_classes(
    checksums: &[u64],
    pages: impl FnOnce(&mut dyn FnMut(u64, &[u8])) -> Result<()>,
) -> Result<SharedPages> {
    let mut repeats: HashMap<u64, u32> = HashMap::new();
    for &c in checksums {
        *repeats.entry(c).or_default() += 1;
    }
    repeats.retain(|_, n| *n > 1);
    // Each member first names its class's lowest page id.
    let mut classes = vec![UNSHARED; checksums.len()].into_boxed_slice();
    let mut reps: HashMap<u64, Contents> = HashMap::new();
    pages(&mut |id, bytes| {
        let sum = checksums[id as usize];
        let Ok(id32) = u32::try_from(id) else {
            return;
        };
        if id32 == UNSHARED || !repeats.contains_key(&sum) {
            return;
        }
        let group = reps.entry(sum).or_default();
        match group.iter().find(|(_, rep)| **rep == *bytes) {
            Some(&(class, _)) => {
                classes[class as usize] = class;
                classes[id as usize] = class;
            }
            None => group.push((id32, Arc::from(bytes))),
        }
    })?;
    let mut kept: Contents = reps
        .into_values()
        .flatten()
        .filter(|&(id, _)| classes[id as usize] == id)
        .collect();
    kept.sort_unstable_by_key(|&(id, _)| id);
    for class in classes.iter_mut().filter(|c| **c != UNSHARED) {
        *class = kept.partition_point(|&(id, _)| id < *class) as u32;
    }
    Ok(SharedPages {
        table: classes,
        pages: kept
            .into_iter()
            .map(|(_, page)| {
                let checksum = page_checksum(&page);
                SharedPage::new(page, checksum)
            })
            .collect(),
    })
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

    /// [`twin_classes`] over in-memory pages with their real checksums.
    fn classes_of(pages: &[Vec<u8>]) -> SharedPages {
        let sums: Vec<u64> = pages.iter().map(|p| crate::page_checksum(p)).collect();
        classes_with(&sums, pages)
    }

    fn classes_with(sums: &[u64], pages: &[Vec<u8>]) -> SharedPages {
        twin_classes(sums, |visit| {
            for (id, p) in (0u64..).zip(pages) {
                visit(id, p);
            }
            Ok(())
        })
        .unwrap()
    }

    fn tagged(tag: u64) -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        p[..8].copy_from_slice(&tag.to_le_bytes());
        p
    }

    #[test]
    fn equal_pages_share_one_class_numbered_by_lowest_id() {
        let pages: Vec<Vec<u8>> = [9u64, 7, 1, 7, 2, 1, 7].map(tagged).to_vec();
        let SharedPages {
            table,
            pages: frames,
        } = classes_of(&pages);
        assert_eq!(&*table, &[UNSHARED, 0, 1, 0, UNSHARED, 1, 0]);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].frame().bytes(), &tagged(7)[..]);
        assert_eq!(frames[1].frame().bytes(), &tagged(1)[..]);
        for (class, tag) in frames.iter().zip([7, 1]) {
            assert_eq!(class.checksum(), crate::page_checksum(&tagged(tag)));
        }
    }

    #[test]
    fn unique_pages_have_no_class() {
        let pages: Vec<Vec<u8>> = (0..5).map(tagged).collect();
        let SharedPages {
            table,
            pages: frames,
        } = classes_of(&pages);
        assert!(table.iter().all(|&c| c == UNSHARED));
        assert!(frames.is_empty());
        assert!(classes_of(&[]).table.is_empty());
    }

    #[test]
    fn equal_checksums_with_different_bytes_are_not_twins() {
        // A forged table: every page claims one checksum. Pages 0 and 2
        // differ in bytes from 1 and 3, which are equal.
        let pages: Vec<Vec<u8>> = [4u64, 9, 5, 9].map(tagged).to_vec();
        let SharedPages {
            table,
            pages: frames,
        } = classes_with(&[42; 4], &pages);
        assert_eq!(&*table, &[UNSHARED, 0, UNSHARED, 0]);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].frame().bytes(), &tagged(9)[..]);
        // The class checksum is hashed from the bytes, not taken from the
        // (forged) table.
        assert_eq!(frames[0].checksum(), crate::page_checksum(&tagged(9)));
    }

    /// A store of more pages than one open chunk in which pages 3, 40, 70
    /// and 71 share one content and pages 5 and 66 another.
    fn twin_store(name: &str) -> (PathBuf, PreadStore) {
        let mut all = pages(OPEN_CHUNK_PAGES + 8);
        for id in [40, 70, 71] {
            all[id] = all[3].clone();
        }
        all[66] = all[5].clone();
        let path = tmp(name);
        write_store(&path, &all, 0).unwrap();
        let s = PreadStore::open(&path).unwrap();
        (path, s)
    }

    #[test]
    fn open_builds_the_twin_table_across_chunks() {
        let (path, s) = twin_store("twins");
        assert_eq!(s.twins.table.len() as u64, OPEN_CHUNK_PAGES + 8);
        for (id, &class) in s.twins.table.iter().enumerate() {
            let want = match id {
                3 | 40 | 70 | 71 => 0,
                5 | 66 => 1,
                _ => UNSHARED,
            };
            assert_eq!(class, want, "page {id}");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn every_class_frame_equals_each_members_file_bytes() {
        let (path, s) = twin_store("copies");
        let mut members = 0;
        let mut bytes = vec![0u8; PAGE_SIZE];
        for id in (0..s.page_count()).map(PageId) {
            s.read_into(id, &mut bytes).unwrap();
            match s.shared(id) {
                Some(class) => {
                    assert_eq!(class.frame().bytes(), &bytes[..], "{id}");
                    assert_eq!(class.checksum(), s.checksums()[id.0 as usize], "{id}");
                    members += 1;
                }
                None => assert_eq!(s.twins.table[id.0 as usize], UNSHARED, "{id}"),
            }
        }
        assert_eq!(members, 6);
        assert!(s.shared(PageId(s.page_count())).is_none());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn the_store_keeps_one_frame_per_twin_class() {
        let (path, s) = twin_store("one_copy");
        let mut classes: Vec<u32> = s
            .twins
            .table
            .iter()
            .copied()
            .filter(|&c| c != UNSHARED)
            .collect();
        classes.sort_unstable();
        classes.dedup();
        assert_eq!(s.class_copies(), classes.len());
        assert_eq!(s.class_copies(), 2);
        // Members of one class share its one frame.
        let (a, b) = (s.shared(PageId(3)).unwrap(), s.shared(PageId(71)).unwrap());
        assert!(Arc::ptr_eq(a.frame(), b.frame()));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_store_without_repeats_keeps_no_copies() {
        let path = tmp("no_repeats");
        write_store(&path, &pages(OPEN_CHUNK_PAGES + 8), 0).unwrap();
        let s = PreadStore::open(&path).unwrap();
        assert_eq!(s.class_copies(), 0);
        assert!(s.twins.table.iter().all(|&c| c == UNSHARED));
        assert!((0..s.page_count()).all(|id| s.shared(PageId(id)).is_none()));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn open_reports_the_first_corrupt_page_past_the_first_chunk() {
        let path = tmp("corrupt_late");
        write_store(&path, &pages(OPEN_CHUNK_PAGES + 8), 0).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        for page in [OPEN_CHUNK_PAGES + 2, OPEN_CHUNK_PAGES + 5] {
            raw[(1 + page as usize) * PAGE_SIZE + 9] ^= 0x01;
        }
        std::fs::write(&path, &raw).unwrap();
        let err = PreadStore::open(&path).unwrap_err();
        let want = format!("page {} checksum", OPEN_CHUNK_PAGES + 2);
        assert!(err.to_string().contains(&want), "{err}");
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
