//! Mutable scene storage: copy-on-write page tables over frozen bases,
//! made durable by the [`Wal`].
//!
//! A [`MutableStore`] manages a set of named page files. Each file has an
//! immutable frozen base (`<store>.<file>.hdov`, the last checkpoint) and a
//! [`PageTable`] mapping every page id to either the base or a shadow page
//! in memory. Writers stage full page post-images in a [`MutTxn`]; commit
//! logs them to the WAL, fsyncs the commit marker, and only then publishes
//! new page tables under a bumped epoch. Readers take [`StoreSnapshot`]s —
//! an `Arc` of each file's table pinned at a single epoch — so in-flight
//! reads keep resolving against their epoch while commits land.
//!
//! Recovery is replay: at open the bases are verified, then every durable
//! WAL transaction re-applies its page images in commit order. A crash at
//! any byte boundary therefore restores exactly the last committed epoch
//! (the WAL discards torn tails). [`checkpoint`](MutableStore::checkpoint)
//! folds the shadow pages back into fresh bases (written atomically via
//! temp + rename, generation = epoch) and resets the WAL; a crash *during*
//! checkpoint is safe because page images are absolute, so replaying them
//! over either the old or the new base converges to the same bytes.

use crate::wal::{RecoveredTxn, Wal};
use crate::{FrozenPages, Page, PageId, Result, StorageError, PAGE_SIZE};
use hdov_obs::Counter;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where a logical page's current bytes live.
#[derive(Debug, Clone)]
pub enum PageLoc {
    /// Unmodified since the last checkpoint: page `i` of the frozen base.
    Base(u64),
    /// Overwritten since the last checkpoint: an immutable shadow page.
    Shadow(Arc<Page>),
}

/// An immutable page-id → location map for one file at one epoch.
///
/// Commits never mutate a published table; they build a successor and swap
/// the `Arc`, so snapshots pinned to an older epoch keep reading their own
/// mapping untouched.
#[derive(Debug, Clone)]
pub struct PageTable {
    locs: Vec<PageLoc>,
}

impl PageTable {
    /// The identity table over an `n`-page base.
    pub fn identity(n: u64) -> Self {
        PageTable {
            locs: (0..n).map(PageLoc::Base).collect(),
        }
    }

    /// Number of logical pages (base pages plus any committed growth).
    pub fn page_count(&self) -> u64 {
        self.locs.len() as u64
    }

    /// Number of pages currently shadowed (diagnostics).
    pub fn shadow_count(&self) -> u64 {
        self.locs
            .iter()
            .filter(|l| matches!(l, PageLoc::Shadow(_)))
            .count() as u64
    }

    /// Copies logical page `id` into `out`, resolving through `base` for
    /// unmodified pages.
    pub fn read_into(&self, base: &FrozenPages, id: u64, out: &mut [u8]) -> Result<()> {
        match self.locs.get(id as usize) {
            Some(PageLoc::Base(i)) => base.read_into(PageId(*i), out),
            Some(PageLoc::Shadow(p)) => {
                out[..PAGE_SIZE].copy_from_slice(p.bytes());
                Ok(())
            }
            None => Err(StorageError::PageOutOfBounds {
                page: PageId(id),
                page_count: self.page_count(),
                origin: base.origin(),
            }),
        }
    }

    /// A successor table with `writes` applied as shadow pages. Writes past
    /// the current end grow the file (gaps fill with zero pages).
    fn with_writes<'a>(&self, writes: impl Iterator<Item = (u64, &'a Arc<Page>)>) -> Self {
        let mut locs = self.locs.clone();
        for (id, page) in writes {
            if id as usize >= locs.len() {
                locs.resize_with(id as usize + 1, || {
                    PageLoc::Shadow(Arc::new(Page::zeroed()))
                });
            }
            locs[id as usize] = PageLoc::Shadow(Arc::clone(page));
        }
        PageTable { locs }
    }
}

/// A staged (not yet durable) transaction: full page post-images keyed by
/// `(file_id, page_id)`. Deterministic iteration order (a B-tree map) keeps
/// the WAL byte stream reproducible for a given set of writes.
#[derive(Debug, Default)]
pub struct MutTxn {
    writes: BTreeMap<(u32, u64), Arc<Page>>,
}

impl MutTxn {
    /// Stages the post-image of one page. Later writes to the same page
    /// within the transaction replace earlier ones.
    ///
    /// # Panics
    /// Panics when `bytes` is longer than a page (`Page::from_bytes`);
    /// shorter images are zero-padded.
    pub fn write_page(&mut self, file_id: u32, page_id: u64, bytes: &[u8]) {
        self.writes
            .insert((file_id, page_id), Arc::new(Page::from_bytes(bytes)));
    }

    /// Number of distinct pages staged.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }
}

/// One file managed by the store.
#[derive(Debug)]
struct MutableFile {
    name: String,
    base_path: PathBuf,
    base: FrozenPages,
    table: Arc<PageTable>,
}

/// A read-only view of every file pinned at one commit epoch.
///
/// Snapshots are cheap (`Arc` clones) and stay valid — and unchanged —
/// across any number of later commits and checkpoints: the page tables are
/// immutable and shadow pages are refcounted, and a checkpoint replaces the
/// store's *handles*, not the bytes a pinned `FrozenPages` already holds.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    epoch: u64,
    files: Vec<(FrozenPages, Arc<PageTable>)>,
}

impl StoreSnapshot {
    /// The commit epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of logical pages in file `file_id`.
    pub fn page_count(&self, file_id: u32) -> u64 {
        self.files[file_id as usize].1.page_count()
    }

    /// Copies logical page `page_id` of file `file_id` into `out`.
    pub fn read_into(&self, file_id: u32, page_id: u64, out: &mut [u8]) -> Result<()> {
        let (base, table) = &self.files[file_id as usize];
        table.read_into(base, page_id, out)
    }

    /// Materializes every page of file `file_id` (checkpoint and rebuild
    /// helper).
    pub fn materialize(&self, file_id: u32) -> Result<Vec<Box<[u8]>>> {
        let n = self.page_count(file_id);
        let mut pages = Vec::with_capacity(n as usize);
        let mut buf = vec![0u8; PAGE_SIZE];
        for i in 0..n {
            self.read_into(file_id, i, &mut buf)?;
            pages.push(buf.clone().into_boxed_slice());
        }
        Ok(pages)
    }
}

/// A WAL-durable, shadow-paged store of named page files.
#[derive(Debug)]
pub struct MutableStore {
    dir: PathBuf,
    name: String,
    files: Vec<MutableFile>,
    wal: Wal,
    epoch: u64,
}

impl MutableStore {
    fn base_path(dir: &Path, store: &str, file: &str) -> PathBuf {
        dir.join(format!("{store}.{file}.hdov"))
    }

    fn wal_path(dir: &Path, store: &str) -> PathBuf {
        dir.join(format!("{store}.wal"))
    }

    /// Creates a store named `name` in `dir` from initial page images, one
    /// `(file name, pages)` entry per file (file ids are assigned in
    /// order). Writes each base store (atomically) at epoch 0 plus a fresh
    /// WAL.
    pub fn create<P: AsRef<[u8]>>(
        dir: &Path,
        name: &str,
        files: &[(&str, Vec<P>)],
    ) -> Result<MutableStore> {
        std::fs::create_dir_all(dir)?;
        let mut out = Vec::with_capacity(files.len());
        for (fname, pages) in files {
            let base_path = Self::base_path(dir, name, fname);
            crate::frozen::write_store(&base_path, pages, 0)?;
            let base = FrozenPages::open_pread(&base_path)?;
            let table = Arc::new(PageTable::identity(base.page_count()));
            out.push(MutableFile {
                name: (*fname).to_string(),
                base_path,
                base,
                table,
            });
        }
        let wal = Wal::create(&Self::wal_path(dir, name))?;
        Ok(MutableStore {
            dir: dir.to_path_buf(),
            name: name.to_string(),
            files: out,
            wal,
            epoch: 0,
        })
    }

    /// Opens an existing store: verifies every base (full frozen-store
    /// verification), replays the WAL, and re-applies each durable
    /// transaction's page images in commit order. The recovered epoch is
    /// the later of the bases' checkpoint generation and the last durable
    /// commit.
    pub fn open(dir: &Path, name: &str, file_names: &[&str]) -> Result<MutableStore> {
        let mut files = Vec::with_capacity(file_names.len());
        let mut base_epoch = 0u64;
        for fname in file_names {
            let base_path = Self::base_path(dir, name, fname);
            let base = FrozenPages::open_pread(&base_path)?;
            base_epoch = base_epoch.max(base.generation());
            let table = Arc::new(PageTable::identity(base.page_count()));
            files.push(MutableFile {
                name: (*fname).to_string(),
                base_path,
                base,
                table,
            });
        }
        let wal_path = Self::wal_path(dir, name);
        let (wal, txns) = if wal_path.exists() {
            Wal::open(&wal_path)?
        } else {
            // A checkpoint syncs bases before resetting the WAL, so a
            // missing log (e.g. crash between rename and WAL creation in
            // an external copy) means "no transactions since checkpoint".
            (Wal::create(&wal_path)?, Vec::new())
        };
        let mut store = MutableStore {
            dir: dir.to_path_buf(),
            name: name.to_string(),
            files,
            wal,
            epoch: base_epoch,
        };
        for txn in &txns {
            store.apply(txn);
            store.epoch = store.epoch.max(txn.epoch);
        }
        Ok(store)
    }

    fn apply(&mut self, txn: &RecoveredTxn) {
        let mut by_file: BTreeMap<u32, Vec<(u64, Arc<Page>)>> = BTreeMap::new();
        for (file_id, page_id, page) in &txn.pages {
            by_file
                .entry(*file_id)
                .or_default()
                .push((*page_id, Arc::new(page.clone())));
        }
        for (file_id, writes) in by_file {
            let f = &mut self.files[file_id as usize];
            let next = f.table.with_writes(writes.iter().map(|(id, p)| (*id, p)));
            f.table = Arc::new(next);
        }
    }

    /// Starts a transaction. Transactions are independent of the store
    /// until [`commit`](Self::commit); dropping one discards it.
    pub fn begin(&self) -> MutTxn {
        MutTxn::default()
    }

    /// Durably commits `txn`: page images and a commit marker go to the
    /// WAL (fsync'd), then — and only then — new page tables publish under
    /// the bumped epoch. Returns the committed epoch.
    ///
    /// Committing an empty transaction is a no-op that leaves the epoch
    /// untouched.
    pub fn commit(&mut self, txn: MutTxn) -> Result<u64> {
        if txn.is_empty() {
            return Ok(self.epoch);
        }
        for ((file_id, page_id), page) in &txn.writes {
            if *file_id as usize >= self.files.len() {
                return Err(StorageError::Corrupt(format!(
                    "commit targets unknown file id {file_id} (store has {})",
                    self.files.len()
                )));
            }
            self.wal.append_page(*file_id, *page_id, page.bytes())?;
        }
        let epoch = self.epoch + 1;
        self.wal.commit(epoch)?;
        // Durable. Publish the new tables.
        hdov_obs::add(Counter::CowPages, txn.writes.len() as u64);
        let mut by_file: BTreeMap<u32, Vec<(u64, Arc<Page>)>> = BTreeMap::new();
        for ((file_id, page_id), page) in &txn.writes {
            by_file
                .entry(*file_id)
                .or_default()
                .push((*page_id, Arc::clone(page)));
        }
        for (file_id, writes) in by_file {
            let f = &mut self.files[file_id as usize];
            f.table = Arc::new(f.table.with_writes(writes.iter().map(|(id, p)| (*id, p))));
        }
        self.epoch = epoch;
        Ok(epoch)
    }

    /// Folds every shadow page back into fresh frozen bases (written
    /// atomically, generation = current epoch) and resets the WAL.
    ///
    /// Crash-safe in both directions: before a base's rename the old base +
    /// full WAL replay reproduce the current epoch; after all renames the
    /// new bases alone carry it, and replaying the not-yet-reset WAL over
    /// them is idempotent (absolute page images).
    pub fn checkpoint(&mut self) -> Result<()> {
        let snap = self.snapshot();
        for (file_id, f) in self.files.iter_mut().enumerate() {
            let pages = snap.materialize(file_id as u32)?;
            crate::frozen::write_store(&f.base_path, &pages, self.epoch)?;
            f.base = FrozenPages::open_pread(&f.base_path)?;
            f.table = Arc::new(PageTable::identity(f.base.page_count()));
        }
        self.wal.reset()
    }

    /// A read view of every file pinned at the current epoch.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            epoch: self.epoch,
            files: self
                .files
                .iter()
                .map(|f| (f.base.clone(), Arc::clone(&f.table)))
                .collect(),
        }
    }

    /// Copies logical page `page_id` of file `file_id` into `out` at the
    /// current epoch.
    pub fn read_page(&self, file_id: u32, page_id: u64, out: &mut [u8]) -> Result<()> {
        let f = &self.files[file_id as usize];
        f.table.read_into(&f.base, page_id, out)
    }

    /// Number of logical pages in file `file_id` at the current epoch.
    pub fn page_count(&self, file_id: u32) -> u64 {
        self.files[file_id as usize].table.page_count()
    }

    /// File id of the file named `name`, if present.
    pub fn file_id(&self, name: &str) -> Option<u32> {
        self.files
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u32)
    }

    /// The current commit epoch (0 = freshly created, nothing committed).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Path of the write-ahead log.
    pub fn wal_path_of(&self) -> PathBuf {
        Self::wal_path(&self.dir, &self.name)
    }

    /// Current WAL length in bytes (header + durable records).
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// Directory holding the store's files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdov_mut_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
    }

    fn read_byte(store: &MutableStore, file_id: u32, page_id: u64) -> u8 {
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(file_id, page_id, &mut buf).unwrap();
        buf[0]
    }

    #[test]
    fn commit_publishes_and_snapshot_pins() {
        let dir = tmp("pin");
        let mut store =
            MutableStore::create(&dir, "s", &[("a", vec![page_of(1), page_of(2)])]).unwrap();
        assert_eq!(store.epoch(), 0);
        let before = store.snapshot();

        let mut txn = store.begin();
        txn.write_page(0, 1, &page_of(0x22));
        txn.write_page(0, 2, &page_of(0x33)); // growth
        assert_eq!(store.commit(txn).unwrap(), 1);

        assert_eq!(read_byte(&store, 0, 0), 1);
        assert_eq!(read_byte(&store, 0, 1), 0x22);
        assert_eq!(read_byte(&store, 0, 2), 0x33);
        assert_eq!(store.page_count(0), 3);

        // The pre-commit snapshot still reads the old epoch.
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.page_count(0), 2);
        let mut buf = vec![0u8; PAGE_SIZE];
        before.read_into(0, 1, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
        assert!(before.read_into(0, 2, &mut buf).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_replays_committed_transactions() {
        let dir = tmp("replay");
        let mut store = MutableStore::create(
            &dir,
            "s",
            &[("a", vec![page_of(1)]), ("b", vec![page_of(9)])],
        )
        .unwrap();
        let mut txn = store.begin();
        txn.write_page(0, 0, &page_of(0x11));
        txn.write_page(1, 0, &page_of(0x99));
        store.commit(txn).unwrap();
        let mut txn = store.begin();
        txn.write_page(0, 1, &page_of(0x12));
        store.commit(txn).unwrap();
        drop(store);

        let store = MutableStore::open(&dir, "s", &["a", "b"]).unwrap();
        assert_eq!(store.epoch(), 2);
        assert_eq!(read_byte(&store, 0, 0), 0x11);
        assert_eq!(read_byte(&store, 0, 1), 0x12);
        assert_eq!(read_byte(&store, 1, 0), 0x99);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_folds_shadows_and_survives_reopen() {
        let dir = tmp("ckpt");
        let mut store = MutableStore::create(&dir, "s", &[("a", vec![page_of(1)])]).unwrap();
        let mut txn = store.begin();
        txn.write_page(0, 0, &page_of(0x55));
        txn.write_page(0, 1, &page_of(0x56));
        store.commit(txn).unwrap();
        store.checkpoint().unwrap();
        assert_eq!(store.wal_len(), crate::wal::WAL_HEADER_LEN);
        assert_eq!(read_byte(&store, 0, 0), 0x55);
        drop(store);

        let store = MutableStore::open(&dir, "s", &["a"]).unwrap();
        assert_eq!(store.epoch(), 1, "epoch persists via base generation");
        assert_eq!(read_byte(&store, 0, 0), 0x55);
        assert_eq!(read_byte(&store, 0, 1), 0x56);

        // Epochs keep rising after a checkpoint: no reuse.
        let mut store = store;
        let mut txn = store.begin();
        txn.write_page(0, 0, &page_of(0x57));
        assert_eq!(store.commit(txn).unwrap(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_recovers_last_commit() {
        let dir = tmp("torn");
        let mut store = MutableStore::create(&dir, "s", &[("a", vec![page_of(1)])]).unwrap();
        let mut txn = store.begin();
        txn.write_page(0, 0, &page_of(0x10));
        store.commit(txn).unwrap();
        let mut txn = store.begin();
        txn.write_page(0, 0, &page_of(0x20));
        store.commit(txn).unwrap();
        let wal_path = store.wal_path_of();
        drop(store);

        // Chop the WAL 5 bytes into the second transaction's records.
        let bounds = crate::wal::record_boundaries(&wal_path).unwrap();
        let full = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &full[..bounds[2] as usize + 5]).unwrap();

        let store = MutableStore::open(&dir, "s", &["a"]).unwrap();
        assert_eq!(store.epoch(), 1, "second commit was torn away");
        assert_eq!(read_byte(&store, 0, 0), 0x10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let dir = tmp("noop");
        let mut store = MutableStore::create(&dir, "s", &[("a", vec![page_of(1)])]).unwrap();
        let txn = store.begin();
        assert_eq!(store.commit(txn).unwrap(), 0);
        assert_eq!(store.epoch(), 0);
        assert!(store.wal_len() == crate::wal::WAL_HEADER_LEN);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_ids_resolve_by_name() {
        let dir = tmp("names");
        let store =
            MutableStore::create(&dir, "s", &[("objects", vec![page_of(0)]), ("dov", vec![])])
                .unwrap();
        assert_eq!(store.file_id("objects"), Some(0));
        assert_eq!(store.file_id("dov"), Some(1));
        assert_eq!(store.file_id("nope"), None);
        assert_eq!(store.page_count(1), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
