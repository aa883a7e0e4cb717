//! Storage-backend selection: where a built environment's frozen stores
//! live.
//!
//! Building always happens in memory (a
//! [`MemPagedFile`](crate::MemPagedFile) frozen into a [`FrozenPages`]); a
//! [`StorageBackend`] then decides what **relocation** does to each built
//! store: nothing (the deterministic mem twin), or serialize it as a
//! frozen-store file and reopen it for positioned reads. Answers and
//! simulated costs are byte-identical across backends by construction —
//! the file holds exactly the pages the mem store held, verified by the
//! checksum sidecar at open.

use crate::shared::FrozenPages;
use crate::Result;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// How a file-backed frozen store is read. There is one way, `pread`; the
/// enum stays only because the serving benchmark (`hdov_perf`) names
/// `FileMode::Pread` when it builds its file backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FileMode {
    /// Positioned reads on a shared handle; run prefetch issues one
    /// `pread` per contiguous run.
    #[default]
    Pread,
}

/// Where relocated stores live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageBackend {
    /// Keep every store in memory (the deterministic CI twin; default).
    Mem,
    /// Serialize each store as `<dir>/<name>.hdov` and reopen it in the
    /// given [`FileMode`].
    File {
        /// Directory holding the store files (created on first freeze).
        dir: PathBuf,
        /// How reopened stores are read.
        mode: FileMode,
        /// Copies written per store (≥ 1). Replica `k ≥ 1` lives at
        /// `<dir>/<name>.r<k>.hdov`; all copies share one generation, and
        /// the reopened store carries the extras for failover + repair.
        replicas: usize,
    },
}

/// Path of replica `k` of store `name` under `dir`: the primary (`k = 0`)
/// is `<name>.hdov`, replica `k ≥ 1` is `<name>.r<k>.hdov`.
pub fn replica_path(dir: &Path, name: &str, k: usize) -> PathBuf {
    if k == 0 {
        dir.join(format!("{name}.hdov"))
    } else {
        dir.join(format!("{name}.r{k}.hdov"))
    }
}

/// Monotonic build counter stamped into store headers as the generation.
static GENERATION: AtomicU64 = AtomicU64::new(1);

impl StorageBackend {
    /// The file backend, unreplicated.
    pub fn file(dir: impl Into<PathBuf>) -> Self {
        StorageBackend::File {
            dir: dir.into(),
            mode: FileMode::Pread,
            replicas: 1,
        }
    }

    /// Sets the copy count on a file backend (≥ 1; a no-op on `Mem`, whose
    /// replication is provided by pool-level padding — see
    /// [`SharedCachedFile::with_replicas`](crate::SharedCachedFile::with_replicas)).
    #[must_use]
    pub fn replicated(mut self, n: usize) -> Self {
        if let StorageBackend::File { replicas, .. } = &mut self {
            *replicas = n.max(1);
        }
        self
    }

    /// Parses a `--backend` argument: `mem`, `file` or `file:pread` (the
    /// same backend), optionally suffixed `@N` for N store replicas (file
    /// backends only); file stores go under `dir`.
    pub fn from_arg(arg: &str, dir: &Path) -> Option<Self> {
        let (base, replicas) = match arg.split_once('@') {
            Some((b, n)) => (b, n.parse::<usize>().ok().filter(|&n| n >= 1)?),
            None => (arg, 1),
        };
        match base {
            "mem" => (replicas == 1).then_some(StorageBackend::Mem),
            "file" | "file:pread" => Some(StorageBackend::File {
                dir: dir.to_path_buf(),
                mode: FileMode::Pread,
                replicas,
            }),
            _ => None,
        }
    }

    /// Copies written per store (1 for `Mem` and unreplicated file
    /// backends).
    pub fn replicas(&self) -> usize {
        match self {
            StorageBackend::Mem => 1,
            StorageBackend::File { replicas, .. } => (*replicas).max(1),
        }
    }

    /// Whether this backend serves pages from real files.
    pub fn is_file(&self) -> bool {
        matches!(self, StorageBackend::File { .. })
    }

    /// Short stable label (`mem`, `file:pread`) for reports.
    pub fn label(&self) -> &'static str {
        match self {
            StorageBackend::Mem => "mem",
            StorageBackend::File { .. } => "file:pread",
        }
    }

    /// Places the frozen store `frozen` on this backend under the store
    /// name `name`, with frozen-store header `flags` (see
    /// [`crate::frozen::STORE_FLAG_VPAGE_DELTA`]).
    ///
    /// On `Mem` this returns `frozen` as it is. On `File` the store is
    /// serialized (with its checksum sidecar) to `<dir>/<name>.hdov` plus
    /// one file per extra replica, then reopened — and thereby fully
    /// verified — for positioned reads.
    pub fn freeze(&self, name: &str, frozen: FrozenPages, flags: u32) -> Result<FrozenPages> {
        match self {
            StorageBackend::Mem => Ok(frozen),
            StorageBackend::File { dir, replicas, .. } => {
                std::fs::create_dir_all(dir)?;
                let n = (*replicas).max(1);
                let generation = GENERATION.fetch_add(1, Ordering::Relaxed);
                let paths: Vec<PathBuf> = (0..n).map(|k| replica_path(dir, name, k)).collect();
                frozen.write_replicated(&paths, generation, flags)?;
                let primary = FrozenPages::open_pread(&paths[0])?;
                let extras = paths[1..]
                    .iter()
                    .map(|p| FrozenPages::open_pread(p))
                    .collect::<Result<Vec<_>>>()?;
                Ok(primary.with_replicas(extras))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemPagedFile, Page, PageId, PagedFile};

    fn built(n: u64) -> FrozenPages {
        let mut f = MemPagedFile::new();
        for i in 0..n {
            let id = f.allocate_page().unwrap();
            let mut p = Page::zeroed();
            p.bytes_mut()[..8].copy_from_slice(&i.to_le_bytes());
            f.write_page(id, &p).unwrap();
        }
        FrozenPages::from_mem(f)
    }

    #[test]
    fn parse_backend_args() {
        let d = Path::new("/tmp/stores");
        assert_eq!(
            StorageBackend::from_arg("mem", d),
            Some(StorageBackend::Mem)
        );
        assert_eq!(
            StorageBackend::from_arg("file", d),
            StorageBackend::from_arg("file:pread", d)
        );
        assert_eq!(
            StorageBackend::from_arg("file:pread", d).map(|b| b.label()),
            Some("file:pread")
        );
        assert_eq!(StorageBackend::from_arg("floppy", d), None);
        assert!(!StorageBackend::Mem.is_file());
        assert!(StorageBackend::file("/tmp/x").is_file());
    }

    #[test]
    fn parse_replica_suffix() {
        let d = Path::new("/tmp/stores");
        let b = StorageBackend::from_arg("file:pread@3", d).unwrap();
        assert_eq!(b.replicas(), 3);
        assert_eq!(b.label(), "file:pread");
        assert_eq!(StorageBackend::from_arg("file@2", d).unwrap().replicas(), 2);
        assert_eq!(StorageBackend::from_arg("file@0", d), None);
        assert_eq!(StorageBackend::from_arg("file@x", d), None);
        assert_eq!(StorageBackend::from_arg("mem@2", d), None);
        assert_eq!(StorageBackend::from_arg("mem", d).unwrap().replicas(), 1);
        assert_eq!(StorageBackend::file("/x").replicated(2).replicas(), 2);
        assert_eq!(StorageBackend::Mem.replicated(2).replicas(), 1);
    }

    #[test]
    fn replicated_freeze_writes_n_identical_stores() {
        let dir = std::env::temp_dir().join(format!("hdov_backend_rep_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let b = StorageBackend::file(&dir).replicated(3);
        let fp = b.freeze("cells", built(4), 0).unwrap();
        assert_eq!(fp.replica_count(), 3);
        let bytes0 = std::fs::read(replica_path(&dir, "cells", 0)).unwrap();
        for k in 1..3 {
            let p = replica_path(&dir, "cells", k);
            assert_eq!(std::fs::read(&p).unwrap(), bytes0, "{}", p.display());
        }
        for (k, r) in fp.replicas().iter().enumerate() {
            assert_eq!(r.page_count(), 4);
            assert_eq!(r.generation(), fp.generation(), "replica {k} generation");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn freeze_on_every_backend_serves_identical_pages() {
        let dir = std::env::temp_dir().join(format!("hdov_backend_{}", std::process::id()));
        let backends = [StorageBackend::Mem, StorageBackend::file(&dir)];
        for b in backends {
            let fp = b.freeze("cells", built(4), 0).unwrap();
            assert_eq!(fp.page_count(), 4);
            let mut out = Page::zeroed();
            for i in 0..4u64 {
                fp.read_into(PageId(i), out.bytes_mut()).unwrap();
                assert_eq!(&out.bytes()[..8], &i.to_le_bytes(), "{}", b.label());
            }
            if b.is_file() {
                assert!(fp.generation() > 0, "file stores carry a generation");
                assert!(fp.origin().to_string().contains("cells.hdov"));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
