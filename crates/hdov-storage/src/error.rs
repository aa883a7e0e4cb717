//! Error type shared by the storage layer and its users.

use crate::PageId;
use std::fmt;
use std::path::PathBuf;

/// Result alias over [`StorageError`].
pub type Result<T> = std::result::Result<T, StorageError>;

/// Where a page store's bytes live — carried in out-of-bounds errors so a
/// backend bug ("the file-backed store is one page short") is diagnosable
/// from the error alone, without reconstructing which store served the read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOrigin {
    /// An in-memory store (`MemPagedFile` or a mem-frozen snapshot).
    Mem,
    /// A real file at this path.
    File(PathBuf),
}

impl fmt::Display for StoreOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreOrigin::Mem => write!(f, "mem store"),
            StoreOrigin::File(p) => write!(f, "file store {}", p.display()),
        }
    }
}

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A page id beyond the end of the file was accessed.
    PageOutOfBounds {
        /// The requested page.
        page: PageId,
        /// Number of pages in the file.
        page_count: u64,
        /// Which store (mem vs file + path) rejected the access.
        origin: StoreOrigin,
    },
    /// On-disk bytes failed to decode.
    Corrupt(String),
    /// A frozen-store file failed structural verification at open (bad
    /// magic/version/length, or a header, sidecar-table, or page checksum
    /// mismatch). Never transient: the bytes on disk are wrong.
    InvalidStore {
        /// The store file that failed verification.
        path: PathBuf,
        /// What check failed.
        reason: String,
    },
    /// A V-page's encoded form does not fit the fixed record slot it was
    /// given. Raised by the encoder instead of silently truncating entries;
    /// indicates a record-sizing bug in the store builder, never bad disk
    /// bytes.
    VPageOverflow {
        /// Entries in the page being encoded.
        entries: usize,
        /// Encoded length the page required.
        needed: usize,
        /// The fixed record slot it had to fit.
        record_bytes: usize,
    },
    /// A shard plan cannot be built for this tree and shard count (too
    /// many or too few shards, an out-of-range owner, or a tree too deep
    /// or too wide for its position keys). Never transient: the same
    /// inputs are rejected every time.
    InvalidPlan {
        /// What check failed.
        reason: String,
    },
}

impl StorageError {
    /// Whether retrying the same operation could plausibly succeed.
    ///
    /// Only [`Io`](StorageError::Io) is transient (a timeout or dropped
    /// request may clear); [`Corrupt`](StorageError::Corrupt),
    /// [`InvalidStore`](StorageError::InvalidStore),
    /// [`PageOutOfBounds`](StorageError::PageOutOfBounds),
    /// [`VPageOverflow`](StorageError::VPageOverflow) and
    /// [`InvalidPlan`](StorageError::InvalidPlan) are properties of the
    /// stored bytes or the request itself and are never retried.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::Io(_))
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::PageOutOfBounds {
                page,
                page_count,
                origin,
            } => {
                write!(
                    f,
                    "{page} out of bounds (file has {page_count} pages; {origin})"
                )
            }
            StorageError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            StorageError::InvalidStore { path, reason } => {
                write!(f, "invalid frozen store {}: {reason}", path.display())
            }
            StorageError::VPageOverflow {
                entries,
                needed,
                record_bytes,
            } => {
                write!(
                    f,
                    "v-page with {entries} entries encodes to {needed} bytes, \
                     exceeding the {record_bytes}-byte record slot"
                )
            }
            StorageError::InvalidPlan { reason } => write!(f, "invalid shard plan: {reason}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = StorageError::PageOutOfBounds {
            page: PageId(9),
            page_count: 4,
            origin: StoreOrigin::Mem,
        };
        assert!(e.to_string().contains("page#9"));
        assert!(e.to_string().contains("4 pages"));
        assert!(e.to_string().contains("mem store"));
        let c = StorageError::Corrupt("bad magic".into());
        assert!(c.to_string().contains("bad magic"));
    }

    #[test]
    fn out_of_bounds_carries_file_origin() {
        let e = StorageError::PageOutOfBounds {
            page: PageId(2),
            page_count: 1,
            origin: StoreOrigin::File(PathBuf::from("/tmp/scene/vstore.hdov")),
        };
        let s = e.to_string();
        assert!(s.contains("file store"));
        assert!(s.contains("vstore.hdov"));
    }

    #[test]
    fn invalid_store_display_names_path_and_reason() {
        let e = StorageError::InvalidStore {
            path: PathBuf::from("/tmp/x.hdov"),
            reason: "bad magic".into(),
        };
        let s = e.to_string();
        assert!(s.contains("invalid frozen store"));
        assert!(s.contains("x.hdov"));
        assert!(s.contains("bad magic"));
    }

    #[test]
    fn transience_classification() {
        let io: StorageError = std::io::Error::other("blip").into();
        assert!(io.is_transient());
        assert!(!StorageError::Corrupt("bad".into()).is_transient());
        assert!(!StorageError::PageOutOfBounds {
            page: PageId(1),
            page_count: 1,
            origin: StoreOrigin::Mem,
        }
        .is_transient());
        assert!(!StorageError::InvalidStore {
            path: PathBuf::from("x"),
            reason: "truncated".into(),
        }
        .is_transient());
        assert!(!StorageError::VPageOverflow {
            entries: 3,
            needed: 28,
            record_bytes: 12,
        }
        .is_transient());
        assert!(!StorageError::InvalidPlan {
            reason: "65 shards".into(),
        }
        .is_transient());
    }

    #[test]
    fn vpage_overflow_display_names_sizes() {
        let e = StorageError::VPageOverflow {
            entries: 5,
            needed: 44,
            record_bytes: 20,
        };
        let s = e.to_string();
        assert!(s.contains("5 entries"));
        assert!(s.contains("44 bytes"));
        assert!(s.contains("20-byte record slot"));
    }

    #[test]
    fn io_source_preserved() {
        use std::error::Error;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: StorageError = io.into();
        assert!(e.source().is_some());
    }
}
