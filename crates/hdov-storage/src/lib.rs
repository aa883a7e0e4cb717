//! Paged storage substrate for the HDoV-tree reproduction.
//!
//! The paper evaluates everything in terms of *page I/Os* against a disk, so
//! this crate provides:
//!
//! * fixed-size [`page`]s and little-endian [`codec`] helpers,
//! * the [`PagedFile`] abstraction with an in-memory backend, the build-time
//!   writer,
//! * an [`IoCursor`] that holds a disk head and charges the seek + transfer
//!   cost model into exact [`IoStats`] (page reads/writes, sequential vs.
//!   random, simulated elapsed time), and a [`SimulatedDisk`] wrapper that
//!   meters a build through one cursor,
//! * [`FrozenPages`] snapshots (in memory or pread-backed files) and
//!   the [`SharedCachedFile`] buffer pool: the one page-read path, where
//!   every page request takes one per-page probe, every miss is
//!   checksum-verified, retried and failed over, and the pool counts only
//!   `(hits, misses)` — the session's cursor is the one ledger of charges,
//!   and
//! * an [`LruCache`] (no counters of its own) used for the pool's shards,
//!   keyed through the one [`IdHasher`] every store-id map shares.
//!
//! All experiment "search time" numbers in the benchmark harness come from
//! the simulated clock, which makes the reproduction deterministic and
//! hardware-independent (see `DESIGN.md` §3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod checksum;
pub mod codec;
pub mod disk;
pub mod error;
pub mod fault;
pub mod file;
pub mod frame;
pub mod frozen;
pub mod idhash;
pub mod lru;
pub mod mutable;
pub mod page;
pub mod pread;
pub mod replica;
pub mod retry;
pub mod scrub;
pub mod shared;
pub mod stats;
pub mod wal;

pub use backend::{replica_path, FileMode, StorageBackend};
pub use checksum::page_checksum;
pub use codec::{read_varint, unzigzag, varint_len, zigzag, ByteReader, ByteWriter};
pub use disk::{DiskModel, IoCursor, SimulatedDisk};
pub use error::{Result, StorageError, StoreOrigin};
pub use fault::{FaultPlan, FaultyFile, SharedFaultyFile};
pub use file::{MemPagedFile, PagedFile};
pub use frame::{Frame, SharedPage, SharedPages};
pub use idhash::{IdHashMap, IdHasher};
pub use lru::LruCache;
pub use mutable::{MutTxn, MutableStore, PageLoc, PageTable, StoreSnapshot};
pub use page::{Page, PageId, PAGE_SIZE};
pub use pread::PreadStore;
pub use replica::{ReplicaHealth, ReplicaSet};
pub use retry::RetryPolicy;
pub use scrub::{verify_pool, ManualScrubClock, ScrubClock, ScrubConfig, ScrubReport, Scrubber};
pub use shared::{FrozenPages, SharedCachedFile};
pub use stats::IoStats;
pub use wal::{RecoveredTxn, Wal};
