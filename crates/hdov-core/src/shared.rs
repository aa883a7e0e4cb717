//! The read path: query a built HDoV-tree from one session or from many at
//! once.
//!
//! A built tree is frozen into a [`SharedEnvironment`]: every file becomes
//! an immutable [`SharedCachedFile`] (lock-striped LRU pool + atomic
//! counters), and all per-session mutability — disk-head positions, I/O
//! counters, the flipped-in V-page-index segment — lives in a per-session
//! [`SessionCtx`]. Queries take `&SharedEnvironment`, so any number of
//! threads can search concurrently, sharing pool contents; V-pages, nodes,
//! and models warmed by one session are hits for every other session in
//! the same cell neighbourhood.
//!
//! The single-user [`HdovEnvironment`](crate::HdovEnvironment) is one
//! session over one such environment, with a pool layout that keeps
//! nothing but the last V-page disk page read — the paper's cache-less
//! simulated disk, charged by the same [`IoCursor`] rule.
//!
//! Served sessions (a [`Query`] with `prefetch` set, as
//! [`SharedEnvironment::query_cell`] and
//! [`query_delta_into`](SharedEnvironment::query_delta_into) issue) also
//! batch their V-page reads: after the segment flip, the distinct V-page
//! disk pages of the cell are read once, in ascending order (one
//! sequential run), instead of being pointer-chased mid-recursion
//! ([`SharedEnvironment::prefetch_cell`]). The horizontal scheme cannot
//! batch (its layout is node-major, the paper's §4.1 weakness) and skips
//! this.
//!
//! The traversal itself is the one walk of the walk module;
//! [`SharedEnvironment::search`] runs it with a storage adapter that reads
//! through the pools and charges the session's cursors. The adapter also
//! owns the two steps every traversal shares: Fig. 3's per-entry decision
//! and the Eq. 5/6 LoD fetch.
//!
//! The adapter lives for one query and keeps the last V-page disk page it
//! read, so a run of records clustered on one page (§4.2–4.3) costs one
//! V-page pool probe, not one per node. In one session the skipped probes
//! were hits on the page its shard had just promoted, so no miss, charge
//! or LRU order moves; concurrent sessions see the page promoted once per
//! run instead of once per record (see [`SharedVStore::fetch`]).

use crate::build::{HdovTree, TerminationHeuristic};
use crate::delta::{DeltaSearch, DeltaSummary};
use crate::node::{HdovEntry, NodePage};
use crate::search::{
    check, object_blend, select_level, terminates_with, Query, QueryResult, ResultEntry, ResultKey,
    SearchStats,
};
use crate::storage::StorageScheme;
use crate::vpage::{VEntry, VPage};
use crate::walk;
use hdov_geom::Vec3;
use hdov_obs::Phase;
use hdov_scene::{ModelHandle, ModelStore, Scene};
use hdov_storage::codec::ByteReader;
use hdov_storage::{
    DiskModel, FaultPlan, Frame, IoCursor, IoStats, MemPagedFile, PageId, ReplicaHealth, Result,
    RetryPolicy, ScrubReport, Scrubber, SharedCachedFile, SharedFaultyFile, SimulatedDisk,
    StorageBackend, PAGE_SIZE,
};
use hdov_visibility::{CellGrid, CellId, DovTable};
use std::convert::Infallible;
use std::sync::Arc;

/// Nil pointer in a dense V-page-index segment (matches the vertical
/// scheme's on-disk encoding).
pub(crate) const NIL: u64 = u64::MAX;

/// Bytes per indexed-vertical index record: node offset (u32) + V-page
/// pointer (u64).
pub(crate) const INDEX_REC_BYTES: usize = 12;

/// The V-page disk page a query read last, with its pooled frame. It lives
/// for one query only: a longer-lived memo would pin the frame past its
/// eviction from the pool.
pub(crate) type PageMemo = Option<(u64, Arc<Frame>)>;

/// Maps one pool of an environment to its replacement (see
/// [`SharedEnvironment::try_map_pools`]).
type MapPool<'a, E> =
    dyn FnMut(PoolFile, &SharedCachedFile) -> std::result::Result<SharedCachedFile, E> + 'a;

/// The five files behind an environment, in
/// [`for_each_pool`](SharedEnvironment::for_each_pool) order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PoolFile {
    Nodes,
    Internal,
    Models,
    Index,
    VPages,
}

/// Buffer-pool geometry for a frozen environment.
///
/// Each of the five files (nodes, internal LoDs, object models, V-page
/// index, V-pages) gets its own pool of `capacity_pages` pages striped over
/// `shards` locks, so total pool memory is `5 · capacity_pages · 4 KiB`.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Pages per pool.
    pub capacity_pages: usize,
    /// Lock stripes per pool.
    pub shards: usize,
    /// Transient-failure retry policy applied by every pool on page reads.
    /// Only engages under armed fault injection
    /// ([`SharedEnvironment::arm_faults`]); fault-free reads never retry.
    pub retry: RetryPolicy,
    /// Replica count every pool is padded to (≥ 1). File backends frozen
    /// with [`StorageBackend::replicated`](hdov_storage::StorageBackend)
    /// already carry their on-disk copies; this pads mem-backed stores so
    /// failover and repair are exercisable without files. Fault-free reads
    /// never touch replicas, so answers and simulated costs are unchanged.
    pub replicas: usize,
}

impl PoolConfig {
    /// A cold pool over `pool`'s frozen data with this geometry.
    fn apply(&self, pool: &SharedCachedFile) -> SharedCachedFile {
        pool.resized(self.capacity_pages, self.shards)
            .with_retry(self.retry)
            .with_replicas(self.replicas)
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            capacity_pages: 128,
            shards: 8,
            retry: RetryPolicy::default(),
            replicas: 1,
        }
    }
}

/// Frozen V-page records behind a shared pool, packed several per disk
/// page (never straddling), addressed by record index.
pub struct SharedVPageFile {
    pool: SharedCachedFile,
    records: u64,
    record_bytes: usize,
    records_per_page: u64,
    codec: crate::vpage::VPageCodec,
}

impl SharedVPageFile {
    pub(crate) fn new(
        pool: SharedCachedFile,
        records: u64,
        record_bytes: usize,
        records_per_page: u64,
        codec: crate::vpage::VPageCodec,
    ) -> Self {
        SharedVPageFile {
            pool,
            records,
            record_bytes,
            records_per_page,
            codec,
        }
    }

    /// The disk page holding record `idx` (for batched prefetch).
    pub fn disk_page_of(&self, idx: u64) -> u64 {
        idx / self.records_per_page
    }

    /// Reads record `idx`, charging any pool miss to `cursor`.
    ///
    /// Zero-copy: the disk page comes back as a pooled frame, and the
    /// frame's overlay holds every record of the page decoded (trailing
    /// unused slots are zero bytes, which decode as empty V-pages). Repeat
    /// reads of any record on the page — from this or any other session —
    /// share the one decoded vector. A store-owned frame (every page of a
    /// mem store) keeps it as long as the store; a pool's copy drops it at
    /// eviction.
    ///
    /// Every call probes the pool once and holds no frame after it
    /// returns; a query reading many records instead probes once per run
    /// of records on the same page (see [`SharedVStore::fetch`]).
    pub fn read(&self, cursor: &mut IoCursor, idx: u64) -> Result<Arc<VPage>> {
        self.read_with(cursor, &mut None, idx)
    }

    /// [`read`](Self::read) through `memo`, the last disk page this query
    /// read: the pool is probed only when record `idx` lies on another
    /// page, which then replaces the memo.
    pub(crate) fn read_with(
        &self,
        cursor: &mut IoCursor,
        memo: &mut PageMemo,
        idx: u64,
    ) -> Result<Arc<VPage>> {
        let page = self.disk_page_of(idx);
        let frame = match memo {
            Some((p, frame)) if *p == page => frame,
            _ => {
                let frame = self.pool.read_frame(cursor, PageId(page))?;
                &memo.insert((page, frame)).1
            }
        };
        let slot = (idx % self.records_per_page) as usize;
        let rb = self.record_bytes;
        let rpp = self.records_per_page as usize;
        let codec = self.codec;
        // Batch decode: one pass materializes every record of the page into
        // the frame's OnceLock overlay slot, so the whole page pays decode
        // at most once per frame regardless of codec. The read
        // borrows the decoded vector and clones only the one record's `Arc`.
        frame.with_overlay(
            |page| {
                hdov_obs::add(hdov_obs::Counter::CodecDecodes, rpp as u64);
                let mut v = Vec::with_capacity(rpp);
                for s in 0..rpp {
                    v.push(Arc::new(codec.decode_record(&page[s * rb..(s + 1) * rb])?));
                }
                Ok(v)
            },
            |decoded: &Vec<Arc<VPage>>| Arc::clone(&decoded[slot]),
        )
    }

    /// Number of records.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes per record slot; slot `s` of a disk page starts at byte
    /// `s · record_bytes`.
    pub fn record_bytes(&self) -> usize {
        self.record_bytes
    }

    /// The backing pool.
    pub fn pool(&self) -> &SharedCachedFile {
        &self.pool
    }

    /// The wire format of the records.
    pub fn codec(&self) -> crate::vpage::VPageCodec {
        self.codec
    }
}

/// Per-session query state: disk-head cursors for every file plus the
/// flipped-in V-page-index segment. Cheap to create; one per walkthrough
/// session (or per thread).
#[derive(Debug, Clone, Default)]
pub struct SessionCtx {
    /// Node-file head.
    pub node_cur: IoCursor,
    /// Internal-LoD-file head.
    pub internal_cur: IoCursor,
    /// Object-model-file head.
    pub model_cur: IoCursor,
    /// V-page-index-file head.
    pub index_cur: IoCursor,
    /// V-page-file head.
    pub vpage_cur: IoCursor,
    current_cell: Option<CellId>,
    /// Dense segment (vertical): pointer per node, [`NIL`] = hidden.
    seg_dense: Vec<u64>,
    /// Sparse segment (indexed-vertical): `(ordinal, pointer)` ascending.
    seg_sparse: Vec<(u32, u64)>,
    /// Reusable staging buffer for the indexed-vertical flip (segment bytes
    /// straddle page boundaries).
    seg_bytes: Vec<u8>,
    /// The current cell's V-page disk pages as maximal consecutive
    /// `(first page, length)` runs, ascending: planned at the flip, warmed
    /// by [`SharedVStore::prefetch_cell`].
    prefetch_runs: Vec<(u64, u64)>,
}

/// Replaces `runs` with `pages` sorted, deduplicated and coalesced into
/// maximal consecutive `(first page, length)` runs.
fn plan_runs(runs: &mut Vec<(u64, u64)>, pages: impl Iterator<Item = u64>) {
    runs.clear();
    runs.extend(pages.map(|p| (p, 1)));
    runs.sort_unstable();
    // Ascending pages: one inside the last run is a duplicate, one just
    // past its end extends it.
    runs.dedup_by(|next, last| {
        let end = last.0 + last.1;
        if next.0 == end {
            last.1 += 1;
        }
        next.0 <= end
    });
}

impl SessionCtx {
    /// A fresh session: no head-position memory, no flipped segment.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cell last entered.
    pub fn current_cell(&self) -> Option<CellId> {
        self.current_cell
    }
}

/// A frozen visibility store — one of the three §4 layouts (see
/// [`StorageScheme`]) — with all per-session state (current cell, flipped
/// segment, disk heads) in [`SessionCtx`].
pub enum SharedVStore {
    /// §4.1 node-major layout.
    Horizontal(SharedHorizontal),
    /// §4.2 dense per-cell segments + clustered V-pages.
    Vertical(SharedVertical),
    /// §4.3 sparse per-cell segments.
    IndexedVertical(SharedIndexedVertical),
}

/// Frozen horizontal store.
pub struct SharedHorizontal {
    pub(crate) vpages: SharedVPageFile,
    pub(crate) cells: u32,
    pub(crate) n_nodes: u32,
}

/// Frozen vertical store.
pub struct SharedVertical {
    pub(crate) index: SharedCachedFile,
    pub(crate) vpages: SharedVPageFile,
    pub(crate) cells: u32,
    pub(crate) n_nodes: u32,
    pub(crate) seg_pages: u64,
}

/// Frozen indexed-vertical store.
pub struct SharedIndexedVertical {
    pub(crate) index: SharedCachedFile,
    pub(crate) vpages: SharedVPageFile,
    pub(crate) cells: u32,
    pub(crate) n_nodes: u32,
    /// Per-cell `(start_byte, record_count)` directory.
    pub(crate) dir: Arc<Vec<(u64, u32)>>,
}

impl SharedVStore {
    /// The scheme this store implements.
    pub fn scheme(&self) -> StorageScheme {
        match self {
            SharedVStore::Horizontal(_) => StorageScheme::Horizontal,
            SharedVStore::Vertical(_) => StorageScheme::Vertical,
            SharedVStore::IndexedVertical(_) => StorageScheme::IndexedVertical,
        }
    }

    /// Number of cells the store was built for.
    pub fn cell_count(&self) -> u32 {
        match self {
            SharedVStore::Horizontal(s) => s.cells,
            SharedVStore::Vertical(s) => s.cells,
            SharedVStore::IndexedVertical(s) => s.cells,
        }
    }

    /// `Ok` when `cell` is inside the grid, else
    /// [`StorageError::InvalidPlan`](hdov_storage::StorageError).
    pub(crate) fn check_cell(&self, cell: CellId) -> Result<()> {
        let cells = self.cell_count();
        check(cell < cells, || {
            format!("cell {cell} outside the {cells}-cell grid")
        })
    }

    /// Segment flip for `ctx` into `cell` — charged to the session's index
    /// cursor; a no-op when the session is already in `cell`. The flip also
    /// plans the cell's prefetch runs (see
    /// [`prefetch_cell`](Self::prefetch_cell)). A cell outside
    /// the grid is [`StorageError::InvalidPlan`](hdov_storage::StorageError),
    /// before anything is read.
    pub fn enter_cell(&self, ctx: &mut SessionCtx, cell: CellId) -> Result<()> {
        self.check_cell(cell)?;
        if ctx.current_cell == Some(cell) {
            return Ok(());
        }
        // A failed flip must not leave the old cell's tag over a partially
        // overwritten segment (the next same-cell query would no-op on
        // corrupt state): tag only after the flip fully succeeds.
        ctx.current_cell = None;
        match self {
            SharedVStore::Horizontal(_) => {}
            SharedVStore::Vertical(s) => {
                // Parse straight out of the pooled frames into the
                // session's reused segment buffer: no scratch page, no
                // fresh Vec at steady state.
                ctx.seg_dense.clear();
                ctx.seg_dense.reserve(s.n_nodes as usize);
                let first = cell as u64 * s.seg_pages;
                for i in 0..s.seg_pages {
                    let frame = s.index.read_frame(&mut ctx.index_cur, PageId(first + i))?;
                    let mut r = ByteReader::new(frame.bytes());
                    for _ in 0..PAGE_SIZE / 8 {
                        if ctx.seg_dense.len() == s.n_nodes as usize {
                            break;
                        }
                        ctx.seg_dense.push(r.get_u64()?);
                    }
                }
                let pages = ctx.seg_dense.iter().filter(|&&p| p != NIL);
                plan_runs(
                    &mut ctx.prefetch_runs,
                    pages.map(|&p| s.vpages.disk_page_of(p)),
                );
            }
            SharedVStore::IndexedVertical(s) => {
                let (start_byte, count) = s.dir[cell as usize];
                let seg_bytes = count as usize * INDEX_REC_BYTES;
                ctx.seg_sparse.clear();
                if seg_bytes > 0 {
                    // Records straddle page boundaries, so stage the raw
                    // bytes in the session's reused buffer.
                    let first_page = start_byte / PAGE_SIZE as u64;
                    let last_page = (start_byte + seg_bytes as u64 - 1) / PAGE_SIZE as u64;
                    ctx.seg_bytes.clear();
                    ctx.seg_bytes
                        .reserve(((last_page - first_page + 1) as usize) * PAGE_SIZE);
                    ctx.seg_sparse.reserve(count as usize);
                    for p in first_page..=last_page {
                        let frame = s.index.read_frame(&mut ctx.index_cur, PageId(p))?;
                        ctx.seg_bytes.extend_from_slice(frame.bytes());
                    }
                    let off = (start_byte - first_page * PAGE_SIZE as u64) as usize;
                    let mut r = ByteReader::new(&ctx.seg_bytes[off..off + seg_bytes]);
                    for _ in 0..count {
                        let ordinal = r.get_u32()?;
                        let ptr = r.get_u64()?;
                        ctx.seg_sparse.push((ordinal, ptr));
                    }
                }
                let pages = ctx
                    .seg_sparse
                    .iter()
                    .map(|&(_, p)| s.vpages.disk_page_of(p));
                plan_runs(&mut ctx.prefetch_runs, pages);
            }
        }
        ctx.current_cell = Some(cell);
        Ok(())
    }

    /// The V-page record of node `ordinal` in the session's current cell;
    /// `None` when the node is invisible **and** the scheme can prove it
    /// without touching disk (vertical / indexed-vertical). The horizontal
    /// scheme has a record for every node. Reads nothing.
    ///
    /// # Panics
    /// Panics if the session entered no cell or `ordinal` is out of range.
    pub fn record_of(&self, ctx: &SessionCtx, ordinal: u32) -> Option<u64> {
        let cell = ctx.current_cell.expect("enter_cell before fetch");
        match self {
            SharedVStore::Horizontal(s) => {
                assert!(ordinal < s.n_nodes, "node ordinal out of range");
                Some(ordinal as u64 * s.cells as u64 + cell as u64)
            }
            SharedVStore::Vertical(s) => {
                assert!(ordinal < s.n_nodes, "node ordinal out of range");
                Some(ctx.seg_dense[ordinal as usize]).filter(|&p| p != NIL)
            }
            SharedVStore::IndexedVertical(s) => {
                assert!(ordinal < s.n_nodes, "node ordinal out of range");
                let i = ctx
                    .seg_sparse
                    .binary_search_by_key(&ordinal, |&(o, _)| o)
                    .ok()?;
                Some(ctx.seg_sparse[i].1)
            }
        }
    }

    /// Fetches the V-page of node `ordinal` in the session's current cell.
    ///
    /// Returns `Ok(None)` when the node is invisible **and** the scheme can
    /// prove it without touching disk (see [`record_of`](Self::record_of)).
    /// The horizontal scheme always performs one V-page access and returns
    /// an all-hidden V-page for invisible nodes. The V-page is borrowed from
    /// the pooled frame's decoded overlay — no per-fetch decode or copy
    /// once the frame is warm.
    ///
    /// Each call probes the V-page pool and holds no frame after it
    /// returns. A query instead keeps the last V-page disk page it read and
    /// probes the pool only when the next record lies on another page, so
    /// a run of records clustered on one page (§4.2–4.3) costs one probe.
    /// The skipped probes were hits that promoted the page its shard had
    /// just used, so one session's misses, charges and LRU order are
    /// unchanged; only concurrent sessions see a page promoted once per run
    /// rather than once per record. (A V-page pool of capacity 0 keeps
    /// nothing, so there a run is charged one miss instead of one per
    /// record.)
    ///
    /// # Panics
    /// Panics if the session entered no cell.
    pub fn fetch(&self, ctx: &mut SessionCtx, ordinal: u32) -> Result<Option<Arc<VPage>>> {
        self.fetch_with(ctx, &mut None, ordinal)
    }

    /// [`fetch`](Self::fetch) through the query's page memo (see
    /// [`SharedVPageFile::read_with`]).
    pub(crate) fn fetch_with(
        &self,
        ctx: &mut SessionCtx,
        memo: &mut PageMemo,
        ordinal: u32,
    ) -> Result<Option<Arc<VPage>>> {
        match self.record_of(ctx, ordinal) {
            None => Ok(None),
            Some(idx) => self
                .vpages()
                .read_with(&mut ctx.vpage_cur, memo, idx)
                .map(Some),
        }
    }

    /// Batch-reads the current cell's V-pages: the distinct disk pages
    /// holding them, ascending, as the maximal consecutive runs the flip
    /// planned, so subsequent fetches are pool hits. Charged to the
    /// session's V-page cursor. Returns the number of disk pages touched.
    ///
    /// The horizontal scheme interleaves every cell's V-pages node-major, so
    /// there is no per-cell run to batch: this is a no-op returning 0 (the
    /// paper's §4.1 scatter penalty, unchanged).
    pub fn prefetch_cell(&self, ctx: &mut SessionCtx) -> Result<u64> {
        let _prefetch = hdov_obs::span(Phase::Prefetch);
        let vpages = match self {
            SharedVStore::Horizontal(_) => return Ok(0),
            SharedVStore::Vertical(s) => &s.vpages,
            SharedVStore::IndexedVertical(s) => &s.vpages,
        };
        assert!(
            ctx.current_cell.is_some(),
            "enter_cell before prefetch_cell"
        );
        // Speculative warm-up must not displace genuinely hot recency
        // state, so resident pages are probed without promotion; misses
        // charge and install exactly like a read. Each run is warmed
        // through one vectored request — on the file backend a run costs
        // at most one physical read (`pread`).
        let mut pages = 0;
        for &(first, len) in &ctx.prefetch_runs {
            vpages
                .pool
                .warm_run(&mut ctx.vpage_cur, PageId(first), len)?;
            pages += len;
        }
        Ok(pages)
    }

    /// The store's V-page file (every layout clusters its V-pages in one).
    pub fn vpages(&self) -> &SharedVPageFile {
        match self {
            SharedVStore::Horizontal(s) => &s.vpages,
            SharedVStore::Vertical(s) => &s.vpages,
            SharedVStore::IndexedVertical(s) => &s.vpages,
        }
    }

    /// `(hits, misses)` summed over the store's pools.
    pub fn pool_hit_stats(&self) -> (u64, u64) {
        let (mut h, mut m) = (0, 0);
        let mut add = |(a, b): (u64, u64)| {
            h += a;
            m += b;
        };
        match self {
            SharedVStore::Horizontal(s) => add(s.vpages.pool.hit_stats()),
            SharedVStore::Vertical(s) => {
                add(s.index.hit_stats());
                add(s.vpages.pool.hit_stats());
            }
            SharedVStore::IndexedVertical(s) => {
                add(s.index.hit_stats());
                add(s.vpages.pool.hit_stats());
            }
        }
        (h, m)
    }

    /// Exact storage footprint in bytes, per the paper's §4 formulas
    /// (excluding the tree structure, as in Table 2).
    pub fn storage_bytes(&self) -> u64 {
        match self {
            // size_vpage · c · N_node (§4.1).
            SharedVStore::Horizontal(s) => {
                s.vpages.record_bytes as u64 * s.cells as u64 * s.n_nodes as u64
            }
            // size_ptr · N_node · c + size_vpage · Σ N_vnode (§4.2).
            SharedVStore::Vertical(s) => {
                8 * s.n_nodes as u64 * s.cells as u64
                    + s.vpages.record_bytes as u64 * s.vpages.records
            }
            // (size_ptr + size_int) · Σ N_vnode + size_vpage · Σ N_vnode (§4.3).
            SharedVStore::IndexedVertical(s) => {
                (INDEX_REC_BYTES as u64 + s.vpages.record_bytes as u64) * s.vpages.records
            }
        }
    }

    /// The same store behind cold pools of `pool` geometry (checksum tables
    /// are reused, not recomputed).
    pub fn with_pools(&self, pool: PoolConfig) -> Self {
        let Ok(store) = self.try_map::<Infallible>(&mut |_, p| Ok(pool.apply(p)));
        store
    }

    /// Relocates the store's files onto `backend` (see
    /// [`SharedCachedFile::relocated`]) behind cold pools of unchanged
    /// geometry. Files are named after the scheme; the V-page file records
    /// its codec in the store header.
    pub fn relocated(&self, backend: &StorageBackend) -> Result<Self> {
        self.try_map(&mut |file, pool| self.relocate_pool(backend, file, pool))
    }

    fn relocate_pool(
        &self,
        backend: &StorageBackend,
        file: PoolFile,
        pool: &SharedCachedFile,
    ) -> Result<SharedCachedFile> {
        let store = self.scheme().to_string().replace('-', "_");
        match file {
            PoolFile::VPages => {
                let flags = self.vpages().codec().store_flags();
                pool.relocated(backend, &format!("{store}_vpages"), flags)
            }
            _ => pool.relocated(backend, &format!("{store}_index"), 0),
        }
    }

    /// The same store over new pools: `f` maps the index pool (where one
    /// exists), then the V-page pool.
    fn try_map<E>(&self, f: &mut MapPool<'_, E>) -> std::result::Result<Self, E> {
        let vpages = |v: &SharedVPageFile, f: &mut MapPool<'_, E>| {
            Ok(SharedVPageFile {
                pool: f(PoolFile::VPages, &v.pool)?,
                ..*v
            })
        };
        Ok(match self {
            SharedVStore::Horizontal(s) => SharedVStore::Horizontal(SharedHorizontal {
                vpages: vpages(&s.vpages, f)?,
                ..*s
            }),
            SharedVStore::Vertical(s) => SharedVStore::Vertical(SharedVertical {
                index: f(PoolFile::Index, &s.index)?,
                vpages: vpages(&s.vpages, f)?,
                ..*s
            }),
            SharedVStore::IndexedVertical(s) => {
                SharedVStore::IndexedVertical(SharedIndexedVertical {
                    index: f(PoolFile::Index, &s.index)?,
                    vpages: vpages(&s.vpages, f)?,
                    dir: Arc::clone(&s.dir),
                    ..*s
                })
            }
        })
    }
}

/// The view-invariant tree, frozen: node pages and internal-LoD models
/// behind shared pools.
pub struct SharedTree {
    pub(crate) nodes: SharedCachedFile,
    internal_pool: SharedCachedFile,
    internal_store: Arc<ModelStore>,
    n_nodes: u32,
    height: u32,
    object_count: u64,
    fanout: usize,
    heuristic: TerminationHeuristic,
    pub(crate) entry_counts: Arc<Vec<u16>>,
    leaf_ordinals: Arc<Vec<u32>>,
    leaf_objects: Arc<Vec<Vec<u64>>>,
}

impl SharedTree {
    /// Freezes a built tree behind the single-session layout; returns the
    /// node and internal-LoD cursors parked where the build left each
    /// disk's head.
    pub(crate) fn freeze(tree: HdovTree) -> (Self, [IoCursor; 2]) {
        let p = tree.into_parts();
        let (cap, shards) = crate::env::UNBUFFERED;
        let (nodes, node_cur) = SharedCachedFile::from_disk(p.node_disk, cap, shards);
        let (internal_pool, internal_cur) =
            SharedCachedFile::from_disk(p.internal_disk, cap, shards);
        let tree = SharedTree {
            nodes,
            internal_pool,
            internal_store: Arc::new(p.internal_store),
            n_nodes: p.n_nodes,
            height: p.height,
            object_count: p.object_count,
            fanout: p.fanout,
            heuristic: p.heuristic,
            entry_counts: Arc::new(p.entry_counts),
            leaf_ordinals: Arc::new(p.leaf_ordinals),
            leaf_objects: Arc::new(p.leaf_objects),
        };
        (tree, [node_cur, internal_cur])
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.n_nodes
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Fan-out cap `M`.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The configured termination heuristic.
    pub fn heuristic(&self) -> TerminationHeuristic {
        self.heuristic
    }

    /// The root ordinal (0: DFS preorder).
    pub fn root_ordinal(&self) -> u32 {
        0
    }

    /// Entry count per node, by ordinal.
    pub fn entry_counts(&self) -> &[u16] {
        &self.entry_counts
    }

    /// Ordinals of all leaf nodes.
    pub fn leaf_ordinals(&self) -> &[u32] {
        &self.leaf_ordinals
    }

    /// Object ids of the `i`-th leaf.
    pub fn leaf_objects(&self, i: usize) -> &[u64] {
        &self.leaf_objects[i]
    }

    /// Number of indexed objects.
    pub fn object_count(&self) -> u64 {
        self.object_count
    }

    /// The internal-LoD store (key = node ordinal).
    pub fn internal_store(&self) -> &ModelStore {
        &self.internal_store
    }

    /// The node pool.
    pub fn node_pool(&self) -> &SharedCachedFile {
        &self.nodes
    }

    /// The internal-LoD pool.
    pub fn internal_pool(&self) -> &SharedCachedFile {
        &self.internal_pool
    }

    /// Reads node `ordinal`, charging any pool miss to `cursor`.
    ///
    /// Zero-copy: the node is a [`NodePage`] view of the pooled frame,
    /// read in place. A miss costs the pool's read (or shared-buffer
    /// admit) and checksum and nothing else; a hit is one frame `Arc`
    /// clone. Nothing is decoded, so node reads record no decode counters.
    pub fn read_node(&self, cursor: &mut IoCursor, ordinal: u32) -> Result<NodePage> {
        let frame = self.nodes.read_frame(cursor, PageId(ordinal as u64))?;
        NodePage::new(frame)
    }

    /// Fetches node `ordinal`'s internal LoD at `level`, charging `cursor`.
    ///
    /// Same page sequence (and therefore identical simulated charging) as
    /// [`ModelStore::fetch`], read as one page run
    /// ([`SharedCachedFile::read_run`]): pool hits cost no memcpy, an
    /// all-hit LoD allocates nothing, and on a pread store the LoD's misses
    /// cost one physical read.
    pub fn fetch_internal_lod(
        &self,
        cursor: &mut IoCursor,
        ordinal: u32,
        level: usize,
    ) -> Result<ModelHandle> {
        let h = self.internal_store.handle(ordinal as u64, level);
        self.internal_pool
            .read_run(cursor, h.first_page, u64::from(h.pages))?;
        Ok(h)
    }

    fn try_map<E>(&self, f: &mut MapPool<'_, E>) -> std::result::Result<Self, E> {
        Ok(SharedTree {
            nodes: f(PoolFile::Nodes, &self.nodes)?,
            internal_pool: f(PoolFile::Internal, &self.internal_pool)?,
            internal_store: Arc::clone(&self.internal_store),
            entry_counts: Arc::clone(&self.entry_counts),
            leaf_ordinals: Arc::clone(&self.leaf_ordinals),
            leaf_objects: Arc::clone(&self.leaf_objects),
            ..*self
        })
    }
}

/// The object-model bank, frozen.
pub struct SharedModels {
    store: Arc<ModelStore>,
    pool: SharedCachedFile,
}

impl SharedModels {
    /// Lays out every scene object's LoD chain on a fresh disk and freezes
    /// it behind the single-session layout; returns the bank and a cursor
    /// parked where the build left the disk's head.
    pub(crate) fn build(scene: &Scene, model: DiskModel) -> Result<(Self, IoCursor)> {
        let mut disk = SimulatedDisk::new(MemPagedFile::new(), model);
        let chains = scene
            .objects()
            .iter()
            .map(|o| scene.prototypes().chain(o.prototype));
        let store = ModelStore::build(&mut disk, chains)?;
        let (cap, shards) = crate::env::UNBUFFERED;
        let (pool, cursor) = SharedCachedFile::from_disk(disk, cap, shards);
        let models = SharedModels {
            store: Arc::new(store),
            pool,
        };
        Ok((models, cursor))
    }

    /// The same bank — directory and frozen pages, shared, not copied —
    /// behind a cold fork of its pool.
    pub(crate) fn fork(&self) -> Self {
        SharedModels {
            store: Arc::clone(&self.store),
            pool: self.pool.fork(),
        }
    }

    /// The model directory.
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// The model-file pool.
    pub fn pool(&self) -> &SharedCachedFile {
        &self.pool
    }

    /// Fetches (charges the page reads for) `(key, level)` — the zero-copy
    /// counterpart of [`ModelStore::fetch`]: the identical page sequence is
    /// charged to `cursor`, read as one page run
    /// ([`SharedCachedFile::read_run`]), so pool hits copy nothing, an
    /// all-hit LoD allocates nothing, and on a pread store the LoD's misses
    /// cost one physical read.
    pub fn fetch(&self, cursor: &mut IoCursor, key: u64, level: usize) -> Result<ModelHandle> {
        let h = self.store.handle(key, level);
        self.pool
            .read_run(cursor, h.first_page, u64::from(h.pages))?;
        Ok(h)
    }
}

/// A complete frozen deployment: one immutable HDoV-tree that any number of
/// concurrent sessions can query through their own [`SessionCtx`].
pub struct SharedEnvironment {
    pub(crate) tree: SharedTree,
    pub(crate) vstore: SharedVStore,
    pub(crate) models: SharedModels,
    pub(crate) grid: Arc<CellGrid>,
    pub(crate) table: Arc<DovTable>,
    pub(crate) scheme: StorageScheme,
}

impl SharedEnvironment {
    /// A new environment with the same frozen data but cold, private pools —
    /// the per-session-pool baseline of the concurrency benchmark.
    pub fn fork_with_private_pools(&self) -> Self {
        self.map_pools(|_, pool| pool.fork())
    }

    /// The same frozen data behind cold pools of `pool` geometry (checksum
    /// tables are reused, not recomputed).
    pub(crate) fn with_pools(&self, pool: PoolConfig) -> Self {
        self.map_pools(|_, p| pool.apply(p))
    }

    /// Relocates every file onto `backend` (see
    /// [`SharedCachedFile::relocated`]) behind cold pools of unchanged
    /// geometry. Store names are prefixed with the scheme label so several
    /// schemes can share one directory.
    pub(crate) fn relocated(&self, backend: &StorageBackend) -> Result<Self> {
        let tree = self.scheme.to_string();
        self.try_map_pools(&mut |file, pool| match file {
            PoolFile::Nodes => pool.relocated(backend, &format!("{tree}_tree_nodes"), 0),
            PoolFile::Internal => pool.relocated(backend, &format!("{tree}_tree_internal"), 0),
            PoolFile::Models => pool.relocated(backend, &format!("{tree}_models"), 0),
            PoolFile::Index | PoolFile::VPages => self.vstore.relocate_pool(backend, file, pool),
        })
    }

    fn map_pools(
        &self,
        mut f: impl FnMut(PoolFile, &SharedCachedFile) -> SharedCachedFile,
    ) -> Self {
        let Ok(env) = self.try_map_pools::<Infallible>(&mut |file, pool| Ok(f(file, pool)));
        env
    }

    /// The same frozen deployment over new pools: `f` maps every pool, in
    /// [`for_each_pool`](Self::for_each_pool) order.
    fn try_map_pools<E>(&self, f: &mut MapPool<'_, E>) -> std::result::Result<Self, E> {
        Ok(SharedEnvironment {
            tree: self.tree.try_map(f)?,
            models: SharedModels {
                store: Arc::clone(&self.models.store),
                pool: f(PoolFile::Models, &self.models.pool)?,
            },
            vstore: self.vstore.try_map(f)?,
            grid: Arc::clone(&self.grid),
            table: Arc::clone(&self.table),
            scheme: self.scheme,
        })
    }

    /// A fresh per-session query context.
    pub fn session(&self) -> SessionCtx {
        SessionCtx::new()
    }

    /// The viewing cell containing (or nearest to) `viewpoint`.
    pub fn cell_of(&self, viewpoint: Vec3) -> CellId {
        self.grid.clamped_cell_of(viewpoint)
    }

    /// The one Fig. 3 entry: runs `q` charged to `ctx`, writing the answer
    /// into `scratch` (read it via [`SearchScratch::result`]). The returned
    /// [`SearchStats`] cover this query only.
    ///
    /// With warm pools and a same-cell session the whole query touches no
    /// allocator (frame `Arc` clones for nodes, read in place; overlay
    /// `Arc` clones for V-pages; reused segment and result buffers —
    /// pinned by the `alloc_free` test). An
    /// exhausted [`budget`](Query::budget) serves every remaining subtree
    /// as its internal LoD, recorded as a `BudgetExhausted` degrade event;
    /// the budget covers everything charged from the call on, including the
    /// segment flip and the batched V-page prefetch.
    ///
    /// Fails with [`StorageError::InvalidPlan`](hdov_storage::StorageError)
    /// on a cell outside the grid or a negative or NaN η.
    pub fn search(
        &self,
        ctx: &mut SessionCtx,
        scratch: &mut SearchScratch,
        q: Query<'_>,
    ) -> Result<SearchStats> {
        walk::run(self, ctx, &mut scratch.result, q)
    }

    /// Visibility query by cell, with batched V-page prefetch, into an
    /// owned result.
    pub fn query_cell(
        &self,
        ctx: &mut SessionCtx,
        cell: CellId,
        eta: f64,
    ) -> Result<(QueryResult, SearchStats)> {
        let mut scratch = SearchScratch::new();
        let q = Query {
            prefetch: true,
            ..Query::new(cell, eta)
        };
        let stats = self.search(ctx, &mut scratch, q)?;
        Ok((scratch.take_result(), stats))
    }

    /// Delta query for walkthroughs, with batched V-page prefetch: models
    /// resident in `delta` at the same LoD level are reused without model
    /// I/O, and the answer — left in `scratch`, so a session reuses one
    /// buffer across every frame — is folded into the resident set.
    pub fn query_delta_into(
        &self,
        ctx: &mut SessionCtx,
        scratch: &mut SearchScratch,
        viewpoint: Vec3,
        eta: f64,
        delta: &mut DeltaSearch,
    ) -> Result<(SearchStats, DeltaSummary)> {
        let q = Query {
            resident: Some(delta),
            prefetch: true,
            ..Query::new(self.cell_of(viewpoint), eta)
        };
        let stats = self.search(ctx, scratch, q)?;
        Ok((stats, delta.apply(scratch.result())))
    }

    /// Warms the pools for `cell`: segment flip plus batched V-page read,
    /// charged to `ctx`'s cursors (use a scratch context to keep prefetch
    /// cost out of a session's search time). Returns disk pages touched.
    pub fn prefetch_cell(&self, ctx: &mut SessionCtx, cell: CellId) -> Result<u64> {
        self.vstore.enter_cell(ctx, cell)?;
        self.vstore.prefetch_cell(ctx)
    }

    /// The frozen tree.
    pub fn tree(&self) -> &SharedTree {
        &self.tree
    }

    /// The frozen visibility store.
    pub fn vstore(&self) -> &SharedVStore {
        &self.vstore
    }

    /// The frozen model bank.
    pub fn models(&self) -> &SharedModels {
        &self.models
    }

    /// The cell grid.
    pub fn grid(&self) -> &CellGrid {
        &self.grid
    }

    /// The ground-truth DoV table.
    pub fn dov_table(&self) -> &DovTable {
        &self.table
    }

    /// The active storage scheme.
    pub fn scheme(&self) -> StorageScheme {
        self.scheme
    }

    /// Arms seeded fault injection on every pool of the environment (chaos
    /// testing). Per pool the *first* arming wins; frames already resident
    /// stay valid because pool hits never consult the injector. Returns the
    /// per-file injectors — nodes, internal LoDs, object models, then the
    /// visibility store's files — for inspection and
    /// [`disarming`](SharedFaultyFile::disarm).
    pub fn arm_faults(&self, plan: &FaultPlan) -> Vec<Arc<SharedFaultyFile>> {
        let mut armed = Vec::with_capacity(6);
        self.for_each_pool(|pool| armed.push(pool.arm_faults(plan)));
        armed
    }

    /// Arms seeded fault injection on replica `replica` of every pool
    /// (chaos testing of the failover path; `replica` must be within every
    /// pool's replica count — see [`PoolConfig::replicas`]). First arming
    /// per slot wins, as with [`arm_faults`](Self::arm_faults). Returns the
    /// injectors in the same fixed pool order.
    pub fn arm_replica_faults(
        &self,
        replica: usize,
        plan: &FaultPlan,
    ) -> Vec<Arc<SharedFaultyFile>> {
        let mut armed = Vec::with_capacity(6);
        self.for_each_pool(|pool| armed.push(pool.arm_replica_faults(replica, plan)));
        armed
    }

    /// Applies `f` to every pool of the environment in a fixed order:
    /// nodes, internal LoDs, object models, then the visibility store's
    /// files (index before V-pages where both exist).
    pub fn for_each_pool(&self, mut f: impl FnMut(&SharedCachedFile)) {
        f(&self.tree.nodes);
        f(&self.tree.internal_pool);
        f(&self.models.pool);
        match &self.vstore {
            SharedVStore::Horizontal(s) => f(&s.vpages.pool),
            SharedVStore::Vertical(s) => {
                f(&s.index);
                f(&s.vpages.pool);
            }
            SharedVStore::IndexedVertical(s) => {
                f(&s.index);
                f(&s.vpages.pool);
            }
        }
    }

    /// Replica-set health merged over every pool: failovers served, pages
    /// repaired, and pages still quarantined. All-zero (`is_clean`) in
    /// fault-free runs.
    pub fn storage_health(&self) -> ReplicaHealth {
        let mut health = ReplicaHealth::default();
        self.for_each_pool(|pool| health.merge(&pool.replica_set().status()));
        health
    }

    /// Runs one full scrub sweep over every pool's replicas, repairing
    /// verified-bad file pages in place (see [`Scrubber`]). Returns the
    /// merged report; fault-free stores scrub clean with zero repairs.
    pub fn scrub(&self, scrubber: &Scrubber) -> Result<ScrubReport> {
        let mut report = ScrubReport::default();
        let mut failed = None;
        self.for_each_pool(|pool| {
            if failed.is_some() {
                return;
            }
            match scrubber.scrub_pool(pool) {
                Ok(r) => report.merge(r),
                Err(e) => failed = Some(e),
            }
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// `(hits, misses)` summed over every pool of the environment.
    pub fn pool_hit_stats(&self) -> (u64, u64) {
        let (mut h, mut m) = self.vstore.pool_hit_stats();
        for pool in [
            &self.tree.nodes,
            &self.tree.internal_pool,
            &self.models.pool,
        ] {
            let (a, b) = pool.hit_stats();
            h += a;
            m += b;
        }
        (h, m)
    }

    /// Aggregate pool hit rate in `[0, 1]`.
    pub fn pool_hit_rate(&self) -> f64 {
        let (h, m) = self.pool_hit_stats();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// Reusable per-session search state: the result buffer survives across
/// queries, so a steady-state [`SharedEnvironment::search`] call over warm pools
/// performs **no heap allocation** (pinned by the `alloc_free` integration
/// test). One per walkthrough session, alongside its [`SessionCtx`].
#[derive(Debug, Default)]
pub struct SearchScratch {
    result: QueryResult,
}

impl SearchScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recent query's answer set (cleared at the start of each
    /// query).
    pub fn result(&self) -> &QueryResult {
        &self.result
    }

    /// Moves the result out, leaving empty buffers (the capacity goes with
    /// it — keep the scratch and use [`result`](Self::result) to stay
    /// allocation-free).
    pub fn take_result(&mut self) -> QueryResult {
        std::mem::take(&mut self.result)
    }
}

/// Fig. 3's decision for one entry of a visited node.
pub(crate) enum Step {
    /// Line 3: a completely hidden branch.
    Prune,
    /// Lines 4–8: an answer entry — an object at its Eq. 6 blend factor
    /// `k`, or a barely visible subtree's internal LoD at its Eq. 5 one.
    Emit { key: ResultKey, k: f64 },
    /// Line 10: search the child node with this ordinal.
    Descend(u32),
}

/// How a traversal reaches a frozen environment's pages, and what they
/// cost: the environment's pools, charged to one session's cursors. One
/// per query.
pub(crate) struct SharedStorage<'a> {
    pub(crate) env: &'a SharedEnvironment,
    pub(crate) ctx: &'a mut SessionCtx,
    /// Batch-read the cell's V-pages right after the segment flip.
    prefetch: bool,
    /// The last V-page disk page this query read (see
    /// [`SharedVStore::fetch`]); dropped with the query.
    vpage_memo: PageMemo,
}

impl<'a> SharedStorage<'a> {
    /// One query's view of `env`, charged to `ctx`.
    pub(crate) fn new(env: &'a SharedEnvironment, ctx: &'a mut SessionCtx, prefetch: bool) -> Self {
        SharedStorage {
            env,
            ctx,
            prefetch,
            vpage_memo: None,
        }
    }

    /// Snapshots the node, internal-LoD, model, V-page-index and V-page
    /// cursors a query will be charged against.
    pub(crate) fn begin(&self) -> [IoStats; 5] {
        let c = &self.ctx;
        [
            c.node_cur.stats(),
            c.internal_cur.stats(),
            c.model_cur.stats(),
            c.index_cur.stats(),
            c.vpage_cur.stats(),
        ]
    }

    /// Cumulative simulated I/O charged to the session, for budget clocks.
    /// Pure accessor reads: it charges nothing.
    pub(crate) fn io_elapsed_us(&self) -> f64 {
        let c = &self.ctx;
        c.node_cur.stats().elapsed_us
            + c.internal_cur.stats().elapsed_us
            + c.model_cur.stats().elapsed_us
            + c.index_cur.stats().elapsed_us
            + c.vpage_cur.stats().elapsed_us
    }

    /// The segment flip into `cell` (plus the batched V-page prefetch when
    /// enabled).
    pub(crate) fn enter_cell(&mut self, cell: CellId) -> Result<()> {
        self.env.vstore.enter_cell(self.ctx, cell)?;
        if self.prefetch {
            self.env.vstore.prefetch_cell(self.ctx)?;
        }
        Ok(())
    }

    /// The V-page of `ordinal` in the current cell; `None` when the scheme
    /// proves the node invisible for free.
    pub(crate) fn vpage(&mut self, ordinal: u32) -> Result<Option<Arc<VPage>>> {
        self.env
            .vstore
            .fetch_with(self.ctx, &mut self.vpage_memo, ordinal)
    }

    /// Node `ordinal`.
    pub(crate) fn node(&mut self, ordinal: u32) -> Result<NodePage> {
        self.env.tree.read_node(&mut self.ctx.node_cur, ordinal)
    }

    /// Fig. 3 lines 3–10 for `entry`, whose V-entry in the current cell is
    /// `ve`, under threshold `eta`: prune, answer (object or η-terminated
    /// subtree), or descend. Reads and charges nothing.
    pub(crate) fn step(&self, entry: &HdovEntry, ve: &VEntry, eta: f64) -> Step {
        let t = &self.env.tree;
        if ve.dov <= 0.0 {
            Step::Prune
        } else if entry.is_object() {
            let k = object_blend(ve.dov);
            Step::Emit {
                key: ResultKey::Object(entry.child),
                k,
            }
        } else if (ve.dov as f64) <= eta
            && terminates_with(t.heuristic, t.fanout, &t.internal_store, entry, ve)
        {
            let k = if eta > 0.0 {
                (ve.dov as f64 / eta).clamp(0.0, 1.0)
            } else {
                0.0
            };
            Step::Emit {
                key: ResultKey::Internal(entry.child_ordinal),
                k,
            }
        } else {
            Step::Descend(entry.child_ordinal)
        }
    }

    /// The answer entry for `key` at blend factor `k` (Eq. 5/6), driven by
    /// `dov`: picks the LoD level and charges its page reads — unless
    /// `resident` already holds that level, in which case the entry is
    /// `cached` and costs no I/O. `traced` records the fetch as a
    /// [`Phase::LodFetch`] span.
    pub(crate) fn lod(
        &mut self,
        key: ResultKey,
        k: f64,
        dov: f32,
        resident: Option<&DeltaSearch>,
        traced: bool,
    ) -> Result<ResultEntry> {
        let env = self.env;
        let (store, id) = match key {
            ResultKey::Object(id) => (env.models.store(), id),
            ResultKey::Internal(ordinal) => (env.tree.internal_store(), ordinal as u64),
        };
        let level = select_level(store, id, k);
        let cached = resident.and_then(|r| r.resident_level(key)) == Some(level);
        let h = if cached {
            store.handle(id, level)
        } else {
            let _lf = traced.then(|| hdov_obs::span(Phase::LodFetch));
            match key {
                ResultKey::Object(id) => env.models.fetch(&mut self.ctx.model_cur, id, level)?,
                ResultKey::Internal(ordinal) => {
                    env.tree
                        .fetch_internal_lod(&mut self.ctx.internal_cur, ordinal, level)?
                }
            }
        };
        Ok(ResultEntry {
            key,
            level,
            polygons: h.polygons as u64,
            bytes: h.bytes as u64,
            dov,
            cached,
        })
    }

    /// This query's I/O since `start`, into `stats`.
    pub(crate) fn finish(&self, start: &[IoStats; 5], stats: &mut SearchStats) {
        let c = &self.ctx;
        stats.node_io = c.node_cur.stats().since(&start[0]);
        stats.internal_io = c.internal_cur.stats().since(&start[1]);
        stats.model_io = c.model_cur.stats().since(&start[2]);
        stats.vstore_io =
            c.index_cur.stats().since(&start[3]) + c.vpage_cur.stats().since(&start[4]);
    }
}
