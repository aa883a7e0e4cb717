//! The read path: frozen page stores and a lock-striped buffer pool.
//!
//! Stores are built in memory behind a [`SimulatedDisk`] and then frozen;
//! every query reads them through this module, whether one session or many
//! share the pools. This is the only place pages are read for a query and
//! the only place they are checked:
//!
//! * [`FrozenPages`] — an immutable, `Arc`-shared snapshot of a fully built
//!   [`MemPagedFile`] (or a frozen-store file); any number of threads may
//!   read it, and it has no write API.
//! * [`SharedCachedFile`] — a buffer pool over a frozen file, striped into
//!   independently locked LRU shards keyed by page id, so concurrent readers
//!   contend only when they touch the same stripe. Every page request —
//!   one frame, one LoD's page run, or one prefetch run — goes through one
//!   per-page probe: lookup, hit count, or fetch then admit. Every miss is
//!   verified against the store's checksum table before admission, with
//!   transient failures retried and replicas failed over to.
//!
//! Each session carries its own [`IoCursor`], because a disk-head position
//! cannot be shared state once N sessions interleave. The cursor is the
//! one ledger of simulated I/O: a pool hit costs nothing; a miss charges
//! `seek + transfer` or `transfer` against the session's head by the
//! cursor's rule, and the pool itself keeps only `(hits, misses)`
//! atomics. So a single session over a cold
//! shared pool sees the same simulated timings as one over a private pool
//! of the same capacity — and a pool of capacity 0 whose cursor is the
//! build disk's own charges exactly what that disk would
//! ([`SharedCachedFile::from_disk`]).

use crate::error::StoreOrigin;
use crate::pread::PreadStore;
use crate::replica::ReplicaSet;
use crate::{
    page_checksum, DiskModel, FaultPlan, Frame, IoCursor, LruCache, MemPagedFile, Page, PageId,
    Result, RetryPolicy, SharedFaultyFile, SimulatedDisk, StorageBackend, StorageError, PAGE_SIZE,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks a pool shard, recovering from poison.
///
/// Shards hold plain `(page id → Arc<Frame>)` maps with no invariants that
/// span a panic point, so a shard abandoned mid-operation by a panicking
/// session is still structurally sound: recover the guard and keep serving.
/// One crashed session must never wedge every other session sharing the
/// pool.
fn lock_shard<T>(shard: &Mutex<T>) -> MutexGuard<'_, T> {
    shard.lock().unwrap_or_else(|e| e.into_inner())
}

/// One pool stripe: page id → pooled frame.
type Shard = LruCache<u64, Arc<Frame>>;

/// An immutable snapshot of a paged file, cheap to share across threads.
///
/// Two backends hide behind the same handle:
///
/// * **mem** — the pages of a fully built [`MemPagedFile`], `Arc`-shared.
///   The deterministic CI twin; every simulated-cost figure is defined
///   against it.
/// * **pread** — a frozen-store file read with positioned reads
///   ([`PreadStore`]).
///
/// Both serve byte-identical pages for the same built store (a CI
/// gate and proptests pin this), so the choice changes wall-clock behavior
/// only — never answers, never simulated costs.
#[derive(Debug, Clone)]
pub struct FrozenPages {
    repr: Repr,
    /// Replica stores opened alongside this one (empty for an unreplicated
    /// store); attached replicas never carry replicas of their own.
    extra: Arc<[FrozenPages]>,
}

#[derive(Debug, Clone)]
enum Repr {
    Mem { pages: Arc<[Box<[u8]>]> },
    Pread { store: Arc<PreadStore> },
}

impl FrozenPages {
    /// Freezes a fully built in-memory file.
    pub fn from_mem(file: MemPagedFile) -> Self {
        FrozenPages {
            repr: Repr::Mem {
                pages: file.into_pages().into(),
            },
            extra: Vec::new().into(),
        }
    }

    /// Opens a frozen-store file for fully verified positioned reads.
    pub fn open_pread(path: &Path) -> Result<Self> {
        Ok(FrozenPages {
            repr: Repr::Pread {
                store: Arc::new(PreadStore::open(path)?),
            },
            extra: Vec::new().into(),
        })
    }

    /// Attaches opened replica stores: byte-identical copies of this one
    /// that the read path may fail over to (and repair) when this store
    /// serves bad bytes. See [`crate::ReplicaSet`].
    ///
    /// # Panics
    /// Panics when a replica's page count differs from this store's.
    #[must_use]
    pub fn with_replicas(mut self, extras: Vec<FrozenPages>) -> Self {
        for e in &extras {
            assert_eq!(
                e.page_count(),
                self.page_count(),
                "replica page counts must match"
            );
        }
        self.extra = extras.into();
        self
    }

    /// The replica stores attached to this one (empty when unreplicated).
    pub fn replicas(&self) -> &[FrozenPages] {
        &self.extra
    }

    /// Total copies behind this handle (1 + attached replicas).
    pub fn replica_count(&self) -> usize {
        1 + self.extra.len()
    }

    /// Number of pages.
    pub fn page_count(&self) -> u64 {
        match &self.repr {
            Repr::Mem { pages } => pages.len() as u64,
            Repr::Pread { store } => store.page_count(),
        }
    }

    /// Where this store's bytes live (mem vs file + path) — carried in
    /// every out-of-bounds error this store produces.
    pub fn origin(&self) -> StoreOrigin {
        match &self.repr {
            Repr::Mem { .. } => StoreOrigin::Mem,
            Repr::Pread { store } => store.origin(),
        }
    }

    /// Build generation recorded in the store header (0 for mem stores,
    /// which are never serialized).
    pub fn generation(&self) -> u64 {
        match &self.repr {
            Repr::Mem { .. } => 0,
            Repr::Pread { store } => store.generation(),
        }
    }

    /// Bounds-checks `id` without touching any bytes.
    pub fn check(&self, id: PageId) -> Result<()> {
        if id.0 >= self.page_count() {
            return Err(StorageError::PageOutOfBounds {
                page: id,
                page_count: self.page_count(),
                origin: self.origin(),
            });
        }
        Ok(())
    }

    /// Copies page `id` into `out` (all backends).
    pub fn read_into(&self, id: PageId, out: &mut [u8]) -> Result<()> {
        self.check(id)?;
        match &self.repr {
            Repr::Mem { pages } => {
                out[..PAGE_SIZE].copy_from_slice(&pages[id.0 as usize]);
                Ok(())
            }
            Repr::Pread { store } => store.read_into(id, out),
        }
    }

    /// The per-page FNV checksum table: computed fresh for mem stores,
    /// returned from the verified on-disk sidecar for file stores.
    pub fn checksum_table(&self) -> Arc<[u64]> {
        match &self.repr {
            Repr::Mem { pages } => pages.iter().map(|p| page_checksum(p)).collect(),
            Repr::Pread { store } => Arc::clone(store.checksums()),
        }
    }

    /// Serializes this store (whatever its backend) as a frozen-store file
    /// at `path` with header `flags` (see
    /// [`crate::frozen::STORE_FLAG_VPAGE_DELTA`]).
    pub fn write_store_flagged(&self, path: &Path, generation: u64, flags: u32) -> Result<()> {
        match &self.repr {
            Repr::Mem { pages } => {
                crate::frozen::write_store_flagged(path, pages, generation, flags)
            }
            Repr::Pread { .. } => {
                let mut all = Vec::with_capacity(self.page_count() as usize);
                let mut buf = vec![0u8; PAGE_SIZE];
                for i in 0..self.page_count() {
                    self.read_into(PageId(i), &mut buf)?;
                    all.push(buf.clone().into_boxed_slice());
                }
                crate::frozen::write_store_flagged(path, &all, generation, flags)
            }
        }
    }

    /// Serializes this store to every path in `paths`: N byte-identical
    /// replica files sharing one generation, each written through the
    /// atomic temp-file + rename path of
    /// [`write_store_flagged`](Self::write_store_flagged), so a crash
    /// mid-replication leaves every target either complete or untouched.
    pub fn write_replicated<P: AsRef<Path>>(
        &self,
        paths: &[P],
        generation: u64,
        flags: u32,
    ) -> Result<()> {
        for p in paths {
            self.write_store_flagged(p.as_ref(), generation, flags)?;
        }
        Ok(())
    }

    /// The pread store behind this handle, when the pread backend is
    /// active (the single-`pread` run-read fast path keys off this).
    pub fn pread_store(&self) -> Option<&Arc<PreadStore>> {
        match &self.repr {
            Repr::Pread { store } => Some(store),
            _ => None,
        }
    }
}

/// A lock-striped LRU buffer pool over a [`FrozenPages`] snapshot.
///
/// Every read takes `&self`: all mutability is interior (the shard mutexes
/// and the two atomic counters), so any number of sessions can
/// share one pool. Pages are assigned to shards by `page_id % shards`,
/// which spreads sequential runs across stripes and keeps a hot run from
/// serializing on one lock.
///
/// Shards hold [`Arc<Frame>`]s: the zero-copy [`read_frame`] hands back a
/// clone of the pooled `Arc` (a pointer bump, no page memcpy), and the
/// frame's decoded overlay lives exactly as long as the frame stays pooled
/// — eviction drops the pool's `Arc`, and the overlay dies with the last
/// session reference.
///
/// [`read_frame`]: Self::read_frame
#[derive(Debug)]
pub struct SharedCachedFile {
    data: FrozenPages,
    model: DiskModel,
    shards: Vec<Mutex<Shard>>,
    /// Probes served from the pool, over every session.
    hits: AtomicU64,
    /// Probes that fetched, charged and admitted a page. A failed fetch is
    /// neither; each session's cursor charged every miss it counted here.
    misses: AtomicU64,
    /// Sidecar per-page FNV-1a table, stamped from the trusted frozen
    /// snapshot at construction; every miss is verified against it before
    /// frame admission. Verification is charged zero simulated time.
    checksums: Arc<[u64]>,
    retry: RetryPolicy,
    /// The store's replicas (replica 0 *is* `data`) plus the
    /// quarantine/repair book. A verified miss that fails on the primary —
    /// corrupt bytes or exhausted retries — retries each further replica
    /// in order *before* any error escapes toward the LoD-degradation
    /// fallback; recovered bytes repair the corrupt copies in place. Also
    /// owns the per-replica fault slots (replica 0's slot is the pool's
    /// historical injector).
    replicas: ReplicaSet,
}

impl SharedCachedFile {
    /// Builds a pool of `capacity` total pages striped over `shards` locks.
    ///
    /// Capacity is divided evenly (rounding up) across shards. A pool of
    /// capacity 0 keeps nothing: every read is a charged miss, exactly as
    /// on a [`SimulatedDisk`].
    ///
    /// # Panics
    /// Panics when `shards` is zero.
    pub fn new(data: FrozenPages, model: DiskModel, capacity: usize, shards: usize) -> Self {
        let replicas = ReplicaSet::new(&data);
        Self::from_replicas(data, model, capacity, shards, replicas)
    }

    fn from_replicas(
        data: FrozenPages,
        model: DiskModel,
        capacity: usize,
        shards: usize,
        replicas: ReplicaSet,
    ) -> Self {
        assert!(shards > 0, "shard count must be positive");
        let per_shard = capacity.div_ceil(shards);
        SharedCachedFile {
            data,
            model,
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            checksums: Arc::clone(replicas.checksums()),
            retry: RetryPolicy::default(),
            replicas,
        }
    }

    /// Freezes a fully built disk into a pool of `capacity` pages over
    /// `shards` locks. The returned cursor is the disk's own, with its head
    /// kept and its stats zeroed, so the first read after the build is
    /// charged exactly as the disk would have charged it.
    pub fn from_disk(
        disk: SimulatedDisk<MemPagedFile>,
        capacity: usize,
        shards: usize,
    ) -> (Self, IoCursor) {
        let (file, model, mut cursor) = disk.into_parts();
        cursor.reset_stats();
        (Self::from_mem(file, model, capacity, shards), cursor)
    }

    /// Pads the replica set to at least `n` copies by cloning the primary —
    /// mem-backed replication for chaos tests, examples, and the alloc-free
    /// gate. File-backed stores usually arrive already replicated (see
    /// [`FrozenPages::with_replicas`]); this never shrinks a wider set.
    #[must_use]
    pub fn with_replicas(mut self, n: usize) -> Self {
        self.replicas.pad_to(n);
        self
    }

    /// Sets the transient-read retry policy, chainable at construction.
    ///
    /// Only transient ([`StorageError::is_transient`]) failures are retried;
    /// each failed attempt charges one full access (`seek + transfer`) plus
    /// the policy's backoff as pure simulated time against the reading
    /// session — never as a page read. With no faults armed the policy is
    /// inert.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Arms deterministic fault injection on the primary's miss path:
    /// subsequent misses read through a [`SharedFaultyFile`] over the same
    /// frozen snapshot. Returns the injector (also returned to later
    /// callers — each replica arms at most once; use
    /// [`SharedFaultyFile::disarm`] to stop injecting). Equivalent to
    /// [`arm_replica_faults`](Self::arm_replica_faults)`(0, plan)`.
    pub fn arm_faults(&self, plan: &FaultPlan) -> Arc<SharedFaultyFile> {
        self.replicas.arm(0, plan)
    }

    /// Arms deterministic fault injection on replica `replica`'s read path
    /// (first plan per replica wins) — chaos can kill replica 0 outright
    /// while the others keep serving.
    pub fn arm_replica_faults(&self, replica: usize, plan: &FaultPlan) -> Arc<SharedFaultyFile> {
        self.replicas.arm(replica, plan)
    }

    /// The primary's armed fault injector, if any.
    pub fn faults(&self) -> Option<&Arc<SharedFaultyFile>> {
        self.replicas.faults(0)
    }

    /// The replica set (and quarantine/repair book) behind this pool.
    pub fn replica_set(&self) -> &ReplicaSet {
        &self.replicas
    }

    /// Number of store copies behind this pool (1 = unreplicated).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The retry policy in use.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// Freezes a [`MemPagedFile`] and pools it in one step.
    pub fn from_mem(file: MemPagedFile, model: DiskModel, capacity: usize, shards: usize) -> Self {
        Self::new(FrozenPages::from_mem(file), model, capacity, shards)
    }

    /// A new pool (same frozen data, same geometry, cold cache, zeroed
    /// counters) — the per-session-pool baseline of the concurrent bench.
    pub fn fork(&self) -> Self {
        let per_shard = lock_shard(&self.shards[0]).capacity();
        let shards = self.shards.len();
        self.resized(per_shard * shards, shards)
    }

    /// A cold pool over the same frozen data and trusted checksum table,
    /// with a new geometry (retry policy and replica count are kept). Like
    /// [`fork`](Self::fork), faults and health are not inherited: each
    /// pool arms its own injectors and keeps its own quarantine/repair book
    /// over the same stores.
    pub fn resized(&self, capacity: usize, shards: usize) -> Self {
        let replicas = self.replicas.fork();
        let data = self.data.clone();
        Self::from_replicas(data, self.model, capacity, shards, replicas).with_retry(self.retry)
    }

    /// This pool's pages relocated onto `backend` as store `name` (header
    /// `flags`, see [`StorageBackend::freeze`]), behind a cold pool of the
    /// same geometry. On the mem backend the pages stay where they are; on
    /// a file backend they are serialized and reopened, and the verified
    /// on-disk sidecar becomes the trusted checksum table.
    pub fn relocated(&self, backend: &StorageBackend, name: &str, flags: u32) -> Result<Self> {
        if !backend.is_file() {
            return Ok(self.fork());
        }
        let data = backend.freeze(name, self.data.clone(), flags)?;
        let per_shard = lock_shard(&self.shards[0]).capacity();
        let shards = self.shards.len();
        Ok(Self::new(data, self.model, per_shard * shards, shards).with_retry(self.retry))
    }

    /// Number of pages in the backing store.
    pub fn page_count(&self) -> u64 {
        self.data.page_count()
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// `(hits, misses)` summed over every access since construction.
    pub fn hit_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Copies page `id` into `out`: through the armed fault injector when
    /// present, retrying transient failures per the pool's [`RetryPolicy`],
    /// then verifies the sidecar checksum — and, when the primary is
    /// exhausted (checksum mismatch or retries spent), transparently fails
    /// over to the next healthy replica *before* any error escapes toward
    /// the LoD-degradation fallback. Bytes a replica recovers are used to
    /// repair the corrupt copies in place (see [`ReplicaSet::repair`]).
    ///
    /// Each *failed transient* attempt charges `seek + transfer + backoff`
    /// as pure simulated time (no read counters) against `cursor`, as does a
    /// latency spike on the winning attempt.
    /// Checksum verification itself costs zero simulated time; a mismatch is
    /// permanent ([`StorageError::Corrupt`]) for the copy that served it and
    /// never retried there. With no faults armed and one replica this is a
    /// plain copy + verify and cannot fail transiently.
    fn fetch_into(&self, cursor: &mut IoCursor, id: PageId, out: &mut Page) -> Result<()> {
        match self.fetch_from(0, cursor, id, out) {
            Ok(()) => {
                self.replicas.note_clean(0, id.0);
                Ok(())
            }
            Err(e) => self.fetch_failover(e, cursor, id, out),
        }
    }

    /// The failover tail of [`fetch_into`](Self::fetch_into): the primary
    /// has failed terminally; try each further replica in order, then
    /// repair every corrupt copy from the first verified-good bytes. Out of
    /// the hot path — it runs only when something is actually broken.
    #[cold]
    fn fetch_failover(
        &self,
        primary_err: StorageError,
        cursor: &mut IoCursor,
        id: PageId,
        out: &mut Page,
    ) -> Result<()> {
        // Bounds errors are caller bugs, not bad copies: never fail over.
        if matches!(primary_err, StorageError::PageOutOfBounds { .. }) {
            return Err(primary_err);
        }
        // Which replicas served corrupt bytes (capped at 64; sets are tiny
        // in practice). Only these are repair targets: an I/O-dead copy has
        // nothing written back to it.
        let mut corrupt_mask: u64 = 0;
        if matches!(primary_err, StorageError::Corrupt(_)) {
            corrupt_mask |= 1;
            self.replicas.quarantine(0, id.0);
        }
        let mut last = primary_err;
        for k in 1..self.replicas.len() {
            match self.fetch_from(k, cursor, id, out) {
                Ok(()) => {
                    self.replicas.note_clean(k, id.0);
                    self.replicas.record_failover();
                    let mut m = corrupt_mask;
                    while m != 0 {
                        let j = m.trailing_zeros() as usize;
                        m &= m - 1;
                        // Repair failures are non-fatal: the read succeeded,
                        // and the page stays quarantined for the scrubber.
                        let _ = self.replicas.repair(j, id.0, out.bytes());
                    }
                    return Ok(());
                }
                Err(e) => {
                    if matches!(e, StorageError::Corrupt(_)) {
                        if k < 64 {
                            corrupt_mask |= 1 << k;
                        }
                        self.replicas.quarantine(k, id.0);
                    }
                    last = e;
                }
            }
        }
        Err(last)
    }

    /// One replica's copy-out: the retry loop over replica `k`'s injector
    /// (when armed) or its store, then sidecar verification.
    fn fetch_from(
        &self,
        replica: usize,
        cursor: &mut IoCursor,
        id: PageId,
        out: &mut Page,
    ) -> Result<()> {
        let attempts = self.retry.attempts();
        let mut attempt = 0u32;
        loop {
            let outcome = match self.replicas.faults(replica) {
                Some(f) => f.read_into(id, out.bytes_mut()),
                None => self
                    .replicas
                    .data(replica)
                    .read_into(id, out.bytes_mut())
                    .map(|()| 0.0),
            };
            match outcome {
                Ok(spike_us) => {
                    if spike_us > 0.0 {
                        cursor.charge_penalty(spike_us);
                    }
                    if page_checksum(out.bytes()) != self.checksums[id.0 as usize] {
                        hdov_obs::add(hdov_obs::Counter::ChecksumFailures, 1);
                        return Err(StorageError::Corrupt(format!("checksum mismatch on {id}")));
                    }
                    return Ok(());
                }
                Err(e) if e.is_transient() && attempt + 1 < attempts => {
                    attempt += 1;
                    let penalty = self.model.seek_us
                        + self.model.transfer_us
                        + self.retry.backoff_us(attempt);
                    cursor.charge_penalty(penalty);
                    hdov_obs::add(hdov_obs::Counter::ReadRetries, 1);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads page `id` as a shared frame, charging any miss against
    /// `cursor`.
    ///
    /// The zero-copy hot path: a pool hit clones the pooled `Arc` (no page
    /// memcpy) and costs nothing; a miss copies the page out of the frozen
    /// store exactly once into a fresh frame, charges `cursor` by the
    /// simulated-disk rule, and installs the frame (possibly evicting the
    /// shard's LRU frame, whose decoded overlay dies with it). Every probe
    /// is reported to `hdov-obs` (cache-probe span plus a hit/miss counter,
    /// and `bytes_copied_saved` for the memcpy a copying read would have
    /// done) — observational only, never part of the simulated cost model.
    pub fn read_frame(&self, cursor: &mut IoCursor, id: PageId) -> Result<Arc<Frame>> {
        // Bounds-check before any accounting: errors are never charged.
        self.data.check(id)?;
        let frame = self.probe(cursor, id, true, |cursor| self.build_frame(cursor, id))?;
        hdov_obs::add(hdov_obs::Counter::BytesCopiedSaved, PAGE_SIZE as u64);
        Ok(frame)
    }

    /// Builds the frame a miss admits, before any charging: the page copied
    /// out through [`fetch_into`](Self::fetch_into), with its retries,
    /// checksum check and replica failover.
    fn build_frame(&self, cursor: &mut IoCursor, id: PageId) -> Result<Frame> {
        let mut page = Page::zeroed();
        self.fetch_into(cursor, id, &mut page)?;
        Ok(Frame::new(id, page))
    }

    /// The stripe that owns page `id`.
    fn shard(&self, id: PageId) -> &Mutex<Shard> {
        &self.shards[(id.0 % self.shards.len() as u64) as usize]
    }

    /// The one per-page probe behind [`read_frame`](Self::read_frame),
    /// [`read_run`](Self::read_run) and [`warm_run`](Self::warm_run): look
    /// `id` up (promoting it when `promote`) and count a hit, or build the
    /// miss's frame with `fetch`, charge it to `cursor`, count the miss and
    /// admit the frame. A miss is counted only once its fetch has
    /// succeeded, so a failed fetch is charged and counted nowhere — and
    /// poison never enters the pool.
    fn probe(
        &self,
        cursor: &mut IoCursor,
        id: PageId,
        promote: bool,
        fetch: impl FnOnce(&mut IoCursor) -> Result<Frame>,
    ) -> Result<Arc<Frame>> {
        let _probe = hdov_obs::span(hdov_obs::Phase::CacheProbe);
        let mut pool = lock_shard(self.shard(id));
        if let Some(frame) = pool.lookup(&id.0, promote) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            hdov_obs::add(hdov_obs::Counter::PoolHits, 1);
            return Ok(Arc::clone(frame));
        }
        let frame = Arc::new(fetch(cursor)?);
        cursor.charge_read(id, self.model);
        self.misses.fetch_add(1, Ordering::Relaxed);
        hdov_obs::add(hdov_obs::Counter::PoolMisses, 1);
        pool.insert(id.0, Arc::clone(&frame));
        Ok(frame)
    }

    /// Reads the contiguous `len`-page run starting at `first` into the
    /// pool: the page run of one LoD.
    ///
    /// Per-page accounting is exactly a loop of
    /// [`read_frame`](Self::read_frame) calls in ascending order: the same
    /// probes, promotions, hit/miss sequence, cursor charges and counters.
    /// What changes is the physical I/O on a pread store: the first miss
    /// reads the rest of the run with **one** `pread`, and later misses are
    /// installed from that buffer (see [`warm_run`](Self::warm_run) for the
    /// shared rules). An all-hit run allocates nothing.
    pub fn read_run(&self, cursor: &mut IoCursor, first: PageId, len: u64) -> Result<()> {
        self.probe_run(cursor, first, len, true)?;
        hdov_obs::add(hdov_obs::Counter::BytesCopiedSaved, len * PAGE_SIZE as u64);
        Ok(())
    }

    /// Warms the contiguous `len`-page run starting at `first` without
    /// promoting it — the vectored, speculative half of motion prefetch.
    ///
    /// A resident page is left exactly where it sits in the eviction order
    /// (counted as a pool hit, but not promoted — a page prefetch only
    /// *might* use must not displace genuinely hot recency state); a miss
    /// is charged and installed exactly like [`read_frame`](Self::read_frame).
    /// Per-page *simulated* accounting (hit/miss sequence, cursor charging,
    /// pool counters) is therefore independent of the backend. What changes
    /// is the *physical* I/O: when any page of the run is missing, the pread
    /// backend issues **one** `pread` from the first missing page to the end
    /// of the run (later misses are then installed from that buffer, each
    /// verified against its sidecar checksum, not re-read page by page). The
    /// mem backend issues none. Each call bumps `prefetch_runs`; the
    /// physical operations bump `phys_reads` at the syscall wrappers, so on
    /// a cold file backend `phys_reads` counts exactly one per run.
    ///
    /// With a fault injector armed every miss is fetched on its own, so each
    /// attempt draws from the deterministic fault stream as a per-page warm
    /// would.
    pub fn warm_run(&self, cursor: &mut IoCursor, first: PageId, len: u64) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        hdov_obs::add(hdov_obs::Counter::PrefetchRuns, 1);
        self.probe_run(cursor, first, len, false)
    }

    /// [`probe`](Self::probe)s the `len`-page run at `first` in ascending
    /// order.
    ///
    /// On a pread store with no faults armed, the first miss that is not
    /// the run's last page reads every page from it to the end of the run
    /// with one `pread`. Later misses are installed from that buffer after
    /// their own checksum check; a page that fails it — or every page, when
    /// the run read itself fails — takes the per-page fetch, which retries,
    /// counts the failure and fails over to a replica. Any other store, or
    /// a pool with faults armed, fetches each miss on its own.
    fn probe_run(
        &self,
        cursor: &mut IoCursor,
        first: PageId,
        len: u64,
        promote: bool,
    ) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let end = first.0 + len;
        // Bounds-check the whole run before any accounting.
        self.data.check(PageId(end - 1))?;
        let mut store = if self.replicas.any_faults() {
            None
        } else {
            self.data.pread_store()
        };
        // Pages `run_first..end`, read at the first miss.
        let mut run = Vec::new();
        let mut run_first = end;
        for id in (first.0..end).map(PageId) {
            self.probe(cursor, id, promote, |cursor| {
                // The first miss short of the run's last page reads the rest.
                if let Some(s) = store.filter(|_| run.is_empty() && id.0 + 1 < end) {
                    run_first = id.0;
                    run.resize((end - id.0) as usize * PAGE_SIZE, 0);
                    if s.read_run(id, end - id.0, &mut run).is_err() {
                        // Leave every remaining miss to the per-page fetch.
                        store = None;
                    }
                }
                if store.is_some() && id.0 >= run_first {
                    let at = (id.0 - run_first) as usize * PAGE_SIZE;
                    let bytes = &run[at..at + PAGE_SIZE];
                    if page_checksum(bytes) == self.checksums[id.0 as usize] {
                        self.replicas.note_clean(0, id.0);
                        return Ok(Frame::new(id, Page::from_bytes(bytes)));
                    }
                }
                self.build_frame(cursor, id)
            })?;
        }
        Ok(())
    }

    /// True if page `id` is currently pooled (no promotion, no counters).
    pub fn contains(&self, id: PageId) -> bool {
        lock_shard(self.shard(id)).peek(&id.0).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IoStats, PagedFile};

    fn frozen(n: u64) -> FrozenPages {
        let mut f = MemPagedFile::new();
        for i in 0..n {
            let id = f.allocate_page().unwrap();
            let mut p = Page::zeroed();
            p.bytes_mut()[..8].copy_from_slice(&i.to_le_bytes());
            f.write_page(id, &p).unwrap();
        }
        FrozenPages::from_mem(f)
    }

    /// Reads page `id` through `pool` and returns the number in its first
    /// 8 bytes.
    fn read(pool: &SharedCachedFile, cur: &mut IoCursor, id: PageId) -> Result<u64> {
        let frame = pool.read_frame(cur, id)?;
        Ok(u64::from_le_bytes(frame.bytes()[..8].try_into().unwrap()))
    }

    #[test]
    fn frozen_pages_expose_contents() {
        let fp = frozen(3);
        assert_eq!(fp.page_count(), 3);
        let mut out = [0u8; PAGE_SIZE];
        fp.read_into(PageId(2), &mut out).unwrap();
        assert_eq!(&out[..8], &2u64.to_le_bytes());
        assert!(fp.read_into(PageId(3), &mut out).is_err());
    }

    #[test]
    fn hit_costs_nothing_miss_charges_cursor() {
        let pool = SharedCachedFile::new(frozen(4), DiskModel::PAPER_ERA, 8, 2);
        let mut cur = IoCursor::new();
        assert_eq!(read(&pool, &mut cur, PageId(1)).unwrap(), 1);
        let after_miss = cur.stats();
        assert_eq!(after_miss.page_reads, 1);
        assert_eq!(after_miss.random_reads, 1);
        assert_eq!(after_miss.elapsed_us, 8000.0 + 100.0);

        read(&pool, &mut cur, PageId(1)).unwrap();
        assert_eq!(cur.stats(), after_miss, "hit must not charge");
        assert_eq!(pool.hit_stats(), (1, 1));
    }

    #[test]
    fn sequential_rule_matches_simulated_disk() {
        let pool = SharedCachedFile::new(frozen(5), DiskModel::PAPER_ERA, 2, 1);
        let mut cur = IoCursor::new();
        // Tiny pool (2 pages) so every access below misses.
        for i in 0..5 {
            read(&pool, &mut cur, PageId(i)).unwrap();
        }
        let s = cur.stats();
        assert_eq!(s.page_reads, 5);
        assert_eq!(s.random_reads, 1);
        assert_eq!(s.sequential_reads, 4);
        assert_eq!(s.elapsed_us, 8100.0 + 4.0 * 100.0);
        assert_eq!(pool.hit_stats(), (0, 5), "one pool miss per charged read");
    }

    #[test]
    fn errors_not_charged() {
        let pool = SharedCachedFile::new(frozen(1), DiskModel::PAPER_ERA, 2, 1);
        let mut cur = IoCursor::new();
        assert!(read(&pool, &mut cur, PageId(9)).is_err());
        assert_eq!(cur.stats().page_reads, 0);
        assert_eq!(pool.hit_stats(), (0, 0));
    }

    #[test]
    fn fork_shares_data_not_pool_state() {
        let pool = SharedCachedFile::new(frozen(2), DiskModel::FREE, 4, 2);
        let mut cur = IoCursor::new();
        read(&pool, &mut cur, PageId(0)).unwrap();
        let fork = pool.fork();
        assert_eq!(fork.hit_stats(), (0, 0));
        assert!(!fork.contains(PageId(0)));
        assert_eq!(read(&fork, &mut cur, PageId(0)).unwrap(), 0);
        assert_eq!(fork.shard_count(), 2);
        assert_eq!(fork.page_count(), 2);
    }

    #[test]
    fn read_frame_zero_copy_hit_and_identical_charging() {
        let pool = SharedCachedFile::new(frozen(4), DiskModel::PAPER_ERA, 8, 2);
        let mut cur = IoCursor::new();
        let a = pool.read_frame(&mut cur, PageId(1)).unwrap();
        assert_eq!(&a.bytes()[..8], &1u64.to_le_bytes());
        let after_miss = cur.stats();
        assert_eq!(after_miss.page_reads, 1);
        assert_eq!(after_miss.elapsed_us, 8000.0 + 100.0);
        let b = pool.read_frame(&mut cur, PageId(1)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must clone the pooled Arc");
        assert_eq!(cur.stats(), after_miss, "hit must not charge");
        assert_eq!(pool.hit_stats(), (1, 1));
    }

    #[test]
    fn warm_does_not_promote_but_counts() {
        // Single shard of 2 frames: after reading 0 then 1, page 0 is LRU.
        let pool = SharedCachedFile::new(frozen(4), DiskModel::FREE, 2, 1);
        let mut cur = IoCursor::new();
        pool.read_frame(&mut cur, PageId(0)).unwrap();
        pool.read_frame(&mut cur, PageId(1)).unwrap();
        // A promoting read of 0 would make 1 the victim; a warm must not.
        pool.warm_run(&mut cur, PageId(0), 1).unwrap();
        assert_eq!(pool.hit_stats(), (1, 2));
        pool.read_frame(&mut cur, PageId(2)).unwrap(); // evicts the true LRU
        assert!(!pool.contains(PageId(0)), "warm hit must not promote");
        assert!(pool.contains(PageId(1)));
    }

    #[test]
    fn warm_miss_charges_like_a_read() {
        let pool = SharedCachedFile::new(frozen(4), DiskModel::PAPER_ERA, 8, 2);
        let mut cur = IoCursor::new();
        pool.warm_run(&mut cur, PageId(2), 1).unwrap();
        assert_eq!(cur.stats().page_reads, 1);
        assert_eq!(cur.stats().elapsed_us, 8000.0 + 100.0);
        assert!(pool.contains(PageId(2)));
        // The warmed frame then serves a zero-cost read.
        let before = cur.stats();
        pool.read_frame(&mut cur, PageId(2)).unwrap();
        assert_eq!(cur.stats(), before);
    }

    #[test]
    fn overlay_dropped_on_eviction() {
        let pool = SharedCachedFile::new(frozen(3), DiskModel::FREE, 1, 1);
        let mut cur = IoCursor::new();
        let frame = pool.read_frame(&mut cur, PageId(0)).unwrap();
        let overlay: Arc<u64> = frame
            .overlay(|p| Ok(u64::from_le_bytes(p[..8].try_into().unwrap())))
            .unwrap();
        assert_eq!(*overlay, 0);
        let weak = Arc::downgrade(&frame);
        drop(frame);
        assert!(weak.upgrade().is_some(), "pool must keep the frame alive");
        pool.read_frame(&mut cur, PageId(1)).unwrap(); // capacity 1: evicts 0
        drop(overlay);
        assert!(
            weak.upgrade().is_none(),
            "evicted frame (and its overlay) must be freed once unreferenced"
        );
    }

    #[test]
    fn corrupt_page_is_rejected_and_never_pooled() {
        let pool = SharedCachedFile::new(frozen(3), DiskModel::PAPER_ERA, 8, 2);
        let injector = pool.arm_faults(&FaultPlan::corrupt_one(1));
        let mut cur = IoCursor::new();
        // Clean pages still read fine through the injector.
        assert_eq!(read(&pool, &mut cur, PageId(0)).unwrap(), 0);
        // The corrupt page fails the admission checksum, permanently.
        let err = read(&pool, &mut cur, PageId(1)).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        assert!(!pool.contains(PageId(1)), "poison must not enter the pool");
        assert_eq!(injector.injected(), 1);
        // The failed fetch is charged nowhere: no miss on any counter.
        assert_eq!(pool.hit_stats(), (0, 1));
        // A corrupt page inside a faulted run takes the same per-page path.
        assert!(pool.warm_run(&mut cur, PageId(0), 3).is_err());
        assert_eq!(pool.hit_stats(), (1, 1));
        // No negative caching either: disarm and the page reads clean.
        injector.disarm();
        assert_eq!(read(&pool, &mut cur, PageId(1)).unwrap(), 1);
        assert!(pool.contains(PageId(1)));
    }

    /// Writes `n` numbered pages as frozen-store file `name` under a fresh
    /// temp dir and returns its path.
    fn store_file(dir: &Path, name: &str, n: u64) -> std::path::PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let pages: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let mut p = vec![0u8; PAGE_SIZE];
                p[..8].copy_from_slice(&i.to_le_bytes());
                p
            })
            .collect();
        let path = dir.join(name);
        crate::frozen::write_store(&path, &pages, 1).unwrap();
        path
    }

    /// Flips a byte of data page `page` in the store file at `path`, behind
    /// the back of any store already opened (and verified) over it.
    fn corrupt_on_disk(path: &Path, page: u64) {
        use std::os::unix::fs::FileExt;
        let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        let at = crate::frozen::StoreLayout::page_offset(page) + 100;
        f.write_all_at(&[0xEE], at).unwrap();
    }

    #[test]
    fn pread_run_with_corrupt_page_keeps_counters_reconciled() {
        let dir = std::env::temp_dir().join(format!("hdov_shared_run_{}", std::process::id()));
        // Unreplicated: the corrupt page ends the run with an error, after
        // the pages before it were charged and pooled exactly as per page.
        let path = store_file(&dir, "single.hdov", 4);
        let data = FrozenPages::open_pread(&path).unwrap();
        corrupt_on_disk(&path, 2);
        let pool = SharedCachedFile::new(data, DiskModel::PAPER_ERA, 8, 2);
        let mut cur = IoCursor::new();
        let err = pool.read_run(&mut cur, PageId(0), 4).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        assert!(pool.contains(PageId(1)) && !pool.contains(PageId(2)));
        assert!(!pool.contains(PageId(3)), "the run stops at the error");
        assert_eq!(pool.hit_stats(), (0, 2));
        assert_eq!(cur.stats().page_reads, 2);
        assert!(pool.warm_run(&mut cur, PageId(0), 4).is_err());
        assert_eq!(pool.hit_stats(), (2, 2));

        // Replicated: the corrupt page fails over inside the run, every page
        // is charged once, and the counters still reconcile.
        let primary = store_file(&dir, "primary.hdov", 4);
        let replica = store_file(&dir, "replica.hdov", 4);
        let data = FrozenPages::open_pread(&primary)
            .unwrap()
            .with_replicas(vec![FrozenPages::open_pread(&replica).unwrap()]);
        corrupt_on_disk(&primary, 2);
        let pool = SharedCachedFile::new(data, DiskModel::PAPER_ERA, 8, 2);
        let mut cur = IoCursor::new();
        pool.warm_run(&mut cur, PageId(0), 4).unwrap();
        assert_eq!(pool.hit_stats(), (0, 4));
        assert_eq!(cur.stats().page_reads, 4);
        assert_eq!(cur.stats().elapsed_us, 8100.0 + 3.0 * 100.0);
        let h = pool.replica_set().status();
        assert_eq!((h.failover_reads, h.pages_repaired), (1, 1));
        for i in 0..4 {
            let frame = pool.read_frame(&mut cur, PageId(i)).unwrap();
            assert_eq!(&frame.bytes()[..8], &i.to_le_bytes());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_run_accounts_like_per_page_reads() {
        // Run reads on a pread store against per-page reads of the same
        // pages in memory. A tiny pool, so later pages of a run evict
        // earlier ones and a repeated run mixes hits and misses.
        let dir = std::env::temp_dir().join(format!("hdov_shared_acct_{}", std::process::id()));
        let data = FrozenPages::open_pread(&store_file(&dir, "run.hdov", 8)).unwrap();
        let run = SharedCachedFile::new(data, DiskModel::PAPER_ERA, 3, 2);
        let per_page = SharedCachedFile::new(frozen(8), DiskModel::PAPER_ERA, 3, 2);
        let (mut c1, mut c2) = (IoCursor::new(), IoCursor::new());
        for (first, len) in [(0u64, 3u64), (1, 4), (0, 2), (5, 3), (2, 1)] {
            run.read_run(&mut c1, PageId(first), len).unwrap();
            for i in first..first + len {
                per_page.read_frame(&mut c2, PageId(i)).unwrap();
            }
            assert_eq!(c1.stats(), c2.stats());
            assert_eq!(run.hit_stats(), per_page.hit_stats());
            for i in 0..8 {
                assert_eq!(run.contains(PageId(i)), per_page.contains(PageId(i)));
            }
        }
        assert!(
            run.read_run(&mut c1, PageId(7), 2).is_err(),
            "out of bounds"
        );
        assert_eq!(
            run.hit_stats(),
            per_page.hit_stats(),
            "errors are not charged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_failure_is_retried_with_charged_backoff() {
        let pool = SharedCachedFile::new(frozen(2), DiskModel::PAPER_ERA, 8, 2);
        // Injector read #2 fails; the retry (read #3) succeeds.
        pool.arm_faults(&FaultPlan {
            fail_every_nth_read: 2,
            ..Default::default()
        });
        let mut cur = IoCursor::new();
        read(&pool, &mut cur, PageId(0)).unwrap(); // read #1
        let base = cur.stats();
        assert_eq!(base.elapsed_us, 8100.0);
        // Read #2 fails, the retry (#3) succeeds.
        assert_eq!(read(&pool, &mut cur, PageId(1)).unwrap(), 1);
        let s = cur.stats();
        assert_eq!(s.page_reads, 2, "the failed attempt is not a read");
        assert_eq!(s.sequential_reads, 1);
        // Penalty: one full access (8000 + 100) + first backoff (100),
        // then the successful sequential read (100).
        assert_eq!(s.elapsed_us, base.elapsed_us + 8200.0 + 100.0);
    }

    #[test]
    fn permanent_failure_exhausts_retries() {
        let pool =
            SharedCachedFile::new(frozen(2), DiskModel::PAPER_ERA, 8, 2).with_retry(RetryPolicy {
                max_attempts: 3,
                base_backoff_us: 100.0,
                max_backoff_us: 10_000.0,
            });
        let injector = pool.arm_faults(&FaultPlan::fail_one(0));
        let mut cur = IoCursor::new();
        let err = read(&pool, &mut cur, PageId(0)).unwrap_err();
        assert!(err.is_transient(), "injected faults are I/O errors");
        assert_eq!(injector.reads(), 3, "three attempts were made");
        assert_eq!(cur.stats().page_reads, 0, "failed reads are never counted");
        // Two retriable failures charged penalties; the terminal one did not.
        assert_eq!(cur.stats().elapsed_us, (8100.0 + 100.0) + (8100.0 + 200.0));
        assert!(!pool.contains(PageId(0)));
    }

    #[test]
    fn retry_none_fails_fast() {
        let pool = SharedCachedFile::new(frozen(1), DiskModel::PAPER_ERA, 2, 1)
            .with_retry(RetryPolicy::NONE);
        let injector = pool.arm_faults(&FaultPlan::fail_one(0));
        let mut cur = IoCursor::new();
        assert!(read(&pool, &mut cur, PageId(0)).is_err());
        assert_eq!(injector.reads(), 1);
        assert_eq!(cur.stats().elapsed_us, 0.0, "no retry, no penalty");
    }

    #[test]
    fn latency_spike_charges_time_but_no_reads() {
        let pool = SharedCachedFile::new(frozen(1), DiskModel::PAPER_ERA, 2, 1);
        pool.arm_faults(&FaultPlan {
            latency_spike_rate: 1.0,
            latency_spike_us: 500.0,
            seed: 3,
            ..Default::default()
        });
        let mut cur = IoCursor::new();
        read(&pool, &mut cur, PageId(0)).unwrap();
        let s = cur.stats();
        assert_eq!(s.page_reads, 1);
        assert_eq!(s.elapsed_us, 8100.0 + 500.0);
        // Hits bypass the injector entirely: no further spikes.
        read(&pool, &mut cur, PageId(0)).unwrap();
        assert_eq!(cur.stats().elapsed_us, s.elapsed_us);
    }

    #[test]
    fn hits_never_consult_the_injector() {
        let pool = SharedCachedFile::new(frozen(1), DiskModel::FREE, 2, 1);
        let mut cur = IoCursor::new();
        read(&pool, &mut cur, PageId(0)).unwrap();
        // Arm a plan that fails *every* read — pooled pages must keep serving.
        let injector = pool.arm_faults(&FaultPlan {
            fail_every_nth_read: 1,
            ..Default::default()
        });
        for _ in 0..4 {
            assert_eq!(read(&pool, &mut cur, PageId(0)).unwrap(), 0);
        }
        assert_eq!(injector.reads(), 0, "hits bypass the fault source");
    }

    #[test]
    fn arm_faults_is_first_wins() {
        let pool = SharedCachedFile::new(frozen(1), DiskModel::FREE, 2, 1);
        let a = pool.arm_faults(&FaultPlan::fail_one(0));
        let b = pool.arm_faults(&FaultPlan::default());
        assert!(Arc::ptr_eq(&a, &b), "re-arming returns the first injector");
        assert!(pool.faults().is_some());
    }

    #[test]
    fn fork_keeps_retry_and_checksums_but_not_faults() {
        let pool =
            SharedCachedFile::new(frozen(2), DiskModel::FREE, 4, 2).with_retry(RetryPolicy::NONE);
        pool.arm_faults(&FaultPlan::fail_one(0));
        let fork = pool.fork();
        assert_eq!(fork.retry(), RetryPolicy::NONE);
        assert!(fork.faults().is_none(), "forks arm independently");
        let mut cur = IoCursor::new();
        read(&fork, &mut cur, PageId(0)).unwrap();
    }

    #[test]
    fn corrupt_primary_fails_over_and_repairs() {
        let pool = SharedCachedFile::new(frozen(3), DiskModel::PAPER_ERA, 8, 2).with_replicas(2);
        let injector = pool.arm_replica_faults(0, &FaultPlan::corrupt_one(1));
        let mut cur = IoCursor::new();
        // The primary serves page 1 corrupt; the replica heals the read.
        assert_eq!(read(&pool, &mut cur, PageId(1)).unwrap(), 1);
        assert_eq!(injector.injected(), 1);
        let h = pool.replica_set().status();
        assert_eq!(h.replicas, 2);
        assert_eq!(h.failover_reads, 1);
        assert_eq!(h.pages_repaired, 1, "mem repair re-verifies and heals");
        assert_eq!(h.quarantined_pages, 0, "repaired pages leave quarantine");
        // The winning read is charged exactly like a clean miss.
        assert_eq!(cur.stats().page_reads, 1);
        assert_eq!(cur.stats().elapsed_us, 8000.0 + 100.0);
        assert!(pool.contains(PageId(1)), "recovered bytes are pooled");
        // Hits keep serving without consulting any injector.
        read(&pool, &mut cur, PageId(1)).unwrap();
        assert_eq!(injector.reads(), 1);
    }

    #[test]
    fn dead_primary_fails_over_without_repair() {
        let pool = SharedCachedFile::new(frozen(2), DiskModel::FREE, 4, 2)
            .with_replicas(2)
            .with_retry(RetryPolicy::NONE);
        pool.arm_replica_faults(0, &FaultPlan::dead());
        let mut cur = IoCursor::new();
        for i in 0..2 {
            assert_eq!(read(&pool, &mut cur, PageId(i)).unwrap(), i);
        }
        let h = pool.replica_set().status();
        assert_eq!(h.failover_reads, 2);
        assert_eq!(
            h.pages_repaired, 0,
            "I/O-dead replicas are not repair targets: their bytes were never observed wrong"
        );
    }

    #[test]
    fn all_replicas_corrupt_quarantines_without_negative_caching() {
        let pool = SharedCachedFile::new(frozen(2), DiskModel::FREE, 4, 2).with_replicas(2);
        let a = pool.arm_replica_faults(0, &FaultPlan::corrupt_one(0));
        let b = pool.arm_replica_faults(1, &FaultPlan::corrupt_one(0));
        let mut cur = IoCursor::new();
        let err = read(&pool, &mut cur, PageId(0)).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        assert!(!pool.contains(PageId(0)), "poison must not enter the pool");
        let h = pool.replica_set().status();
        assert_eq!(h.quarantined_pages, 2, "both copies quarantined");
        assert_eq!(h.failover_reads, 0, "no replica served the read");
        // Quarantine is bookkeeping, not a verdict: disarm and the page
        // reads clean again on the first try.
        a.disarm();
        b.disarm();
        assert_eq!(read(&pool, &mut cur, PageId(0)).unwrap(), 0);
        // The clean primary read clears its own entry; the untouched
        // replica stays quarantined until a scrub revisits it.
        assert_eq!(pool.replica_set().status().quarantined_pages, 1);
    }

    #[test]
    fn fault_free_replication_charges_identically() {
        let single = SharedCachedFile::new(frozen(4), DiskModel::PAPER_ERA, 2, 1);
        let triple = SharedCachedFile::new(frozen(4), DiskModel::PAPER_ERA, 2, 1).with_replicas(3);
        let (mut c1, mut c3) = (IoCursor::new(), IoCursor::new());
        for i in [0u64, 1, 2, 3, 0, 2] {
            let a = single.read_frame(&mut c1, PageId(i)).unwrap();
            let b = triple.read_frame(&mut c3, PageId(i)).unwrap();
            assert_eq!(a.bytes(), b.bytes());
        }
        assert_eq!(c1.stats(), c3.stats(), "replication is free when healthy");
        assert_eq!(single.hit_stats(), triple.hit_stats());
        assert!(triple.replica_set().status().is_clean());
    }

    #[test]
    fn fork_keeps_replicas_but_resets_health() {
        let pool = SharedCachedFile::new(frozen(2), DiskModel::FREE, 4, 2).with_replicas(2);
        pool.arm_replica_faults(0, &FaultPlan::corrupt_one(0));
        let mut cur = IoCursor::new();
        read(&pool, &mut cur, PageId(0)).unwrap();
        assert_eq!(pool.replica_set().status().failover_reads, 1);
        let fork = pool.fork();
        let h = fork.replica_set().status();
        assert_eq!(h.replicas, 2, "forks keep the replica topology");
        assert!(h.is_clean(), "health and faults are not inherited");
        assert_eq!(read(&fork, &mut cur, PageId(0)).unwrap(), 0);
    }

    #[test]
    fn from_disk_hands_over_the_build_cursor() {
        // Pages 0..4 written, page 4 allocated but never written: the
        // build head stops at page 3.
        let mut disk = SimulatedDisk::new(MemPagedFile::new(), DiskModel::PAPER_ERA);
        for i in 0..4u64 {
            let mut p = Page::zeroed();
            p.bytes_mut()[..8].copy_from_slice(&i.to_le_bytes());
            disk.append_page(&p).unwrap();
        }
        let unwritten = disk.allocate_page().unwrap();
        assert_eq!(disk.stats().page_writes, 4);
        let (pool, mut cur) = SharedCachedFile::from_disk(disk, 8, 2);
        assert_eq!(cur.stats(), IoStats::new(), "build charges stay behind");
        // The next page after the build head is sequential; the unwritten
        // page reads as zeroes and passes admission.
        let frame = pool.read_frame(&mut cur, unwritten).unwrap();
        assert_eq!(frame.bytes(), Page::zeroed().bytes());
        assert!(pool.contains(unwritten));
        assert_eq!(cur.stats().sequential_reads, 1);
        assert_eq!(cur.stats().elapsed_us, 100.0);
        // A far page is random.
        assert_eq!(read(&pool, &mut cur, PageId(0)).unwrap(), 0);
        assert_eq!(cur.stats().random_reads, 1);
        assert_eq!(cur.stats().elapsed_us, 100.0 + 8100.0);
        // The trusted table came with the handover: corruption is caught.
        pool.arm_faults(&FaultPlan::corrupt_one(1));
        let err = read(&pool, &mut cur, PageId(1)).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        assert!(!pool.contains(PageId(1)), "poison must not enter the pool");
    }

    #[test]
    fn cursor_reset_keeps_head() {
        let pool = SharedCachedFile::new(frozen(3), DiskModel::PAPER_ERA, 1, 1);
        let mut cur = IoCursor::new();
        read(&pool, &mut cur, PageId(0)).unwrap();
        cur.reset_stats();
        // Pool holds only page 0; page 1 misses but is head-sequential.
        read(&pool, &mut cur, PageId(1)).unwrap();
        assert_eq!(cur.stats().sequential_reads, 1);
        assert_eq!(cur.stats().page_reads, 1);
    }
}
