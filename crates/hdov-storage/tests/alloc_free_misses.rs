//! Allocations made by every pool miss path:
//!
//! * **a shared miss allocates nothing at all** — a miss that admits the
//!   store's shared frame (every page of a mem store, the twin-class
//!   members of a pread store) takes no buffer, copies nothing and
//!   allocates nothing, not even a frame header: through a full pool and
//!   through a capacity-0 pool (mem), by single reads, runs and warms;
//! * **a copying miss allocates no page** — once a full pool's shards hold
//!   their spares, each copying miss (a pread page whose bytes repeat
//!   nowhere, or a mem page while faults are armed) fills the buffer of
//!   the frame it evicts, which no session holds: only the small
//!   `Arc<Frame>` header is allocated.
//!
//! A counting global allocator needs its own process: this file holds
//! exactly one test, and obs stays disabled (registering a thread-local
//! recorder allocates on first use).

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use hdov_storage::{
    DiskModel, FaultPlan, FrozenPages, IoCursor, MemPagedFile, Page, PageId, PagedFile,
    SharedCachedFile, PAGE_SIZE,
};

struct CountingAlloc;

/// Allocations of any size.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Allocations of at least one page.
static PAGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if size >= PAGE_SIZE {
        PAGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PAGES: u64 = 64;
const CAPACITY: usize = 8;
const SHARDS: usize = 2;

/// The tag in the first 8 bytes of page `id` of a store whose pages are
/// all distinct.
fn unique(id: u64) -> u64 {
    id
}

/// The tag of page `id` of a store in which every content repeats four
/// times: pages `k`, `k + 16`, `k + 32` and `k + 48` are equal.
fn repeated(id: u64) -> u64 {
    id % 16
}

/// A mem store of `PAGES` pages, page `id` tagged `tag(id)`.
fn mem(tag: fn(u64) -> u64) -> FrozenPages {
    let mut f = MemPagedFile::new();
    for id in 0..PAGES {
        f.append_page(&Page::from_bytes(&tag(id).to_le_bytes()))
            .unwrap();
    }
    FrozenPages::from_mem(f)
}

/// The same pages written as store `name` under `dir` and opened for
/// pread.
fn pread(dir: &Path, name: &str, tag: fn(u64) -> u64) -> FrozenPages {
    let path = dir.join(name);
    mem(tag).write_store_flagged(&path, 1, 0).unwrap();
    FrozenPages::open_pread(&path).unwrap()
}

/// `(allocations, page-sized allocations)` made while `f` runs.
fn allocs(f: impl FnOnce()) -> (u64, u64) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        PAGE_ALLOCS.load(Ordering::Relaxed),
    );
    f();
    (
        ALLOCS.load(Ordering::Relaxed) - before.0,
        PAGE_ALLOCS.load(Ordering::Relaxed) - before.1,
    )
}

/// Reads every page of `pool` in order (checking its tag), then, when
/// `runs`, reads them all as one run and warms them all as another.
fn scan(pool: &SharedCachedFile, cursor: &mut IoCursor, tag: fn(u64) -> u64, runs: bool) {
    for id in 0..PAGES {
        let frame = pool.read_frame(cursor, PageId(id)).unwrap();
        assert_eq!(&frame.bytes()[..8], &tag(id).to_le_bytes(), "page {id}");
    }
    if runs {
        pool.read_run(cursor, PageId(0), PAGES).unwrap();
        pool.warm_run(cursor, PageId(0), PAGES).unwrap();
    }
}

/// Four scans of `pool` after a first one that fills every shard and
/// evicts from each (taking the spares); returns the allocations the four
/// made, after checking that every probe in them missed.
fn steady(pool: &SharedCachedFile, tag: fn(u64) -> u64, runs: bool) -> (u64, u64) {
    let mut cursor = IoCursor::new();
    scan(pool, &mut cursor, tag, runs);
    let (_, before) = pool.hit_stats();
    let made = allocs(|| {
        for _ in 0..4 {
            scan(pool, &mut cursor, tag, runs);
        }
    });
    let per_scan = if runs { 3 * PAGES } else { PAGES };
    let (hits, after) = pool.hit_stats();
    assert_eq!(
        (hits, after - before),
        (0, 4 * per_scan),
        "every probe misses"
    );
    made
}

#[test]
fn shared_misses_allocate_nothing_and_copying_misses_no_page() {
    assert!(!hdov_obs::is_enabled(), "obs must stay disabled here");
    let model = DiskModel::PAPER_ERA;
    let dir = std::env::temp_dir().join(format!("hdov_alloc_misses_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Shared misses: mem pages through a full and a capacity-0 pool, and
    // pread twin-class members through a full pool.
    let data = mem(unique);
    for capacity in [CAPACITY, 0] {
        let pool = SharedCachedFile::new(data.clone(), model, capacity, SHARDS);
        assert!((0..PAGES).all(|id| pool.miss_shares(PageId(id))));
        assert_eq!(
            steady(&pool, unique, true),
            (0, 0),
            "mem, capacity {capacity}"
        );
    }
    let twins = pread(&dir, "twins.hdov", repeated);
    assert_eq!(twins.pread_store().unwrap().class_copies(), 16);
    let pool = SharedCachedFile::new(twins, model, CAPACITY, SHARDS);
    assert!((0..PAGES).all(|id| pool.miss_shares(PageId(id))));
    assert_eq!(steady(&pool, repeated, true), (0, 0), "pread class members");

    // Copying misses: pread pages that repeat nowhere, and mem pages with
    // an armed plan that injects nothing.
    let pool = SharedCachedFile::new(pread(&dir, "unique.hdov", unique), model, CAPACITY, SHARDS);
    assert!(!pool.miss_shares(PageId(0)));
    assert_eq!(steady(&pool, unique, false).1, 0, "pread unique pages");
    let pool = SharedCachedFile::new(mem(unique), model, CAPACITY, SHARDS);
    pool.arm_faults(&FaultPlan::default());
    assert!(!pool.miss_shares(PageId(0)));
    assert_eq!(steady(&pool, unique, false).1, 0, "mem with faults armed");
    std::fs::remove_dir_all(&dir).ok();
}
