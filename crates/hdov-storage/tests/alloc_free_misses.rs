//! A full pool's steady stream of misses allocates no page-sized block, on
//! the mem backend and on pread. On pread, pool misses recycle evicted
//! frame buffers: once a full pool has taken its spares, each miss copies
//! into the buffer of the frame it evicts (no session holds it). On mem, a
//! miss shares the store's own buffer and copies nothing (see
//! `alloc_free_mem_fill.rs`). Either way only the small `Arc<Frame>`
//! header is allocated.
//!
//! A counting global allocator needs its own process: this file holds
//! exactly one test, and obs stays disabled (registering a thread-local
//! recorder allocates on first use).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hdov_storage::{
    DiskModel, FrozenPages, IoCursor, MemPagedFile, Page, PageId, PagedFile, SharedCachedFile,
    PAGE_SIZE,
};

struct CountingAlloc;

/// Allocations of at least one page.
static PAGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
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

const N_PAGES: u64 = 64;
const CAPACITY: usize = 8;
const SHARDS: usize = 2;

/// A paged file whose page `i` holds `i` in its first 8 bytes.
fn built() -> FrozenPages {
    let mut f = MemPagedFile::new();
    for i in 0..N_PAGES {
        f.append_page(&Page::from_bytes(&i.to_le_bytes())).unwrap();
    }
    FrozenPages::from_mem(f)
}

/// Page-sized allocations made by a stream of misses over a full pool
/// whose shards already hold their spares.
fn steady_misses(pool: &SharedCachedFile) -> u64 {
    let mut cursor = IoCursor::new();
    // Fill every shard and evict once more in each: the spares.
    for id in 0..2 * CAPACITY as u64 {
        pool.read_frame(&mut cursor, PageId(id)).unwrap();
    }
    let (_, before) = pool.hit_stats();
    let allocs = PAGE_ALLOCS.load(Ordering::Relaxed);
    // A cyclic scan over 8× the capacity: every read is a miss.
    for round in 0..4 {
        for id in 0..N_PAGES {
            let frame = pool.read_frame(&mut cursor, PageId(id)).unwrap();
            assert_eq!(&frame.bytes()[..8], &id.to_le_bytes(), "round {round}");
        }
    }
    let allocs = PAGE_ALLOCS.load(Ordering::Relaxed) - allocs;
    let (hits, after) = pool.hit_stats();
    assert_eq!(
        (hits, after - before),
        (0, 4 * N_PAGES),
        "every read misses"
    );
    allocs
}

#[test]
fn full_pool_misses_allocate_no_page() {
    assert!(!hdov_obs::is_enabled(), "obs must stay disabled here");
    let model = DiskModel::PAPER_ERA;

    let mem = SharedCachedFile::new(built(), model, CAPACITY, SHARDS);
    assert_eq!(steady_misses(&mem), 0, "mem backend");

    let dir = std::env::temp_dir().join(format!("hdov_alloc_misses_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pages.hdov");
    built().write_store_flagged(&path, 1, 0).unwrap();
    let pread = SharedCachedFile::new(
        FrozenPages::open_pread(&path).unwrap(),
        model,
        CAPACITY,
        SHARDS,
    );
    assert_eq!(steady_misses(&pread), 0, "pread backend");
    std::fs::remove_dir_all(&dir).ok();
}
