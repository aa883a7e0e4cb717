//! Pool misses on twin-class pages allocate nothing: on a pread store, a
//! miss on a page whose bytes repeat elsewhere in the store admits a clone
//! of the store's class frame, so a full pool's steady stream of such
//! misses takes no buffer, copies nothing and allocates no page-sized
//! block (nor any other: not even a frame header), and evicting a class
//! frame frees nothing, because the store still holds it.
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

/// Distinct contents; the store repeats each `COPIES` times.
const CONTENTS: u64 = 16;
const COPIES: u64 = 4;
const CAPACITY: usize = 8;
const SHARDS: usize = 2;

/// The tag in the first 8 bytes of page `id`: pages `k`, `k + CONTENTS`,
/// `k + 2·CONTENTS`, … hold the same bytes, so every page is in a class.
fn tag(id: u64) -> u64 {
    id % CONTENTS
}

#[test]
fn full_pool_class_misses_allocate_no_page() {
    assert!(!hdov_obs::is_enabled(), "obs must stay disabled here");
    let pages = CONTENTS * COPIES;
    let mut f = MemPagedFile::new();
    for id in 0..pages {
        f.append_page(&Page::from_bytes(&tag(id).to_le_bytes()))
            .unwrap();
    }
    let dir = std::env::temp_dir().join(format!("hdov_alloc_class_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("twins.hdov");
    FrozenPages::from_mem(f)
        .write_store_flagged(&path, 1, 0)
        .unwrap();
    let data = FrozenPages::open_pread(&path).unwrap();
    assert_eq!(data.pread_store().unwrap().class_copies() as u64, CONTENTS);
    let pool = SharedCachedFile::new(data, DiskModel::PAPER_ERA, CAPACITY, SHARDS);
    assert!((0..pages).all(|id| pool.miss_shares_class(PageId(id))));

    let mut cursor = IoCursor::new();
    // A cyclic scan over 8× the capacity: every read is a miss. The first
    // round fills every shard and evicts from each.
    let mut scan = |round: u32| {
        for id in 0..pages {
            let frame = pool.read_frame(&mut cursor, PageId(id)).unwrap();
            assert_eq!(&frame.bytes()[..8], &tag(id).to_le_bytes(), "round {round}");
        }
        pool.read_run(&mut cursor, PageId(0), pages).unwrap();
    };
    scan(0);
    let (_, before) = pool.hit_stats();
    let (allocs, page_allocs) = (
        ALLOCS.load(Ordering::Relaxed),
        PAGE_ALLOCS.load(Ordering::Relaxed),
    );
    for round in 1..5 {
        scan(round);
    }
    let page_allocs = PAGE_ALLOCS.load(Ordering::Relaxed) - page_allocs;
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    let (hits, after) = pool.hit_stats();
    assert_eq!((hits, after - before), (0, 8 * pages), "every read misses");
    assert_eq!(page_allocs, 0, "class misses allocated page-sized blocks");
    assert_eq!(allocs, 0, "class misses allocated");
    std::fs::remove_dir_all(&dir).ok();
}
