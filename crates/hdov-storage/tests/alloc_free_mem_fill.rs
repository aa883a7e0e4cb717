//! Mem pool misses allocate no page: a miss on a mem store with no faults
//! armed admits a frame over the store's own interned buffer of the page,
//! so filling a cold pool to capacity, and a stream of misses through a
//! capacity-0 pool (which keeps nothing and has no spare to recycle),
//! allocate no page-sized block: only the small `Arc<Frame>` header.
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
const CAPACITY: usize = 32;
const SHARDS: usize = 2;

/// A paged file whose page `i` holds `i` in its first 8 bytes.
fn built() -> FrozenPages {
    let mut f = MemPagedFile::new();
    for i in 0..N_PAGES {
        f.append_page(&Page::from_bytes(&i.to_le_bytes())).unwrap();
    }
    FrozenPages::from_mem(f)
}

/// Page-sized allocations made while `f` runs.
fn page_allocs(f: impl FnOnce()) -> u64 {
    let before = PAGE_ALLOCS.load(Ordering::Relaxed);
    f();
    PAGE_ALLOCS.load(Ordering::Relaxed) - before
}

fn check(pool: &SharedCachedFile, cursor: &mut IoCursor, id: u64) {
    let frame = pool.read_frame(cursor, PageId(id)).unwrap();
    assert_eq!(&frame.bytes()[..8], &id.to_le_bytes(), "page {id}");
}

#[test]
fn mem_misses_fill_cold_and_capacity_0_pools_without_a_page_allocation() {
    assert!(!hdov_obs::is_enabled(), "obs must stay disabled here");
    let model = DiskModel::PAPER_ERA;
    let data = built();

    // A cold pool filled to capacity: half by single reads, half by a run.
    let pool = SharedCachedFile::new(data.clone(), model, CAPACITY, SHARDS);
    let mut cursor = IoCursor::new();
    let half = CAPACITY as u64 / 2;
    let fill = page_allocs(|| {
        for id in 0..half {
            check(&pool, &mut cursor, id);
        }
        pool.read_run(&mut cursor, PageId(half), half).unwrap();
    });
    assert_eq!(pool.hit_stats(), (0, CAPACITY as u64));
    assert!((0..CAPACITY as u64).all(|id| pool.contains(PageId(id))));
    assert_eq!(fill, 0, "filling a cold mem pool");

    // A capacity-0 pool: every read and every warmed page is a miss.
    let none = SharedCachedFile::new(data, model, 0, SHARDS);
    let mut cursor = IoCursor::new();
    let stream = page_allocs(|| {
        for round in 0..4 {
            for id in 0..N_PAGES {
                check(&none, &mut cursor, id);
            }
            none.warm_run(&mut cursor, PageId(round), N_PAGES - round)
                .unwrap();
        }
    });
    let warmed: u64 = (0..4).map(|round| N_PAGES - round).sum();
    assert_eq!(none.hit_stats(), (0, 4 * N_PAGES + warmed));
    assert_eq!(stream, 0, "misses through a capacity-0 mem pool");
}
