//! Satellite tests for the lock-striped shared buffer pool:
//!
//! 1. scoped-thread stress under contention (correct contents, exact
//!    accounting: every access is one hit or one miss, and the sessions'
//!    cursors charged exactly the misses),
//! 2. single-shard [`SharedCachedFile`] matches an in-test reference (an
//!    [`LruCache`] of page ids over a [`SimulatedDisk`]) on hit/miss,
//!    eviction and simulated-cost accounting for the same access trace,
//! 3. recycled frame buffers: a frame a session still holds is never
//!    recycled, and a failed miss leaks none of its bytes into the next.

use hdov_storage::{
    DiskModel, FaultPlan, IoCursor, LruCache, MemPagedFile, Page, PageId, PagedFile,
    SharedCachedFile, SimulatedDisk,
};

const N_PAGES: u64 = 64;

/// A paged file whose page `i` holds `i` in its first 8 bytes.
fn mem_file() -> MemPagedFile {
    let mut f = MemPagedFile::new();
    for i in 0..N_PAGES {
        let id = f.allocate_page().unwrap();
        let mut p = Page::zeroed();
        p.bytes_mut()[..8].copy_from_slice(&i.to_le_bytes());
        f.write_page(id, &p).unwrap();
    }
    f
}

/// SplitMix64: deterministic trace generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A mixed trace: bursts of sequential runs interleaved with random jumps,
/// which exercises both arms of the seek/transfer rule.
fn trace(seed: u64, len: usize) -> Vec<u64> {
    let mut s = seed;
    let mut out = Vec::with_capacity(len);
    let mut pos = splitmix(&mut s) % N_PAGES;
    while out.len() < len {
        let run = 1 + (splitmix(&mut s) % 6);
        for _ in 0..run {
            if out.len() == len {
                break;
            }
            out.push(pos);
            pos = (pos + 1) % N_PAGES;
        }
        pos = splitmix(&mut s) % N_PAGES;
    }
    out
}

#[test]
fn stress_scoped_threads_under_contention() {
    const THREADS: usize = 8;
    const READS: usize = 2_000;
    // Small pool relative to the file so eviction churns constantly.
    let pool = SharedCachedFile::from_mem(mem_file(), DiskModel::PAPER_ERA, 16, 4);

    let cursors: Vec<IoCursor> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let pool = &pool;
                s.spawn(move || {
                    let mut cur = IoCursor::new();
                    for id in trace(0xC0FFEE + t as u64, READS) {
                        let frame = pool.read_frame(&mut cur, PageId(id)).unwrap();
                        assert_eq!(
                            &frame.bytes()[..8],
                            &id.to_le_bytes(),
                            "page contents must survive concurrent pooling"
                        );
                    }
                    cur
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress worker panicked"))
            .collect()
    });

    // Every access is either a pool hit or a miss; the pool's counters
    // must account for all of them exactly.
    let (hits, misses) = pool.hit_stats();
    assert_eq!(hits + misses, (THREADS * READS) as u64);

    // The cursors are the one ledger: together they charged exactly the
    // pool's misses, each as either a sequential or a random read.
    let cursor_reads: u64 = cursors.iter().map(|c| c.stats().page_reads).sum();
    assert_eq!(cursor_reads, misses);
    for c in &cursors {
        let s = c.stats();
        assert_eq!(s.sequential_reads + s.random_reads, s.page_reads);
    }
    assert!(misses >= 16, "cold pool must miss at least once per frame");
    assert!(hits > 0, "shared pool must produce cross-session hits");
}

#[test]
fn single_shard_matches_lru_over_simulated_disk() {
    const CAPACITY: usize = 12;
    let model = DiskModel::PAPER_ERA;
    let shared = SharedCachedFile::from_mem(mem_file(), model, CAPACITY, 1);
    let mut cursor = IoCursor::new();

    // Reference pool: an LRU of page ids over a fresh simulated disk (head
    // position starts unset, matching a fresh IoCursor). A hit is free; a
    // miss reads through the disk and inserts.
    let mut disk = SimulatedDisk::new(mem_file(), model);
    let mut lru: LruCache<u64, ()> = LruCache::new(CAPACITY);
    let (mut lru_hits, mut lru_misses) = (0, 0);

    let mut disk_out = Page::zeroed();
    for (step, id) in trace(0xDEAD_BEEF, 4_000).into_iter().enumerate() {
        let frame = shared.read_frame(&mut cursor, PageId(id)).unwrap();
        if lru.lookup(&id, true).is_some() {
            lru_hits += 1;
        } else {
            lru_misses += 1;
            disk.read_page(PageId(id), &mut disk_out).unwrap();
            lru.insert(id, ());
            assert_eq!(
                frame.bytes(),
                disk_out.bytes(),
                "contents diverged at step {step}"
            );
        }
        assert_eq!(
            &frame.bytes()[..8],
            &id.to_le_bytes(),
            "contents diverged at step {step}"
        );
        assert_eq!(
            shared.hit_stats(),
            (lru_hits, lru_misses),
            "hit/miss accounting diverged at step {step}"
        );
        for p in 0..N_PAGES {
            assert_eq!(
                shared.contains(PageId(p)),
                lru.peek(&p).is_some(),
                "eviction order diverged at step {step} (page {p})"
            );
        }
    }

    // Simulated cost model agrees exactly: same misses, same seek/transfer
    // split, same elapsed time.
    let disk_stats = disk.stats();
    let cur_stats = cursor.stats();
    assert_eq!(cur_stats.page_reads, disk_stats.page_reads);
    assert_eq!(cur_stats.sequential_reads, disk_stats.sequential_reads);
    assert_eq!(cur_stats.random_reads, disk_stats.random_reads);
    assert!((cur_stats.elapsed_us - disk_stats.elapsed_us).abs() < 1e-9);

    // The trace touched more distinct pages than the pool holds, so the
    // equality above genuinely covered evictions.
    let (_, misses) = shared.hit_stats();
    assert!(misses as usize > CAPACITY, "trace must force evictions");
}

#[test]
fn held_frame_keeps_its_bytes_after_eviction() {
    // One single-page shard: every miss evicts the previous frame.
    let pool = SharedCachedFile::from_mem(mem_file(), DiskModel::PAPER_ERA, 1, 1);
    let mut cursor = IoCursor::new();
    let held = pool.read_frame(&mut cursor, PageId(0)).unwrap();
    for id in 1..N_PAGES {
        // Dropped at once, so each of these buffers is recycled in turn.
        let frame = pool.read_frame(&mut cursor, PageId(id)).unwrap();
        assert_eq!(&frame.bytes()[..8], &id.to_le_bytes());
        assert!(!pool.contains(PageId(0)));
        assert_eq!(&held.bytes()[..8], &0u64.to_le_bytes(), "after miss {id}");
    }
    assert!(held.bytes()[8..].iter().all(|&b| b == 0));
    assert_eq!(pool.hit_stats(), (0, N_PAGES));
}

#[test]
fn failed_miss_admits_nothing_and_leaks_no_bytes() {
    let pool = SharedCachedFile::from_mem(mem_file(), DiskModel::PAPER_ERA, 2, 1);
    let mut cursor = IoCursor::new();
    // Fill the pool and evict once, so the shard holds a spare buffer.
    for id in 0..3 {
        pool.read_frame(&mut cursor, PageId(id)).unwrap();
    }
    let charged = cursor.stats().page_reads;
    // Page 5 is served bit-flipped: its bytes land in the spare, fail the
    // checksum, and must go nowhere.
    pool.arm_faults(&FaultPlan::corrupt_one(5));
    assert!(pool.read_frame(&mut cursor, PageId(5)).is_err());
    assert!(!pool.contains(PageId(5)));
    assert_eq!(pool.hit_stats(), (0, 3));
    assert_eq!(cursor.stats().page_reads, charged);
    for id in [6, 7, 8] {
        let frame = pool.read_frame(&mut cursor, PageId(id)).unwrap();
        let mut want = Page::zeroed();
        want.bytes_mut()[..8].copy_from_slice(&id.to_le_bytes());
        assert_eq!(frame.bytes(), want.bytes(), "page {id}");
    }
    assert_eq!(pool.hit_stats(), (0, 6));
}
