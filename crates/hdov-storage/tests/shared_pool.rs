//! Satellite tests for the lock-striped shared buffer pool:
//!
//! 1. scoped-thread stress under contention (correct contents, exact
//!    accounting),
//! 2. single-shard [`SharedCachedFile`] matches single-threaded
//!    [`CachedFile`] hit/miss/eviction and simulated-cost accounting on the
//!    same access trace,
//! 3. atomic [`AtomicIoStats`] totals equal the sum of per-shard LRU
//!    counters.

use hdov_storage::{
    CachedFile, DiskModel, IoCursor, MemPagedFile, Page, PageId, PagedFile, SharedCachedFile,
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
                    let mut out = Page::zeroed();
                    for id in trace(0xC0FFEE + t as u64, READS) {
                        pool.read_page(&mut cur, PageId(id), &mut out).unwrap();
                        assert_eq!(
                            &out.bytes()[..8],
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

    // Every access is either a pool hit or a charged miss; the atomic
    // totals must account for all of them exactly.
    let (hits, misses) = pool.hit_stats();
    assert_eq!(hits + misses, (THREADS * READS) as u64);

    let global = pool.stats().snapshot();
    assert_eq!(global.page_reads, misses);
    assert_eq!(
        global.sequential_reads + global.random_reads,
        global.page_reads
    );

    // Per-cursor miss counts sum to the global miss count, and the global
    // simulated elapsed time equals the sum of per-session time (all costs
    // are whole microseconds, so both sums are exact).
    let cursor_reads: u64 = cursors.iter().map(|c| c.stats().page_reads).sum();
    let cursor_elapsed: f64 = cursors.iter().map(|c| c.stats().elapsed_us).sum();
    assert_eq!(cursor_reads, global.page_reads);
    assert!((cursor_elapsed - global.elapsed_us).abs() < 1e-6);
    assert!(misses >= 16, "cold pool must miss at least once per frame");
    assert!(hits > 0, "shared pool must produce cross-session hits");
}

#[test]
fn single_shard_matches_cached_file_on_same_trace() {
    const CAPACITY: usize = 12;
    let model = DiskModel::PAPER_ERA;
    let shared = SharedCachedFile::from_mem(mem_file(), model, CAPACITY, 1);
    let mut cursor = IoCursor::new();

    // Baseline: the reference single-threaded pool over a fresh simulated disk
    // (head position starts unset, matching a fresh IoCursor).
    let mut baseline = CachedFile::new(
        hdov_storage::SimulatedDisk::new(mem_file(), model),
        CAPACITY,
    );
    baseline.invalidate(); // construction wrote nothing, but be explicit

    let mut shared_out = Page::zeroed();
    let mut base_out = Page::zeroed();
    for (step, id) in trace(0xDEAD_BEEF, 4_000).into_iter().enumerate() {
        shared
            .read_page(&mut cursor, PageId(id), &mut shared_out)
            .unwrap();
        baseline.read_page(PageId(id), &mut base_out).unwrap();
        assert_eq!(shared_out, base_out, "contents diverged at step {step}");
        assert_eq!(
            shared.hit_stats(),
            baseline.pool_stats(),
            "hit/miss accounting diverged at step {step} (eviction order differs)"
        );
    }

    // Simulated cost model agrees exactly: same misses, same seek/transfer
    // split, same elapsed time.
    let disk_stats = baseline.inner().stats();
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
fn atomic_totals_equal_shard_sums() {
    const THREADS: usize = 4;
    let pool = SharedCachedFile::from_mem(mem_file(), DiskModel::MODERN_SSD, 24, 6);
    assert_eq!(pool.shard_count(), 6);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = &pool;
            s.spawn(move || {
                let mut cur = IoCursor::new();
                let mut out = Page::zeroed();
                for id in trace(42 + t as u64, 1_500) {
                    pool.read_page(&mut cur, PageId(id), &mut out).unwrap();
                }
            });
        }
    });

    let per_shard = pool.per_shard_hit_stats();
    let shard_hits: u64 = per_shard.iter().map(|(h, _)| h).sum();
    let shard_misses: u64 = per_shard.iter().map(|(_, m)| m).sum();
    assert_eq!(
        (shard_hits, shard_misses),
        pool.hit_stats(),
        "atomic totals must equal the sum of per-shard LRU counters"
    );
    assert_eq!(pool.hit_stats().0 + pool.hit_stats().1, 4 * 1_500);
    // Striping by `page % shards` must spread a uniform trace over every
    // shard.
    assert!(per_shard.iter().all(|(h, m)| h + m > 0));
}
