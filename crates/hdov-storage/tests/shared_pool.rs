//! Satellite tests for the lock-striped shared buffer pool:
//!
//! 1. scoped-thread stress under contention (correct contents, exact
//!    accounting: every access is one hit or one miss, and the sessions'
//!    cursors charged exactly the misses),
//! 2. single-shard [`SharedCachedFile`] matches an in-test reference (an
//!    [`LruCache`] of page ids over a [`SimulatedDisk`]) on hit/miss,
//!    eviction and simulated-cost accounting for the same access trace,
//! 3. recycled frame buffers: a frame a session still holds is never
//!    recycled, and a failed miss leaks none of its bytes into the next,
//! 4. twin classes on pread stores: a miss on a page whose bytes repeat
//!    elsewhere in the store admits the store's frame of that class with
//!    no physical read, and is charged and counted exactly as the read; it
//!    does so cold, after evictions and in a capacity-0 pool, every pool
//!    and fork over the store shares the one frame and its one decoded
//!    overlay, evicting it frees no spare buffer, armed faults send it back
//!    to the file, and rot in a class member's own copy is left to the
//!    scrubber,
//! 5. mem misses share the store's frames: a miss admits the store's one
//!    frame of the page's bytes (equal pages on different ids share it) in
//!    every pool and fork, with one decoded overlay per frame that
//!    outlives eviction, charged and counted exactly like a copying miss;
//!    armed faults send every miss back to a copy, corruption is still
//!    caught and failed over, and a shared frame never becomes a spare, so
//!    no later miss writes into store bytes.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use hdov_storage::{
    verify_pool, DiskModel, FaultPlan, Frame, FrozenPages, IoCursor, LruCache, MemPagedFile, Page,
    PageId, PagedFile, ScrubConfig, Scrubber, SharedCachedFile, SimulatedDisk, StorageError,
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
    // One single-page shard: every miss evicts the previous frame. An
    // armed plan that injects nothing makes every miss copy into a pool
    // buffer (a mem miss would otherwise share the store's).
    let pool = SharedCachedFile::from_mem(mem_file(), DiskModel::PAPER_ERA, 1, 1);
    pool.arm_faults(&FaultPlan::default());
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
    // Page 5 will be served bit-flipped; with faults armed, every miss
    // copies into a pool buffer.
    pool.arm_faults(&FaultPlan::corrupt_one(5));
    let mut cursor = IoCursor::new();
    // Fill the pool and evict once, so the shard holds a spare buffer.
    for id in 0..3 {
        pool.read_frame(&mut cursor, PageId(id)).unwrap();
    }
    let charged = cursor.stats().page_reads;
    // Page 5's bytes land in the spare, fail the checksum, and must go
    // nowhere.
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

/// One twin test at a time on the process-global obs recorder (the other
/// tests here run on mem stores, which never count physical reads or twin
/// copies).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with obs recording and returns its `(phys_reads, twin_copies)`.
fn io_counts(f: impl FnOnce()) -> (u64, u64) {
    hdov_obs::reset();
    hdov_obs::enable();
    f();
    hdov_obs::disable();
    let snap = hdov_obs::snapshot("twins");
    hdov_obs::reset();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    (counter("phys_reads"), counter("twin_copies"))
}

const TWIN_PAGES: u64 = 16;

/// The tag in the first 8 bytes of page `id` of the twin store: pages
/// `8..12` repeat pages `0..4`, and every other page is unique.
fn twin_tag(id: u64) -> u64 {
    if (8..12).contains(&id) {
        id - 8
    } else {
        id
    }
}

/// Writes a `TWIN_PAGES`-page store under `dir` as `name` (and as
/// `name.r1` when `replica`), page `id` tagged `tag(id)`, and opens it.
fn store(dir: &Path, name: &str, tag: fn(u64) -> u64, replica: bool) -> FrozenPages {
    std::fs::create_dir_all(dir).unwrap();
    let mut f = MemPagedFile::new();
    for id in 0..TWIN_PAGES {
        f.append_page(&Page::from_bytes(&tag(id).to_le_bytes()))
            .unwrap();
    }
    let mut paths = vec![dir.join(format!("{name}.hdov"))];
    if replica {
        paths.push(dir.join(format!("{name}.r1.hdov")));
    }
    FrozenPages::from_mem(f)
        .write_replicated(&paths, 1, 0)
        .unwrap();
    let extra = paths[1..]
        .iter()
        .map(|p| FrozenPages::open_pread(p).unwrap())
        .collect();
    FrozenPages::open_pread(&paths[0])
        .unwrap()
        .with_replicas(extra)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdov_twins_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn tag_of(pool: &SharedCachedFile, cursor: &mut IoCursor, id: u64) -> u64 {
    let frame = pool.read_frame(cursor, PageId(id)).unwrap();
    u64::from_le_bytes(frame.bytes()[..8].try_into().unwrap())
}

#[test]
fn a_class_miss_shares_without_a_read_and_is_charged_the_same() {
    let _g = serial();
    let dir = tmp("copy");
    let twins = SharedCachedFile::new(
        store(&dir, "twins", twin_tag, false),
        DiskModel::PAPER_ERA,
        12,
        2,
    );
    let unique = SharedCachedFile::new(
        store(&dir, "unique", |id| id, false),
        DiskModel::PAPER_ERA,
        12,
        2,
    );
    let (mut ct, mut cu) = (IoCursor::new(), IoCursor::new());
    let same_accounting = |ct: &IoCursor, cu: &IoCursor, step: &str| {
        assert_eq!(ct.stats(), cu.stats(), "{step}");
        assert_eq!(twins.hit_stats(), unique.hit_stats(), "{step}");
        for id in (0..TWIN_PAGES).map(PageId) {
            assert_eq!(twins.contains(id), unique.contains(id), "{step}: {id}");
        }
    };

    // Cold: page 3 shares its bytes with page 11, so even its first miss
    // shares the class frame and reads nothing.
    assert!(twins.miss_shares(PageId(3)) && !unique.miss_shares(PageId(3)));
    assert_eq!(
        io_counts(|| assert_eq!(tag_of(&twins, &mut ct, 3), 3)),
        (0, 1)
    );
    tag_of(&unique, &mut cu, 3);
    same_accounting(&ct, &cu, "cold class miss");
    assert_eq!(
        io_counts(|| assert_eq!(tag_of(&twins, &mut ct, 11), 3)),
        (0, 1)
    );
    tag_of(&unique, &mut cu, 11);
    same_accounting(&ct, &cu, "twin miss");

    // Page 5 repeats nowhere: its miss reads the file.
    assert!(!twins.miss_shares(PageId(5)));
    assert_eq!(
        io_counts(|| assert_eq!(tag_of(&twins, &mut ct, 5), 5)),
        (1, 0)
    );
    tag_of(&unique, &mut cu, 5);
    same_accounting(&ct, &cu, "unique miss");

    // Runs: 0..4 shares the class frames of its three misses, no read;
    // 4..8 reads once.
    assert_eq!(
        io_counts(|| twins.read_run(&mut ct, PageId(0), 4).unwrap()),
        (0, 3)
    );
    unique.read_run(&mut cu, PageId(0), 4).unwrap();
    same_accounting(&ct, &cu, "class run");
    assert_eq!(
        io_counts(|| twins.warm_run(&mut ct, PageId(4), 4).unwrap()),
        (1, 0)
    );
    unique.warm_run(&mut cu, PageId(4), 4).unwrap();
    same_accounting(&ct, &cu, "unique run");
    for id in 0..8 {
        assert_eq!(tag_of(&twins, &mut ct, id), id);
        tag_of(&unique, &mut cu, id);
    }
    same_accounting(&ct, &cu, "run hits");

    // The run 8..16 shares for 8, 9 and 10, hits 11, and starts its one read
    // at 12, its first miss outside a class.
    assert_eq!(
        io_counts(|| twins.read_run(&mut ct, PageId(8), 8).unwrap()),
        (1, 3)
    );
    unique.read_run(&mut cu, PageId(8), 8).unwrap();
    same_accounting(&ct, &cu, "mixed run");
    for id in 8..TWIN_PAGES {
        assert_eq!(tag_of(&twins, &mut ct, id), twin_tag(id));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evicted_twins_and_capacity_0_pools_share_but_armed_faults_read_the_file() {
    let _g = serial();
    let dir = tmp("evicted");
    let data = store(&dir, "twins", twin_tag, false);
    let counts = |pool: &SharedCachedFile, cur: &mut IoCursor, id: u64| {
        io_counts(|| assert_eq!(tag_of(pool, cur, id), twin_tag(id)))
    };

    // One two-frame shard. Pages 3 and 11 are twins.
    let pool = SharedCachedFile::new(data.clone(), DiskModel::PAPER_ERA, 2, 1);
    let mut cur = IoCursor::new();
    assert_eq!(counts(&pool, &mut cur, 3), (0, 1));
    assert_eq!(counts(&pool, &mut cur, 11), (0, 1));
    // With both evicted, a miss on either still shares the class frame.
    assert_eq!(counts(&pool, &mut cur, 4), (1, 0));
    assert_eq!(counts(&pool, &mut cur, 5), (1, 0));
    assert!(!pool.contains(PageId(3)) && !pool.contains(PageId(11)));
    assert!(pool.miss_shares(PageId(3)) && pool.miss_shares(PageId(11)));
    assert_eq!(counts(&pool, &mut cur, 3), (0, 1));
    // So does one whose twin a session holds past its eviction.
    let held = pool.read_frame(&mut cur, PageId(3)).unwrap();
    assert_eq!(counts(&pool, &mut cur, 6), (1, 0));
    assert_eq!(counts(&pool, &mut cur, 7), (1, 0));
    assert!(!pool.contains(PageId(3)));
    assert_eq!(counts(&pool, &mut cur, 11), (0, 1));
    drop(held);

    // A capacity-0 pool keeps nothing, and shares all the same.
    let none = SharedCachedFile::new(data.clone(), DiskModel::PAPER_ERA, 0, 1);
    let mut cur = IoCursor::new();
    assert_eq!(counts(&none, &mut cur, 3), (0, 1));
    assert_eq!(counts(&none, &mut cur, 11), (0, 1));
    assert_eq!(counts(&none, &mut cur, 3), (0, 1));
    assert_eq!(counts(&none, &mut cur, 5), (1, 0));
    assert_eq!(none.hit_stats(), (0, 4));

    // Faults armed (a plan that injects nothing): every miss draws from
    // the fault stream, so the class frame is not shared.
    let pool = SharedCachedFile::new(data, DiskModel::PAPER_ERA, 8, 2);
    let mut cur = IoCursor::new();
    tag_of(&pool, &mut cur, 3);
    let injector = pool.arm_faults(&FaultPlan::default());
    assert!(!pool.miss_shares(PageId(11)));
    assert_eq!(counts(&pool, &mut cur, 11), (1, 0));
    assert_eq!(injector.reads(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rot_in_a_class_members_copy_is_served_clean_and_left_to_the_scrubber() {
    let _g = serial();
    let dir = tmp("rot");
    let pool = SharedCachedFile::new(
        store(&dir, "twins", twin_tag, true),
        DiskModel::PAPER_ERA,
        8,
        2,
    );
    let mut cur = IoCursor::new();
    tag_of(&pool, &mut cur, 3);
    // Rot page 11 on the primary's disk after open, behind the pool.
    {
        use std::os::unix::fs::FileExt;
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("twins.hdov"))
            .unwrap();
        let at = hdov_storage::frozen::StoreLayout::page_offset(11) + 100;
        f.write_all_at(&[0xEE], at).unwrap();
    }
    assert_eq!(verify_pool(&pool).unwrap(), vec![(0, 11)]);

    // The miss shares its class frame: trusted bytes, no failure seen.
    hdov_obs::reset();
    hdov_obs::enable();
    let frame = pool.read_frame(&mut cur, PageId(11)).unwrap();
    hdov_obs::disable();
    let snap = hdov_obs::snapshot("rot");
    hdov_obs::reset();
    let mut want = Page::zeroed();
    want.bytes_mut()[..8].copy_from_slice(&3u64.to_le_bytes());
    assert_eq!(frame.bytes(), want.bytes());
    assert_eq!(snap.counters.get("checksum_failures"), None);
    assert_eq!(snap.counters.get("twin_copies"), Some(&1));
    assert!(
        pool.replica_set().status().is_clean(),
        "no failover, no repair"
    );

    // The scrubber reads the raw file, finds the rot and repairs it.
    let report = Scrubber::new(ScrubConfig::default())
        .scrub_pool(&pool)
        .unwrap();
    assert_eq!((report.corrupt_found, report.repaired), (1, 1));
    assert!(verify_pool(&pool).unwrap().is_empty(), "healed on disk");
    std::fs::remove_dir_all(&dir).ok();
}

/// The store's shared frame of page `id`: its twin class's on pread.
fn shared_frame(data: &FrozenPages, id: u64) -> Arc<Frame> {
    Arc::clone(data.shared(PageId(id)).unwrap().frame())
}

#[test]
fn class_members_share_one_frame_across_pools_and_forks() {
    let _g = serial();
    let dir = tmp("shared_frame");
    let data = store(&dir, "twins", twin_tag, false);
    let a = SharedCachedFile::new(data.clone(), DiskModel::PAPER_ERA, 8, 2);
    let b = SharedCachedFile::new(data.clone(), DiskModel::PAPER_ERA, 8, 2);
    let fork = a.fork();
    let (mut ca, mut cb, mut cf) = (IoCursor::new(), IoCursor::new(), IoCursor::new());
    let class = shared_frame(&data, 3);
    let frames = [
        a.read_frame(&mut ca, PageId(3)).unwrap(),
        a.read_frame(&mut ca, PageId(11)).unwrap(),
        b.read_frame(&mut cb, PageId(11)).unwrap(),
        fork.read_frame(&mut cf, PageId(3)).unwrap(),
    ];
    for frame in &frames {
        assert!(Arc::ptr_eq(frame, &class));
    }
    // A run's class misses admit the same frame; pooled under each
    // member's own id, it then serves hits.
    fork.read_run(&mut cf, PageId(8), 4).unwrap();
    for (member, twin) in (8..12).zip(0..4) {
        let frame = fork.read_frame(&mut cf, PageId(member)).unwrap();
        assert!(Arc::ptr_eq(&frame, &shared_frame(&data, twin)), "{member}");
    }
    assert_eq!(fork.hit_stats(), (4, 5));
    // A page that repeats nowhere is copied into a frame of each pool.
    let (x, y) = (
        a.read_frame(&mut ca, PageId(5)).unwrap(),
        b.read_frame(&mut cb, PageId(5)).unwrap(),
    );
    assert!(!Arc::ptr_eq(&x, &y));
    assert!(data.shared(PageId(5)).is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_class_overlay_is_decoded_once_across_members_and_outlives_eviction() {
    let _g = serial();
    let dir = tmp("overlay");
    let data = store(&dir, "twins", twin_tag, false);
    // One single-frame shard: every miss evicts the previous frame.
    let a = SharedCachedFile::new(data.clone(), DiskModel::PAPER_ERA, 1, 1);
    let b = a.fork();
    let (mut ca, mut cb) = (IoCursor::new(), IoCursor::new());
    let mut decodes = 0;
    let mut decode = |frame: &Frame| -> u64 {
        frame
            .with_overlay(
                |p| {
                    decodes += 1;
                    Ok(u64::from_le_bytes(p[..8].try_into().unwrap()))
                },
                |v: &u64| *v,
            )
            .unwrap()
    };
    assert_eq!(decode(&a.read_frame(&mut ca, PageId(3)).unwrap()), 3);
    assert_eq!(decode(&b.read_frame(&mut cb, PageId(11)).unwrap()), 3);
    // Page 3 is evicted from `a` and missed again: the class frame comes
    // back with its overlay, which the store kept.
    assert_eq!(decode(&a.read_frame(&mut ca, PageId(4)).unwrap()), 4);
    assert!(!a.contains(PageId(3)));
    let again = a.read_frame(&mut ca, PageId(3)).unwrap();
    assert!(again.has_overlay());
    assert_eq!(decode(&again), 3);
    assert_eq!(decodes, 2, "one decode for the class, one for page 4");
    assert_eq!(a.hit_stats(), (0, 3));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evicting_a_class_frame_frees_no_spare_and_never_overwrites_it() {
    let _g = serial();
    let dir = tmp("no_spare");
    let data = store(&dir, "twins", twin_tag, false);
    let class = shared_frame(&data, 3);
    let bytes = class.bytes().to_vec();
    let pool = SharedCachedFile::new(data.clone(), DiskModel::PAPER_ERA, 1, 1);
    let mut cur = IoCursor::new();
    // Class misses and copied misses, alternating, each evicting the last.
    for round in 0..3 {
        for id in [3, 5, 11, 6, 0, 7] {
            let frame = pool.read_frame(&mut cur, PageId(id)).unwrap();
            assert_eq!(&frame.bytes()[..8], &twin_tag(id).to_le_bytes(), "{round}");
            assert_eq!(class.bytes(), &bytes[..], "round {round}, page {id}");
        }
    }
    assert_eq!(pool.hit_stats(), (0, 18));
    // With the pool gone, only the store and this test hold the frame.
    drop(pool);
    assert_eq!(Arc::strong_count(&class), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn with_faults_armed_class_misses_read_the_file() {
    let _g = serial();
    let dir = tmp("faulted");
    let data = store(&dir, "twins", twin_tag, false);
    let pool = SharedCachedFile::new(data.clone(), DiskModel::PAPER_ERA, 8, 2);
    let injector = pool.arm_faults(&FaultPlan::default());
    let mut cur = IoCursor::new();
    for id in [3, 11] {
        assert!(!pool.miss_shares(PageId(id)));
        let (frame, counts) = {
            let mut frame = None;
            let counts = io_counts(|| frame = Some(pool.read_frame(&mut cur, PageId(id)).unwrap()));
            (frame.unwrap(), counts)
        };
        assert_eq!(counts, (1, 0), "page {id}");
        assert!(!Arc::ptr_eq(&frame, &shared_frame(&data, id)));
        assert_eq!(&frame.bytes()[..8], &3u64.to_le_bytes());
    }
    // A run over the class pages fetches each miss on its own.
    assert_eq!(
        io_counts(|| pool.read_run(&mut cur, PageId(8), 3).unwrap()),
        (3, 0)
    );
    assert_eq!(injector.reads(), 5);
    // Disarming stops injection, not the fault path: misses still read.
    injector.disarm();
    assert!(!pool.miss_shares(PageId(0)));
    std::fs::remove_dir_all(&dir).ok();
}

/// A mem store of `TWIN_PAGES` pages tagged by [`twin_tag`]: pages `8..12`
/// share the interned buffers of pages `0..4`.
fn twin_mem() -> FrozenPages {
    let mut f = MemPagedFile::new();
    for id in 0..TWIN_PAGES {
        f.append_page(&Page::from_bytes(&twin_tag(id).to_le_bytes()))
            .unwrap();
    }
    FrozenPages::from_mem(f)
}

/// Whether `frame` is the mem store's shared frame of page `id`, not a
/// copy of its bytes.
fn in_store(frame: &Arc<Frame>, data: &FrozenPages, id: u64) -> bool {
    Arc::ptr_eq(frame, &shared_frame(data, id))
}

#[test]
fn a_mem_miss_admits_the_stores_shared_frame_in_every_pool_and_fork() {
    let data = twin_mem();
    // Equal pages on different ids share one frame; every page has one.
    assert!(in_store(&shared_frame(&data, 11), &data, 3));
    assert_eq!(data.distinct_pages(), TWIN_PAGES - 4);
    let a = SharedCachedFile::new(data.clone(), DiskModel::PAPER_ERA, 8, 2);
    let b = SharedCachedFile::new(data.clone(), DiskModel::PAPER_ERA, 8, 2);
    let fork = a.fork();
    assert!((0..TWIN_PAGES).all(|id| a.miss_shares(PageId(id))));
    let (mut ca, mut cb, mut cf) = (IoCursor::new(), IoCursor::new(), IoCursor::new());
    let frames = [
        a.read_frame(&mut ca, PageId(3)).unwrap(),
        a.read_frame(&mut ca, PageId(11)).unwrap(),
        b.read_frame(&mut cb, PageId(3)).unwrap(),
        fork.read_frame(&mut cf, PageId(11)).unwrap(),
    ];
    for frame in &frames {
        assert!(in_store(frame, &data, 3));
        assert_eq!(&frame.bytes()[..8], &3u64.to_le_bytes());
    }
    // Runs and warms share too; a unique page's frame is its own.
    fork.read_run(&mut cf, PageId(4), 4).unwrap();
    b.warm_run(&mut cb, PageId(8), 4).unwrap();
    for id in 4..8 {
        let frame = fork.read_frame(&mut cf, PageId(id)).unwrap();
        assert!(in_store(&frame, &data, id), "{id}");
        assert!(!in_store(&frame, &data, id + 1), "{id}");
    }
    for id in 8..12 {
        let frame = b.read_frame(&mut cb, PageId(id)).unwrap();
        assert!(in_store(&frame, &data, id - 8), "{id}");
    }
    assert_eq!(fork.hit_stats(), (4, 5));
    assert_eq!(b.hit_stats(), (4, 5));
}

#[test]
fn mem_shared_misses_account_exactly_like_copying_misses() {
    let data = twin_mem();
    // Capacity 5 over 16 pages: the trace below evicts constantly.
    let shared = SharedCachedFile::new(data.clone(), DiskModel::PAPER_ERA, 5, 2);
    let copying = SharedCachedFile::new(data.clone(), DiskModel::PAPER_ERA, 5, 2);
    // An armed plan that injects nothing: every miss copies through it.
    let injector = copying.arm_faults(&FaultPlan::default());
    let (mut cs, mut cc) = (IoCursor::new(), IoCursor::new());
    let mut state = 0x5EED;
    for step in 0..600 {
        let first = splitmix(&mut state) % TWIN_PAGES;
        let len = 1 + splitmix(&mut state) % 4;
        let len = len.min(TWIN_PAGES - first);
        match step % 3 {
            0 => {
                let s = shared.read_frame(&mut cs, PageId(first)).unwrap();
                let c = copying.read_frame(&mut cc, PageId(first)).unwrap();
                assert_eq!(s.bytes(), c.bytes(), "step {step}");
                assert!(in_store(&s, &data, first));
                assert!(!in_store(&c, &data, first));
            }
            1 => {
                shared.read_run(&mut cs, PageId(first), len).unwrap();
                copying.read_run(&mut cc, PageId(first), len).unwrap();
            }
            _ => {
                shared.warm_run(&mut cs, PageId(first), len).unwrap();
                copying.warm_run(&mut cc, PageId(first), len).unwrap();
            }
        }
        assert_eq!(cs.stats(), cc.stats(), "step {step}");
        assert_eq!(shared.hit_stats(), copying.hit_stats(), "step {step}");
        for id in (0..TWIN_PAGES).map(PageId) {
            assert_eq!(
                shared.contains(id),
                copying.contains(id),
                "step {step}: {id}"
            );
        }
    }
    let (hits, misses) = shared.hit_stats();
    assert!(hits > 0 && misses > 100, "({hits}, {misses})");
    assert_eq!(injector.reads(), misses, "every copying miss read once");
}

#[test]
fn with_faults_armed_mem_misses_copy_and_corruption_fails_over() {
    let data = twin_mem();
    let before: Vec<Vec<u8>> = (0..TWIN_PAGES)
        .map(|id| shared_frame(&data, id).bytes().to_vec())
        .collect();

    // Unreplicated: page 3 is served bit-flipped, fails the checksum and
    // never enters the pool; its twin 11 is copied clean.
    let pool = SharedCachedFile::new(data.clone(), DiskModel::PAPER_ERA, 8, 2);
    pool.arm_faults(&FaultPlan::corrupt_one(3));
    let mut cur = IoCursor::new();
    let err = pool.read_frame(&mut cur, PageId(3)).unwrap_err();
    assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    assert!(!pool.contains(PageId(3)));
    let twin = pool.read_frame(&mut cur, PageId(11)).unwrap();
    assert!(!in_store(&twin, &data, 11));
    assert_eq!(twin.bytes(), shared_frame(&data, 11).bytes());
    assert_eq!(pool.hit_stats(), (0, 1));

    // Replicated: the corrupt primary copy fails over to the replica, and
    // the pooled frame is a verified copy, not the store's frame.
    let pool = SharedCachedFile::new(data.clone(), DiskModel::PAPER_ERA, 8, 2).with_replicas(2);
    let injector = pool.arm_replica_faults(0, &FaultPlan::corrupt_one(3));
    let mut cur = IoCursor::new();
    let frame = pool.read_frame(&mut cur, PageId(3)).unwrap();
    assert_eq!(injector.injected(), 1);
    assert_eq!(pool.replica_set().status().failover_reads, 1);
    assert!(!in_store(&frame, &data, 3));
    assert_eq!(&frame.bytes()[..8], &3u64.to_le_bytes());
    assert_eq!(cur.stats().page_reads, 1);

    // The fault wrote into pool buffers only.
    for (id, want) in (0..TWIN_PAGES).zip(&before) {
        assert_eq!(shared_frame(&data, id).bytes(), &want[..], "page {id}");
    }
}

#[test]
fn evicting_a_mem_shared_frame_frees_no_spare_and_no_miss_writes_store_bytes() {
    let data = twin_mem();
    let before: Vec<Vec<u8>> = (0..TWIN_PAGES)
        .map(|id| shared_frame(&data, id).bytes().to_vec())
        .collect();
    // Holders of each shared frame: the store, once per distinct content.
    let holders = |id: u64| Arc::strong_count(&shared_frame(&data, id)) - 1;
    assert!((0..TWIN_PAGES).all(|id| holders(id) == 1));
    // One single-frame shard: every miss evicts the previous frame, which
    // no session holds, so the pool may recycle its buffer if it owns it.
    let pool = SharedCachedFile::new(data.clone(), DiskModel::PAPER_ERA, 1, 1);
    let mut cur = IoCursor::new();
    for id in 0..TWIN_PAGES {
        tag_of(&pool, &mut cur, id);
    }
    // Every evicted frame went back to the store alone: none is a spare.
    // Page 15, still pooled, has one holder more.
    for id in 0..TWIN_PAGES {
        assert_eq!(holders(id), 1 + usize::from(id == TWIN_PAGES - 1), "{id}");
    }
    // Copying misses (faults armed, none injected) fill pool buffers only,
    // alternating with the shared frames they evict.
    pool.arm_faults(&FaultPlan::default());
    for round in 0..3 {
        for id in 0..TWIN_PAGES {
            let frame = pool.read_frame(&mut cur, PageId(id)).unwrap();
            assert!(!in_store(&frame, &data, id));
            assert_eq!(&frame.bytes()[..8], &twin_tag(id).to_le_bytes(), "{round}");
        }
    }
    for (id, want) in (0..TWIN_PAGES).zip(&before) {
        assert_eq!(shared_frame(&data, id).bytes(), &want[..], "page {id}");
    }
    assert_eq!(pool.hit_stats(), (0, 4 * TWIN_PAGES));
    drop(pool);
    assert!((0..TWIN_PAGES).all(|id| holders(id) == 1));
}
