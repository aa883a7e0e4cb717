//! The acceptance criterion of the zero-copy read path: a steady-state
//! `SharedEnvironment::search` over warm pools performs **zero** heap
//! allocations. Every byte the query touches is either a pooled frame
//! (`Arc` clone), a decoded overlay (`Arc` clone), or a buffer reused from
//! `SessionCtx` / `SearchScratch`; a resident set is read in place, and
//! folding each answer into a walk's resident set (`DeltaSearch::apply`)
//! reuses its maps.
//!
//! A counting global allocator needs its own process: this file holds
//! exactly one test, and obs stays disabled (registering a thread-local
//! recorder allocates on first use, and the all-hits contract is about the
//! production default).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hdov_core::{
    DeltaSearch, HdovBuildConfig, HdovEnvironment, PoolConfig, Query, SearchScratch, StorageScheme,
    VPageCodec,
};
use hdov_scene::CityConfig;
use hdov_storage::StorageBackend;
use hdov_visibility::{CellGridConfig, CellId};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_search_allocates_nothing() {
    assert!(!hdov_obs::is_enabled(), "obs must stay disabled here");
    let scene = CityConfig::tiny().seed(5).generate();
    let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(3, 3);
    let store_dir = std::env::temp_dir().join(format!("hdov_alloc_free_{}", std::process::id()));

    // Both wire formats: the Delta codec's batch decode lands in the
    // OnceLock overlay exactly once per pool residency, so an all-hits
    // steady state never decodes (and never allocates) either way.
    for codec in [VPageCodec::Raw, VPageCodec::Delta] {
        for scheme in [StorageScheme::Vertical, StorageScheme::IndexedVertical] {
            // The contract holds on the file backend too: the steady state
            // is all pool hits, which read nothing from the store file.
            for backend in [
                StorageBackend::Mem,
                StorageBackend::file(store_dir.join(format!("{scheme}_{codec:?}"))),
            ] {
                let label = backend.label();
                let cfg = HdovBuildConfig {
                    codec,
                    ..HdovBuildConfig::fast_test()
                };
                // Pools big enough that the steady state is all-hits.
                let mut built = HdovEnvironment::build(&scene, &grid_cfg, cfg, scheme).unwrap();
                built.relocate(&backend).unwrap();
                // replicas: 2 puts the ReplicaSet (failover bitmask, health
                // book) in the read path — it must stay alloc-free too.
                let env = built.into_shared(PoolConfig {
                    capacity_pages: 4096,
                    shards: 8,
                    replicas: 2,
                    ..PoolConfig::default()
                });
                let cells: Vec<CellId> = (0..env.grid().cell_count() as CellId).collect();
                let mut ctx = env.session();
                let mut scratch = SearchScratch::new();
                // A walkthrough's resident set: the answer of the last cell.
                let mut delta = DeltaSearch::new();
                let last = *cells.last().unwrap();
                env.search(&mut ctx, &mut scratch, Query::new(last, 0.004))
                    .unwrap();
                delta.apply(scratch.result());
                // The walk's own resident set, folded after every frame.
                let mut walked = DeltaSearch::new();

                for (prefetch, resident) in [(false, None), (true, None), (true, Some(&delta))] {
                    let query = |cell, eta| Query {
                        resident,
                        prefetch,
                        ..Query::new(cell, eta)
                    };
                    // Warm-up: two full rounds populate the pools and grow every
                    // reused buffer (segments, staging bytes, prefetch list,
                    // result entries) to its per-workload high-water mark.
                    for _ in 0..2 {
                        for &cell in &cells {
                            for eta in [0.0, 0.004] {
                                env.search(&mut ctx, &mut scratch, query(cell, eta))
                                    .unwrap();
                                walked.apply(scratch.result());
                            }
                        }
                    }

                    // Steady state: the same workload must never touch the
                    // allocator — cell flips, prefetch probes, node and V-page
                    // reads, LoD charging, result assembly and the
                    // resident-set fold included.
                    let before = allocations();
                    let mut polygons = 0u64;
                    for &cell in &cells {
                        for eta in [0.0, 0.004] {
                            let stats = env
                                .search(&mut ctx, &mut scratch, query(cell, eta))
                                .unwrap();
                            assert!(stats.nodes_visited > 0);
                            polygons += scratch.result().total_polygons();
                            walked.apply(scratch.result());
                        }
                    }
                    let after = allocations();
                    assert!(polygons > 0, "queries must produce visible polygons");
                    assert_eq!(
                        after - before,
                        0,
                        "steady-state all-hits search allocated ({scheme}, {codec:?}, \
                         backend {label}, prefetch {prefetch}, resident {})",
                        resident.is_some()
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&store_dir).ok();
}
