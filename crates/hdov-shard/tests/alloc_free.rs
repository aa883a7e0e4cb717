//! The sharded serving path allocates nothing in steady state: once the
//! shard pools are warm and a visitor lane's buffers have grown to the
//! walk's high-water mark, `ShardRouter::route` — fan-out, every shard
//! sub-walk, the merge into the lane's frame and the fold into its delta
//! resident set — touches no allocator.
//!
//! A counting global allocator needs its own process: this file holds
//! exactly one test, and obs stays disabled (registering a thread-local
//! recorder allocates on first use, and the contract is about the
//! production default).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hdov_core::{HdovBuildConfig, HdovEnvironment, PoolConfig, StorageScheme};
use hdov_scene::CityConfig;
use hdov_shard::{RouterConfig, SessionLane, ShardRouter};
use hdov_visibility::CellGridConfig;
use hdov_walkthrough::{Session, SessionKind};

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
fn steady_state_route_allocates_nothing() {
    assert!(!hdov_obs::is_enabled(), "obs must stay disabled here");
    let scene = CityConfig::tiny().seed(11).generate();
    let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(4, 4);
    // Pools big enough that the steady state is all-hits on every shard.
    let env = HdovEnvironment::build(
        &scene,
        &grid_cfg,
        HdovBuildConfig::fast_test(),
        StorageScheme::IndexedVertical,
    )
    .unwrap()
    .into_shared(PoolConfig {
        capacity_pages: 4096,
        ..PoolConfig::default()
    });
    let region = env.grid().region();
    let walks: Vec<Session> = SessionKind::all()
        .iter()
        .enumerate()
        .map(|(i, &kind)| Session::record(region, kind, 40, 700 + i as u64))
        .collect();

    for shards in [1, 4] {
        let router = ShardRouter::new(&env, shards, RouterConfig::default()).unwrap();
        let mut lane = router.lane();
        // Warm-up: two passes fill every shard's pools and grow the lane's
        // frame slots, merge buffer, merged frame and resident-set maps to
        // the walk's high-water mark.
        for _ in 0..2 {
            route_all(&router, &mut lane, &walks);
        }

        let before = allocations();
        let entries = route_all(&router, &mut lane, &walks);
        let after = allocations();
        assert!(entries > 0, "frames must return entries");
        assert_eq!(
            after - before,
            0,
            "steady-state routed frames allocated ({shards} shards)"
        );
    }
}

/// Routes every frame of `walks` at two η values; returns the number of
/// merged entries.
fn route_all(router: &ShardRouter, lane: &mut SessionLane, walks: &[Session]) -> usize {
    let mut entries = 0;
    for walk in walks {
        for &vp in &walk.viewpoints {
            for eta in [0.0, 0.004] {
                let rs = router.route(lane, vp, eta);
                assert_eq!(rs.degraded_shards, 0);
                entries += lane.merged().entries().len();
            }
        }
    }
    entries
}
