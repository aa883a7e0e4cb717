//! Served sessions must agree with the single-user `HdovEnvironment` session:
//! identical result entries and traversal counts on every scheme, identical
//! answers from any number of concurrent sessions, and the batched V-page
//! prefetch must not change answers — only costs.

use hdov_core::{
    DeltaSearch, HdovBuildConfig, HdovEnvironment, PoolConfig, Query, QueryResult, ResultKey,
    SearchScratch, StorageScheme,
};
use hdov_scene::{CityConfig, Scene};
use hdov_visibility::{CellGridConfig, CellId};

fn scene() -> Scene {
    CityConfig::tiny().seed(4).generate()
}

fn env(scene: &Scene, scheme: StorageScheme) -> HdovEnvironment {
    let grid_cfg = CellGridConfig::for_scene(scene).with_resolution(3, 3);
    HdovEnvironment::build(scene, &grid_cfg, HdovBuildConfig::fast_test(), scheme).unwrap()
}

fn keyed(r: &QueryResult) -> Vec<(ResultKey, usize, u64, u64, bool)> {
    r.entries()
        .iter()
        .map(|e| (e.key, e.level, e.polygons, e.bytes, e.cached))
        .collect()
}

#[test]
fn shared_path_matches_mutable_path_on_all_schemes() {
    let scene = scene();
    for scheme in StorageScheme::all() {
        let mut mutable = env(&scene, scheme);
        let cells: Vec<CellId> = (0..mutable.grid().cell_count() as CellId).collect();
        let etas = [0.0, 0.001, 0.01];

        // Reference answers from the single-user session.
        let mut want = Vec::new();
        for &cell in &cells {
            for &eta in &etas {
                let (r, s) = mutable.query(Query::new(cell, eta)).unwrap();
                want.push((keyed(&r), s.nodes_visited, s.vpages_fetched));
            }
        }

        let shared = mutable.into_shared(PoolConfig::default());
        for prefetch in [false, true] {
            let mut ctx = shared.session();
            let mut scratch = SearchScratch::new();
            let mut i = 0;
            for &cell in &cells {
                for &eta in &etas {
                    let q = Query {
                        prefetch,
                        ..Query::new(cell, eta)
                    };
                    let s = shared.search(&mut ctx, &mut scratch, q).unwrap();
                    let r = scratch.result();
                    let (want_r, want_nodes, want_vpages) = &want[i];
                    assert_eq!(
                        &keyed(r),
                        want_r,
                        "{scheme} cell {cell} eta {eta} prefetch {prefetch}: entries diverged"
                    );
                    assert_eq!(s.nodes_visited, *want_nodes, "{scheme} nodes_visited");
                    assert_eq!(s.vpages_fetched, *want_vpages, "{scheme} vpages_fetched");
                    i += 1;
                }
            }
        }
    }
}

#[test]
fn concurrent_sessions_agree_with_sequential() {
    let scene = scene();
    let mutable = env(&scene, StorageScheme::IndexedVertical);
    let shared = mutable.into_shared(PoolConfig::default());
    let cells: Vec<CellId> = (0..shared.grid().cell_count() as CellId).collect();

    // Sequential reference on the shared path itself.
    let mut ctx = shared.session();
    let want: Vec<_> = cells
        .iter()
        .map(|&c| keyed(&shared.query_cell(&mut ctx, c, 0.005).unwrap().0))
        .collect();

    std::thread::scope(|s| {
        for t in 0..4 {
            let shared = &shared;
            let cells = &cells;
            let want = &want;
            s.spawn(move || {
                let mut ctx = shared.session();
                // Each thread walks the cells starting at a different
                // offset, so sessions interleave across cells.
                for i in 0..cells.len() {
                    let j = (i + t) % cells.len();
                    let (r, _) = shared.query_cell(&mut ctx, cells[j], 0.005).unwrap();
                    assert_eq!(keyed(&r), want[j], "thread {t} cell {} diverged", cells[j]);
                }
            });
        }
    });

    let (hits, misses) = shared.pool_hit_stats();
    assert!(hits > 0, "4 sessions over the same cells must share pages");
    assert!(misses > 0);
}

#[test]
fn prefetch_batches_vpage_reads_into_sequential_runs() {
    let scene = scene();
    let shared = env(&scene, StorageScheme::Vertical).into_shared(PoolConfig {
        capacity_pages: 256,
        shards: 4,
        ..PoolConfig::default()
    });
    let busiest = (0..shared.grid().cell_count() as CellId)
        .max_by_key(|&c| shared.dov_table().visible_count(c))
        .unwrap();

    // Cold pools, no prefetch: V-page fetches pointer-chase in recursion
    // order.
    let baseline = shared.fork_with_private_pools();
    let mut ctx = baseline.session();
    let mut scratch = SearchScratch::new();
    let q = Query::new(busiest, 0.0);
    let cold = baseline.search(&mut ctx, &mut scratch, q).unwrap();

    // Cold pools, with prefetch: one ascending run over the cell's V-pages.
    let batched = shared.fork_with_private_pools();
    let mut ctx = batched.session();
    let q = Query {
        prefetch: true,
        ..q
    };
    let warm = batched.search(&mut ctx, &mut scratch, q).unwrap();

    assert!(
        warm.vstore_io.sequential_reads >= cold.vstore_io.sequential_reads,
        "batched run lost sequentiality: {warm:?} vs {cold:?}"
    );
    assert!(
        warm.vstore_io.elapsed_us <= cold.vstore_io.elapsed_us,
        "batched V-page I/O must not cost more: {} vs {} us",
        warm.vstore_io.elapsed_us,
        cold.vstore_io.elapsed_us
    );
}

#[test]
fn delta_queries_match_between_paths() {
    let scene = scene();
    let mut mutable = env(&scene, StorageScheme::Vertical);
    let path: Vec<_> = {
        let r = scene.viewpoint_region();
        (0..6)
            .map(|i| {
                let t = i as f64 / 5.0;
                r.min + (r.max - r.min) * t
            })
            .collect()
    };

    let mut delta = DeltaSearch::new();
    let mut want = Vec::new();
    for &vp in &path {
        let q = Query {
            resident: Some(&delta),
            ..Query::new(mutable.cell_of(vp), 0.004)
        };
        let (r, _) = mutable.query(q).unwrap();
        let sum = delta.apply(&r);
        want.push((keyed(&r), sum));
    }

    let shared = mutable.into_shared(PoolConfig::default());
    let mut ctx = shared.session();
    let mut scratch = SearchScratch::new();
    let mut delta = DeltaSearch::new();
    for (i, &vp) in path.iter().enumerate() {
        let (_, sum) = shared
            .query_delta_into(&mut ctx, &mut scratch, vp, 0.004, &mut delta)
            .unwrap();
        assert_eq!(
            keyed(scratch.result()),
            want[i].0,
            "frame {i} entries diverged"
        );
        assert_eq!(sum, want[i].1, "frame {i} delta summary diverged");
    }
}

#[test]
fn fork_shares_data_but_not_pool_state() {
    let scene = scene();
    let shared = env(&scene, StorageScheme::IndexedVertical).into_shared(PoolConfig::default());
    let mut ctx = shared.session();
    let (r0, _) = shared.query_cell(&mut ctx, 0, 0.003).unwrap();
    assert!(shared.pool_hit_stats().1 > 0);

    let fork = shared.fork_with_private_pools();
    assert_eq!(fork.pool_hit_stats(), (0, 0), "fork must start cold");
    let mut ctx = fork.session();
    let (r1, _) = fork.query_cell(&mut ctx, 0, 0.003).unwrap();
    assert_eq!(keyed(&r0), keyed(&r1));
}

#[test]
fn prefetch_cell_makes_vpage_fetches_free() {
    let scene = scene();
    let shared = env(&scene, StorageScheme::Vertical).into_shared(PoolConfig {
        capacity_pages: 512,
        shards: 8,
        ..PoolConfig::default()
    });
    // Warm the next cell from a scratch context, as the session server's
    // motion-vector prefetch does.
    let mut scratch = shared.session();
    let pages = shared.prefetch_cell(&mut scratch, 1).unwrap();
    assert!(pages > 0, "cell 1 should have V-pages");

    // The session's own query now hits the pool for every V-page.
    let mut ctx = shared.session();
    let (_, stats) = shared.query_cell(&mut ctx, 1, 0.002).unwrap();
    let vstore_reads = stats.vstore_io.page_reads;
    // The flip (index segment) still costs reads, but the V-pages are
    // pool-resident: total vstore misses must be at most the segment pages
    // (prefetch inside query_cell touches only pooled pages).
    assert!(
        vstore_reads <= 1 + ctx.index_cur.stats().page_reads,
        "V-page reads should be pool hits after prefetch, got {stats:?}"
    );
}
