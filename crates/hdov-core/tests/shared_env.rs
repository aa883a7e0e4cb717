//! Served sessions must agree with the single-user `HdovEnvironment` session:
//! identical result entries and traversal counts on every scheme, identical
//! answers from any number of concurrent sessions, and the batched V-page
//! prefetch must not change answers — only costs. A query probes the V-page
//! pool once per run of records on one disk page, and holds no frame after
//! it returns.

use hdov_core::{
    DeltaSearch, HdovBuildConfig, HdovEnvironment, PoolConfig, Query, QueryResult, ResultKey,
    SearchScratch, SessionCtx, SharedEnvironment, StorageScheme,
};
use hdov_scene::{CityConfig, Scene};
use hdov_storage::{IoCursor, PageId};
use hdov_visibility::{CellGridConfig, CellId};
use std::sync::Arc;

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

/// The cell with the most visible objects.
fn busiest(shared: &SharedEnvironment) -> CellId {
    (0..shared.grid().cell_count() as CellId)
        .max_by_key(|&c| shared.dov_table().visible_count(c))
        .unwrap()
}

/// Appends the V-page records an η = 0 walk of the subtree at `ordinal`
/// reads in `ctx`'s cell, in visit order: Fig. 3 at η = 0 prunes hidden
/// entries and descends every other internal one.
fn walk_records(
    shared: &SharedEnvironment,
    ctx: &mut SessionCtx,
    ordinal: u32,
    out: &mut Vec<u64>,
) {
    let vs = shared.vstore();
    let Some(record) = vs.record_of(ctx, ordinal) else {
        return;
    };
    out.push(record);
    let vpage = vs.fetch(ctx, ordinal).unwrap().unwrap();
    if !vpage.any_visible() {
        return;
    }
    let node = shared
        .tree()
        .read_node(&mut IoCursor::new(), ordinal)
        .unwrap();
    for (entry, ve) in node.entries().zip(&vpage.entries) {
        if ve.dov > 0.0 && !entry.is_object() {
            walk_records(shared, ctx, entry.child_ordinal, out);
        }
    }
}

#[test]
fn served_query_probes_each_vpage_page_once_per_run() {
    let scene = scene();
    for scheme in StorageScheme::all() {
        let shared = env(&scene, scheme).into_shared(PoolConfig::default());
        let cell = busiest(&shared);
        let mut ctx = shared.session();
        shared.query_cell(&mut ctx, cell, 0.0).unwrap(); // warm, in the cell

        let mut records = Vec::new();
        walk_records(
            &shared,
            &mut ctx,
            shared.tree().root_ordinal(),
            &mut records,
        );
        let vpages = shared.vstore().vpages();
        let mut runs: Vec<u64> = records.iter().map(|&r| vpages.disk_page_of(r)).collect();
        runs.dedup();
        let prefetched = shared.prefetch_cell(&mut shared.session(), cell).unwrap();

        let probes = || {
            let (hits, misses) = vpages.pool().hit_stats();
            hits + misses
        };
        let before = probes();
        let (_, stats) = shared.query_cell(&mut ctx, cell, 0.0).unwrap();
        assert_eq!(stats.vpages_fetched, records.len() as u64, "{scheme}");
        assert_eq!(
            probes() - before,
            prefetched + runs.len() as u64,
            "{scheme}: one probe per prefetched page and per page run"
        );
        if scheme != StorageScheme::Horizontal {
            assert!(
                runs.len() < records.len(),
                "{scheme}: clustered records share pages"
            );
        }
    }
}

#[test]
fn fetch_holds_no_frame_after_it_returns() {
    let scene = scene();
    for scheme in StorageScheme::all() {
        let shared = env(&scene, scheme).into_shared(PoolConfig::default());
        let cell = busiest(&shared);
        let mut ctx = shared.session();
        shared.query_cell(&mut ctx, cell, 0.0).unwrap(); // warm, in the cell

        let vs = shared.vstore();
        let root = shared.tree().root_ordinal();
        let record = vs
            .record_of(&ctx, root)
            .expect("the busiest cell sees the root");
        let page = PageId(vs.vpages().disk_page_of(record));
        let frame = vs
            .vpages()
            .pool()
            .read_frame(&mut IoCursor::new(), page)
            .unwrap();
        let held = Arc::strong_count(&frame);
        let by_fetch = vs.fetch(&mut ctx, root).unwrap().unwrap();
        assert_eq!(Arc::strong_count(&frame), held, "{scheme}: fetch");
        let by_read = vs.vpages().read(&mut IoCursor::new(), record).unwrap();
        assert_eq!(Arc::strong_count(&frame), held, "{scheme}: read");
        assert_eq!(by_fetch, by_read);
    }
}
