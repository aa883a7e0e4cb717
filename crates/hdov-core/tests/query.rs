//! Integration tests of the HDoV-tree query stack: search semantics across
//! the three storage schemes, the η trade-off, the naïve baseline, and delta
//! search.

use hdov_core::delta::DeltaSummary;
use hdov_core::{
    DeltaSearch, HdovBuildConfig, HdovEnvironment, PoolConfig, Query, QueryResult, ResultKey,
    SearchStats, SessionCtx, StorageScheme, VPageCodec,
};
use hdov_geom::Vec3;
use hdov_scene::{CityConfig, Scene};
use hdov_visibility::{CellGridConfig, CellId};
use std::collections::{HashMap, HashSet};

fn scene() -> Scene {
    CityConfig::tiny().seed(4).generate()
}

fn env(scene: &Scene, scheme: StorageScheme) -> HdovEnvironment {
    let grid_cfg = CellGridConfig::for_scene(scene).with_resolution(3, 3);
    HdovEnvironment::build(scene, &grid_cfg, HdovBuildConfig::fast_test(), scheme).unwrap()
}

/// One walkthrough frame at `vp`: a query with `delta` as its resident set,
/// whose answer is then folded into `delta`.
fn delta_frame(
    e: &mut HdovEnvironment,
    vp: Vec3,
    eta: f64,
    delta: &mut DeltaSearch,
) -> (QueryResult, SearchStats, DeltaSummary) {
    let q = Query {
        resident: Some(delta),
        ..Query::new(e.cell_of(vp), eta)
    };
    let (r, s) = e.query(q).unwrap();
    let d = delta.apply(&r);
    (r, s, d)
}

fn object_set(r: &QueryResult) -> Vec<(ResultKey, usize)> {
    let mut v: Vec<_> = r.entries().iter().map(|e| (e.key, e.level)).collect();
    v.sort();
    v
}

#[test]
fn all_three_schemes_agree_on_results() {
    let scene = scene();
    let mut envs: Vec<HdovEnvironment> = StorageScheme::all()
        .into_iter()
        .map(|s| env(&scene, s))
        .collect();
    let viewpoints = [
        scene.bounds().center(),
        scene.viewpoint_region().min,
        scene.viewpoint_region().max,
    ];
    for vp in viewpoints {
        for eta in [0.0, 0.001, 0.01] {
            let results: Vec<_> = envs
                .iter_mut()
                .map(|e| object_set(&e.query(Query::new(e.cell_of(vp), eta)).unwrap().0))
                .collect();
            assert_eq!(
                results[0], results[1],
                "horizontal vs vertical at eta={eta}"
            );
            assert_eq!(results[1], results[2], "vertical vs indexed at eta={eta}");
            assert!(!results[0].is_empty(), "empty result at {vp}");
        }
    }
}

#[test]
fn eta_zero_equals_naive_object_set() {
    let scene = scene();
    let mut e = env(&scene, StorageScheme::IndexedVertical);
    let vp = scene.bounds().center();
    let (hdov, _) = e.query(Query::new(e.cell_of(vp), 0.0)).unwrap();
    let (naive, _) = e.query_naive(vp).unwrap();
    // At η = 0 no internal LoD can be used (DoV ≤ 0 is already pruned), so
    // the HDoV result must be exactly the naïve object set, same levels.
    assert_eq!(object_set(&hdov), object_set(&naive));
    assert_eq!(hdov.internal_count(), 0);
}

#[test]
fn raising_eta_never_increases_polygons() {
    let scene = scene();
    let mut e = env(&scene, StorageScheme::IndexedVertical);
    let vp = scene.bounds().center();
    // Internal-LoD snapping makes strict monotonicity impossible in general
    // (an aggregate mesh can carry slightly more polygons than a handful of
    // coarsest object LoDs), so allow small local wiggle but require the
    // broad trend the paper's Fig. 7 shows.
    // The fast-test DoV estimator resolves 1/512 ≈ 0.002, so the η range is
    // scaled up relative to the paper's [0, 0.008].
    let mut prev = u64::MAX;
    let mut first_polys = None;
    let mut last_polys = 0u64;
    let mut first_reads = None;
    let mut last_reads = 0u64;
    for eta in [0.0, 0.001, 0.004, 0.008, 0.02, 0.05, 0.1] {
        let (r, st) = e.query(Query::new(e.cell_of(vp), eta)).unwrap();
        let polys = r.total_polygons();
        assert!(
            polys as f64 <= prev as f64 * 1.25,
            "eta={eta}: polygons {polys} jumped far above previous {prev}"
        );
        first_polys.get_or_insert(polys);
        last_polys = polys;
        prev = polys;
        let reads = st.heavy_io().page_reads;
        first_reads.get_or_insert(reads);
        last_reads = reads;
    }
    assert!(
        last_polys <= first_polys.unwrap(),
        "no overall polygon reduction"
    );
    assert!(
        last_reads <= first_reads.unwrap(),
        "no overall model-I/O reduction"
    );
}

#[test]
fn every_visible_object_is_represented() {
    // Each object with DoV > 0 must appear directly or be covered by an
    // internal LoD of one of its ancestors.
    let scene = scene();
    let mut e = env(&scene, StorageScheme::Vertical);
    let vp = scene.bounds().center();
    let cell = e.cell_of(vp);

    // Ancestor map: object -> set of node ordinals on its root path.
    let mut object_leaf: HashMap<u64, u32> = HashMap::new();
    let n = e.tree().node_count();
    let mut parents: HashMap<u32, u32> = HashMap::new();
    for ord in 0..n {
        let node = e.read_node(ord).unwrap();
        for entry in &node.entries {
            if entry.is_object() {
                object_leaf.insert(entry.child, ord);
            } else {
                parents.insert(entry.child_ordinal, ord);
            }
        }
    }
    let ancestors = |obj: u64| -> HashSet<u32> {
        let mut set = HashSet::new();
        let mut cur = object_leaf[&obj];
        loop {
            set.insert(cur);
            match parents.get(&cur) {
                Some(&p) => cur = p,
                None => break,
            }
        }
        set
    };

    for eta in [0.0, 0.002, 0.02] {
        let (r, _) = e.query(Query::new(cell, eta)).unwrap();
        let direct: HashSet<u64> = r
            .entries()
            .iter()
            .filter_map(|x| match x.key {
                ResultKey::Object(id) => Some(id),
                _ => None,
            })
            .collect();
        let internals: HashSet<u32> = r
            .entries()
            .iter()
            .filter_map(|x| match x.key {
                ResultKey::Internal(o) => Some(o),
                _ => None,
            })
            .collect();
        for &(obj, dov) in e.dov_table().cell(cell) {
            assert!(dov > 0.0);
            let covered = direct.contains(&(obj as u64))
                || ancestors(obj as u64).iter().any(|a| internals.contains(a));
            assert!(
                covered,
                "object {obj} (dov {dov}) unrepresented at eta={eta}"
            );
        }
    }
}

/// Synthetic sparse visibility data in the paper's regime
/// (`N_vnode << N_node`): 600 nodes, 200 cells, ~5 % visible per cell.
fn sparse_store_data() -> (Vec<u16>, Vec<Vec<(u32, hdov_core::VPage)>>) {
    use hdov_core::{VEntry, VPage};
    let n_nodes = 600u32;
    let entry_counts = vec![8u16; n_nodes as usize];
    let cells: Vec<Vec<(u32, VPage)>> = (0..200u32)
        .map(|c| {
            // 30 visible nodes, deterministic pseudo-random per cell.
            let mut picked: Vec<u32> = (0..30)
                .map(|i| (c.wrapping_mul(37).wrapping_add(i * 97)) % n_nodes)
                .collect();
            picked.sort_unstable();
            picked.dedup();
            picked
                .into_iter()
                .map(|o| (o, VPage::new(vec![VEntry { dov: 0.01, nvo: 1 }; 8])))
                .collect()
        })
        .collect();
    (entry_counts, cells)
}

#[test]
fn light_io_cheaper_for_indexed_than_horizontal() {
    // In the sparse regime the horizontal layout is node-major, so the
    // V-pages of one cell's traversal are scattered (one seek each), while
    // the indexed scheme's are clustered per cell (flip + sequential scan).
    use hdov_storage::DiskModel;
    let (counts, cells) = sparse_store_data();
    let session = |scheme: StorageScheme| {
        let (store, [index_cur, vpage_cur]) = scheme
            .build(&counts, &cells, DiskModel::PAPER_ERA, VPageCodec::Delta)
            .unwrap();
        let mut ctx = SessionCtx::new();
        ctx.index_cur = index_cur;
        ctx.vpage_cur = vpage_cur;
        (store, ctx)
    };
    let elapsed =
        |ctx: &SessionCtx| ctx.index_cur.stats().elapsed_us + ctx.vpage_cur.stats().elapsed_us;
    let (h, mut h_ctx) = session(StorageScheme::Horizontal);
    let (iv, mut iv_ctx) = session(StorageScheme::IndexedVertical);
    let (mut us_h, mut us_iv) = (0.0f64, 0.0f64);
    for (c, cell) in cells.iter().enumerate() {
        let (h0, iv0) = (elapsed(&h_ctx), elapsed(&iv_ctx));
        h.enter_cell(&mut h_ctx, c as CellId).unwrap();
        iv.enter_cell(&mut iv_ctx, c as CellId).unwrap();
        // Traversal touches the visible nodes in DFS (ordinal) order.
        for &(ordinal, _) in cell {
            assert!(h.fetch(&mut h_ctx, ordinal).unwrap().is_some());
            assert!(iv.fetch(&mut iv_ctx, ordinal).unwrap().is_some());
        }
        us_h += elapsed(&h_ctx) - h0;
        us_iv += elapsed(&iv_ctx) - iv0;
    }
    assert!(us_h > us_iv, "horizontal {us_h}us !> indexed {us_iv}us");
}

#[test]
fn storage_sizes_ordered_like_table2() {
    use hdov_storage::DiskModel;
    let (counts, cells) = sparse_store_data();
    let bytes: Vec<u64> = StorageScheme::all()
        .into_iter()
        .map(|s| {
            s.build(&counts, &cells, DiskModel::FREE, VPageCodec::Raw)
                .unwrap()
                .0
                .storage_bytes()
        })
        .collect();
    let (bh, bv, biv) = (bytes[0], bytes[1], bytes[2]);
    assert!(bh > bv, "horizontal {bh} !> vertical {bv}");
    assert!(bv > biv, "vertical {bv} !> indexed {biv}");
    // Paper Table 2: horizontal is an order of magnitude above the others.
    assert!(
        bh as f64 > 4.0 * bv as f64,
        "horizontal {bh} not dominant over vertical {bv}"
    );
}

#[test]
fn delta_search_reuses_resident_models() {
    let scene = scene();
    let mut e = env(&scene, StorageScheme::IndexedVertical);
    let vp = scene.bounds().center();
    let mut delta = DeltaSearch::new();

    let (r1, s1, d1) = delta_frame(&mut e, vp, 0.001, &mut delta);
    assert_eq!(d1.retained, 0);
    assert_eq!(d1.added, r1.entries().len());
    assert!(s1.model_io.page_reads + s1.internal_io.page_reads > 0);

    // Identical repeat: everything retained, zero model I/O.
    let (r2, s2, d2) = delta_frame(&mut e, vp, 0.001, &mut delta);
    assert_eq!(d2.added, 0);
    assert_eq!(d2.retained, r2.entries().len());
    assert_eq!(d2.evicted, 0);
    assert_eq!(s2.model_io.page_reads + s2.internal_io.page_reads, 0);
    assert_eq!(r2.fetched_bytes(), 0);
    assert_eq!(object_set(&r1), object_set(&r2));
}

#[test]
fn delta_search_moving_viewpoint_fetches_only_changes() {
    let scene = scene();
    let mut e = env(&scene, StorageScheme::IndexedVertical);
    let region = scene.viewpoint_region();
    let a = region.min.lerp(region.max, 0.3);
    let b = region.min.lerp(region.max, 0.4);
    let mut delta = DeltaSearch::new();
    let (_, _, _) = delta_frame(&mut e, a, 0.001, &mut delta);
    let (r2, s2, d2) = delta_frame(&mut e, b, 0.001, &mut delta);
    assert_eq!(d2.added + d2.retained, r2.entries().len());
    // A small move keeps part of the scene resident (DoV changes can still
    // re-level many models on a coarsely sampled tiny scene).
    assert!(d2.retained > 0, "nothing retained across a small move");
    // Full non-delta query from scratch costs at least as much model I/O.
    let (_, s_full) = e.query(Query::new(e.cell_of(b), 0.001)).unwrap();
    assert!(s_full.heavy_io().page_reads >= s2.heavy_io().page_reads);
}

#[test]
fn internal_lods_engage_at_high_eta() {
    let scene = scene();
    let mut e = env(&scene, StorageScheme::IndexedVertical);
    // A corner viewpoint sees much of the city at small DoV: some η must
    // terminate branches at internal LoDs (exact onset depends on the
    // Eq. 4 guard and the tiny scene's DoV distribution).
    let vp = scene.viewpoint_region().min;
    let engaged = [0.05, 0.1, 0.2, 0.5, 1.0].iter().any(|&eta| {
        e.query(Query::new(e.cell_of(vp), eta))
            .unwrap()
            .0
            .internal_count()
            > 0
    });
    assert!(engaged, "no eta up to 1.0 engaged internal LoDs");
}

#[test]
fn search_stats_are_consistent() {
    let scene = scene();
    let mut e = env(&scene, StorageScheme::Vertical);
    let (r, s) = e
        .query(Query::new(e.cell_of(scene.bounds().center()), 0.001))
        .unwrap();
    assert!(s.nodes_visited >= 1);
    assert!(s.vpages_fetched >= s.nodes_visited);
    let total = s.total_io();
    assert_eq!(
        total.page_reads,
        s.node_io.page_reads
            + s.vstore_io.page_reads
            + s.model_io.page_reads
            + s.internal_io.page_reads
    );
    assert!(s.search_time_ms() > 0.0);
    assert!(s.traversal_time_ms() <= s.search_time_ms());
    assert!(r.total_polygons() > 0);
    assert!(r.captured_dov() > 0.0);
}

#[test]
fn queries_cover_all_cells() {
    let scene = scene();
    let mut e = env(&scene, StorageScheme::IndexedVertical);
    let cells = e.grid().cell_count() as CellId;
    let mut nonempty = 0;
    for c in 0..cells {
        let (r, _) = e.query(Query::new(c, 0.001)).unwrap();
        if !r.entries().is_empty() {
            nonempty += 1;
        }
        // Captured DoV can never exceed the cell's ground-truth total.
        assert!(r.captured_dov() <= e.cell_total_dov(c) + 1e-6);
    }
    assert!(nonempty >= cells / 2, "only {nonempty}/{cells} non-empty");
}

#[test]
fn clamps_outside_viewpoints() {
    let scene = scene();
    let mut e = env(&scene, StorageScheme::IndexedVertical);
    let far = Vec3::new(-1e6, -1e6, 500.0);
    let r = e.query(Query::new(e.cell_of(far), 0.001)).unwrap().0;
    // Clamped to the nearest cell; still answers.
    assert_eq!(e.cell_of(far), 0);
    assert!(!r.entries().is_empty() || e.cell_total_dov(0) == 0.0);
}

#[test]
fn node_cache_preserves_results_and_cuts_node_io() {
    let scene = scene();
    let mut e = env(&scene, StorageScheme::IndexedVertical);
    let vp = scene.bounds().center();
    let (baseline, s0) = e.query(Query::new(e.cell_of(vp), 0.001)).unwrap();
    assert!(s0.node_io.page_reads > 0);

    e.enable_node_cache(256);
    let (warm1, _) = e.query(Query::new(e.cell_of(vp), 0.001)).unwrap();
    let (warm2, s2) = e.query(Query::new(e.cell_of(vp), 0.001)).unwrap();
    assert_eq!(object_set(&baseline), object_set(&warm1));
    assert_eq!(object_set(&baseline), object_set(&warm2));
    // Second warm query: every node comes from the pool.
    assert_eq!(
        s2.node_io.page_reads, 0,
        "warm query still hit the node file"
    );
    let (hits, misses) = e.node_cache_stats().unwrap();
    assert!(hits > 0);
    assert!(misses > 0);

    e.disable_node_cache();
    let (cold, s3) = e.query(Query::new(e.cell_of(vp), 0.001)).unwrap();
    assert_eq!(object_set(&baseline), object_set(&cold));
    assert!(s3.node_io.page_reads > 0, "cache must be fully disabled");
}

#[test]
fn dump_cell_is_consistent_with_table() {
    let scene = scene();
    let mut e = env(&scene, StorageScheme::IndexedVertical);
    let cell = e.cell_of(scene.bounds().center());
    let dump = e.dump_cell(cell).unwrap();
    assert!(dump.starts_with(&format!("cell {cell}:")));
    assert!(dump.contains("node 0 [internal]") || dump.contains("node 0 [leaf]"));
    // Every visible object id appears in the dump.
    for &(obj, _) in e.dov_table().cell(cell) {
        assert!(
            dump.contains(&format!("object {obj} ")),
            "object {obj} missing from dump:\n{dump}"
        );
    }
    // Hidden cells dump tersely.
    if let Some(empty) =
        (0..e.grid().cell_count() as CellId).find(|&c| e.dov_table().visible_count(c) == 0)
    {
        let d = e.dump_cell(empty).unwrap();
        assert!(d.contains("(hidden)") || d.contains("0 visible"));
    }
}

#[test]
fn invalid_queries_are_typed_errors_not_panics() {
    let scene = scene();
    let mut e = env(&scene, StorageScheme::Vertical);
    let mut reference = env(&scene, StorageScheme::Vertical);
    let cells = e.grid().cell_count() as CellId;
    let vp = scene.bounds().center();
    let frustum = hdov_geom::Frustum::new(vp, Vec3::X, Vec3::Z, 1.2, 1.6, 0.5, 5_000.0);
    for q in [
        Query::new(0, -1.0),
        Query::new(0, f64::NAN),
        Query::new(cells, 0.001),
    ] {
        for err in [
            e.query(q).unwrap_err(),
            e.query_prioritized(q, &frustum).unwrap_err(),
        ] {
            assert!(
                matches!(err, hdov_storage::StorageError::InvalidPlan { .. }),
                "{q:?}: {err}"
            );
            assert!(!err.is_transient());
        }
    }
    // Rejected before anything was read: the session's disk heads did not
    // move, so the next query costs exactly what it costs on a fresh one.
    let q = Query::new(e.cell_of(vp), 0.001);
    let (got, got_stats) = e.query(q).unwrap();
    let (want, want_stats) = reference.query(q).unwrap();
    assert_eq!(object_set(&got), object_set(&want));
    assert_eq!(got_stats, want_stats);
}

#[test]
fn out_of_range_cells_are_typed_errors_on_every_entry_point() {
    let scene = scene();
    let mut e = env(&scene, StorageScheme::Vertical);
    let cells = e.grid().cell_count() as CellId;
    let err = e.dump_cell(cells).unwrap_err();
    assert!(
        matches!(err, hdov_storage::StorageError::InvalidPlan { .. }),
        "dump_cell: {err}"
    );
    let shared = env(&scene, StorageScheme::Vertical).into_shared(PoolConfig::default());
    let mut ctx = shared.session();
    let err = shared.prefetch_cell(&mut ctx, cells).unwrap_err();
    assert!(
        matches!(err, hdov_storage::StorageError::InvalidPlan { .. }),
        "prefetch_cell: {err}"
    );
    // Rejected before anything was read or charged.
    assert_eq!(ctx.index_cur.stats(), Default::default());
    assert_eq!(ctx.vpage_cur.stats(), Default::default());
}
