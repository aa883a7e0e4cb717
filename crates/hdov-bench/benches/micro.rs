//! Criterion microbenchmarks of the core operations behind the paper's
//! experiments: R-tree window queries, HDoV threshold search per storage
//! scheme, the naïve baseline, a served same-cell walkthrough frame
//! (unsharded and through the 4-shard router), DoV cell estimation, mesh
//! simplification, the prototype library build, and LoD selection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdov_core::{
    DeltaSearch, HdovBuildConfig, HdovEnvironment, PoolConfig, Query, SearchScratch, StorageScheme,
};
use hdov_geom::{Aabb, Vec3};
use hdov_mesh::{generate, simplify};
use hdov_rtree::{RTree, SplitMethod};
use hdov_scene::{CityConfig, PrototypeLibrary};
use hdov_shard::{RouterConfig, ShardRouter};
use hdov_storage::MemPagedFile;
use hdov_visibility::{CellGridConfig, ColumnGrid, DovConfig, DovTable, Hit};
use std::hint::black_box;
use std::sync::OnceLock;

// Every bench builds its inputs inside its own closure, so a run filtered
// by name (`cargo bench --bench micro -- mesh/`) skips the other builds.

/// The small city every scene-based bench reads, generated on first use.
fn bench_scene() -> &'static hdov_scene::Scene {
    static SCENE: OnceLock<hdov_scene::Scene> = OnceLock::new();
    SCENE.get_or_init(|| CityConfig::small().seed(42).generate())
}

/// The 8×8-cell environment of the search benches over [`bench_scene`].
fn bench_env(scheme: StorageScheme) -> HdovEnvironment {
    let scene = bench_scene();
    let grid_cfg = CellGridConfig::for_scene(scene).with_resolution(8, 8);
    let cfg = HdovBuildConfig {
        dov: DovConfig {
            rays_per_viewpoint: 1024,
            viewpoints_per_cell: 3,
            seed: 1,
        },
        ..Default::default()
    };
    HdovEnvironment::build(scene, &grid_cfg, cfg, scheme).unwrap()
}

fn rtree_window_query(c: &mut Criterion) {
    c.bench_function("rtree/window_query_200m", |b| {
        let scene = bench_scene();
        let mut tree =
            RTree::with_fanout(MemPagedFile::new(), SplitMethod::AngTanLinear, 16).unwrap();
        for o in scene.objects() {
            tree.insert(o.mbr, o.id).unwrap();
        }
        let center = scene.bounds().center();
        let q = Aabb::from_center_half_extent(center, Vec3::new(100.0, 100.0, 100.0));
        b.iter(|| black_box(tree.window_query(black_box(&q)).unwrap().len()))
    });
}

fn hdov_search_by_scheme(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdov/search_eta0.001");
    for scheme in StorageScheme::all() {
        group.bench_with_input(BenchmarkId::from_parameter(scheme), &(), |b, _| {
            let mut env = bench_env(scheme);
            let vp = bench_scene().bounds().center();
            b.iter(|| {
                let q = Query::new(env.cell_of(black_box(vp)), 0.001);
                black_box(env.query(q).unwrap().0.total_polygons())
            })
        });
    }
    group.finish();
}

fn naive_vs_hdov(c: &mut Criterion) {
    c.bench_function("hdov/naive_query", |b| {
        let mut env = bench_env(StorageScheme::IndexedVertical);
        let vp = bench_scene().bounds().center();
        b.iter(|| black_box(env.query_naive(black_box(vp)).unwrap().0.total_polygons()))
    });
}

/// One served walkthrough frame that stays in its cell: the delta query the
/// session server runs per frame, over the default (warm) shared pools.
fn served_same_cell_delta(c: &mut Criterion) {
    c.bench_function("hdov/served_same_cell_delta", |b| {
        let env = bench_env(StorageScheme::IndexedVertical).into_shared(PoolConfig::default());
        let vp = bench_scene().bounds().center();
        let mut ctx = env.session();
        let mut scratch = SearchScratch::new();
        let mut delta = DeltaSearch::new();
        // The first frame flips into the cell and warms the pools.
        env.query_delta_into(&mut ctx, &mut scratch, vp, 0.002, &mut delta)
            .unwrap();
        b.iter(|| {
            let (stats, _) = env
                .query_delta_into(&mut ctx, &mut scratch, black_box(vp), 0.002, &mut delta)
                .unwrap();
            black_box(stats.vpages_fetched)
        })
    });
}

/// The same served frame through the 4-shard router: fan-out, the shard
/// sub-walks, the k-way merge and the resident-set fold, over warm pools.
fn sharded_same_cell(c: &mut Criterion) {
    c.bench_function("shard/route_same_cell", |b| {
        let env = bench_env(StorageScheme::IndexedVertical).into_shared(PoolConfig::default());
        let router = ShardRouter::new(&env, 4, RouterConfig::default()).unwrap();
        let vp = bench_scene().bounds().center();
        let mut lane = router.lane();
        // The first frame flips every shard into the cell and warms its pools.
        router.route(&mut lane, vp, 0.002);
        b.iter(|| black_box(router.route(&mut lane, black_box(vp), 0.002).fanout))
    });
}

fn dov_estimation(c: &mut Criterion) {
    c.bench_function("dov/first_hit_1024_rays", |b| {
        let scene = bench_scene();
        let boxes: Vec<Aabb> = scene.objects().iter().map(|o| o.mbr).collect();
        let caster = ColumnGrid::build(&boxes, Some(0.0));
        // 128 rays from each of 8 sample viewpoints (2 in each of 4 cells of
        // the 8×8 grid): the kind of origins the estimator casts from.
        let grid = CellGridConfig::for_scene(scene)
            .with_resolution(8, 8)
            .build();
        let origins: Vec<Vec3> = [9, 27, 36, 54]
            .into_iter()
            .flat_map(|cell| grid.sample_viewpoints(cell, 2, 1))
            .collect();
        let dirs = hdov_geom::sampling::random_sphere(128, 5);
        b.iter(|| {
            let mut hits = 0usize;
            for &origin in &origins {
                for d in &dirs {
                    if matches!(
                        caster.first_hit(&hdov_geom::Ray::new(origin, *d)),
                        Hit::Object { .. }
                    ) {
                        hits += 1;
                    }
                }
            }
            black_box(hits)
        })
    });

    c.bench_function("dov/table_2x2_cells", |b| {
        let scene = bench_scene();
        let grid = CellGridConfig::for_scene(scene)
            .with_resolution(2, 2)
            .build();
        b.iter(|| {
            black_box(DovTable::compute(
                scene,
                &grid,
                &DovConfig {
                    rays_per_viewpoint: 512,
                    viewpoints_per_cell: 3,
                    seed: 1,
                },
                1,
            ))
        })
    });
}

fn prioritized_search(c: &mut Criterion) {
    c.bench_function("hdov/prioritized_search", |b| {
        let mut env = bench_env(StorageScheme::IndexedVertical);
        let eye = bench_scene().viewpoint_region().center();
        let frustum = hdov_geom::Frustum::new(eye, Vec3::X, Vec3::Z, 1.2, 1.6, 0.5, 5000.0);
        b.iter(|| {
            let q = Query::new(env.cell_of(frustum.eye), 0.001);
            let (o, _) = env.query_prioritized(q, black_box(&frustum)).unwrap();
            black_box(o.result.total_polygons())
        })
    });
}

fn mesh_simplification(c: &mut Criterion) {
    let sphere = generate::icosphere(1.0, 3); // 1280 faces
    c.bench_function("mesh/simplify_1280_to_128", |b| {
        b.iter(|| black_box(simplify(black_box(&sphere), 128).triangle_count()))
    });
    // A three-tier building at the prototypes' detail, to the first LoD's
    // 25 %: flat facades, where nearly every collapse ties at cost 0.
    let building = generate::building(
        Vec3::new(-0.4, -0.45, 0.0),
        Vec3::new(0.4, 0.45, 0.0),
        1.0,
        8,
        1,
    );
    assert_eq!(building.triangle_count(), 2304);
    c.bench_function("mesh/simplify_building_2304", |b| {
        b.iter(|| black_box(simplify(black_box(&building), 576).triangle_count()))
    });
}

fn prototype_library(c: &mut Criterion) {
    let cfg = CityConfig::default_paper().seed(2003).prototypes;
    c.bench_function("scene/prototype_library", |b| {
        b.iter(|| black_box(PrototypeLibrary::build(black_box(&cfg)).len()))
    });
}

fn lod_selection(c: &mut Criterion) {
    c.bench_function("lod/select_level", |b| {
        let scene = bench_scene();
        let mut disk =
            hdov_storage::SimulatedDisk::new(MemPagedFile::new(), hdov_storage::DiskModel::FREE);
        let store = hdov_scene::ModelStore::build(
            &mut disk,
            scene
                .objects()
                .iter()
                .map(|o| scene.prototypes().chain(o.prototype)),
        )
        .unwrap();
        b.iter(|| {
            let mut acc = 0usize;
            for k in 0..100 {
                acc += store.select_level(black_box(3), k as f64 / 100.0);
            }
            black_box(acc)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = rtree_window_query, hdov_search_by_scheme, naive_vs_hdov,
              served_same_cell_delta, sharded_same_cell, prioritized_search, dov_estimation, mesh_simplification,
              prototype_library, lod_selection
}
criterion_main!(benches);
