//! Criterion microbenchmarks of the core operations behind the paper's
//! experiments: R-tree window queries, HDoV threshold search per storage
//! scheme, the naïve baseline, DoV cell estimation, mesh simplification, and
//! LoD selection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdov_core::{HdovBuildConfig, HdovEnvironment, Query, StorageScheme};
use hdov_geom::{Aabb, Vec3};
use hdov_mesh::{generate, simplify};
use hdov_rtree::{RTree, SplitMethod};
use hdov_scene::CityConfig;
use hdov_storage::MemPagedFile;
use hdov_visibility::{Bvh, CellGridConfig, DovConfig, DovTable};
use std::hint::black_box;

fn bench_scene() -> hdov_scene::Scene {
    CityConfig::small().seed(42).generate()
}

fn rtree_window_query(c: &mut Criterion) {
    let scene = bench_scene();
    let mut tree = RTree::with_fanout(MemPagedFile::new(), SplitMethod::AngTanLinear, 16).unwrap();
    for o in scene.objects() {
        tree.insert(o.mbr, o.id).unwrap();
    }
    let center = scene.bounds().center();
    let q = Aabb::from_center_half_extent(center, Vec3::new(100.0, 100.0, 100.0));
    c.bench_function("rtree/window_query_200m", |b| {
        b.iter(|| black_box(tree.window_query(black_box(&q)).unwrap().len()))
    });
}

fn hdov_search_by_scheme(c: &mut Criterion) {
    let scene = bench_scene();
    let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(8, 8);
    let cfg = HdovBuildConfig {
        dov: DovConfig {
            rays_per_viewpoint: 1024,
            viewpoints_per_cell: 3,
            seed: 1,
        },
        ..Default::default()
    };
    let vp = scene.bounds().center();
    let mut group = c.benchmark_group("hdov/search_eta0.001");
    for scheme in StorageScheme::all() {
        let mut env = HdovEnvironment::build(&scene, &grid_cfg, cfg.clone(), scheme).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(scheme), &(), |b, _| {
            b.iter(|| {
                let q = Query::new(env.cell_of(black_box(vp)), 0.001);
                black_box(env.query(q).unwrap().0.total_polygons())
            })
        });
    }
    group.finish();
}

fn naive_vs_hdov(c: &mut Criterion) {
    let scene = bench_scene();
    let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(8, 8);
    let cfg = HdovBuildConfig {
        dov: DovConfig {
            rays_per_viewpoint: 1024,
            viewpoints_per_cell: 3,
            seed: 1,
        },
        ..Default::default()
    };
    let mut env =
        HdovEnvironment::build(&scene, &grid_cfg, cfg, StorageScheme::IndexedVertical).unwrap();
    let vp = scene.bounds().center();
    c.bench_function("hdov/naive_query", |b| {
        b.iter(|| black_box(env.query_naive(black_box(vp)).unwrap().0.total_polygons()))
    });
}

fn dov_estimation(c: &mut Criterion) {
    let scene = bench_scene();
    let boxes: Vec<Aabb> = scene.objects().iter().map(|o| o.mbr).collect();
    let bvh = Bvh::build(boxes, Some(0.0));
    let dirs = hdov_geom::sampling::random_sphere(1024, 5);
    let origin = scene.viewpoint_region().center();
    c.bench_function("dov/first_hit_1024_rays", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for d in &dirs {
                if matches!(
                    bvh.first_hit(&hdov_geom::Ray::new(origin, *d)),
                    hdov_visibility::bvh::Hit::Object { .. }
                ) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });

    let grid = CellGridConfig::for_scene(&scene)
        .with_resolution(2, 2)
        .build();
    c.bench_function("dov/table_2x2_cells", |b| {
        b.iter(|| {
            black_box(DovTable::compute(
                &scene,
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
    let scene = bench_scene();
    let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(8, 8);
    let cfg = HdovBuildConfig {
        dov: DovConfig {
            rays_per_viewpoint: 1024,
            viewpoints_per_cell: 3,
            seed: 1,
        },
        ..Default::default()
    };
    let mut env =
        HdovEnvironment::build(&scene, &grid_cfg, cfg, StorageScheme::IndexedVertical).unwrap();
    let eye = scene.viewpoint_region().center();
    let frustum = hdov_geom::Frustum::new(eye, Vec3::X, Vec3::Z, 1.2, 1.6, 0.5, 5000.0);
    c.bench_function("hdov/prioritized_search", |b| {
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
}

fn lod_selection(c: &mut Criterion) {
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
    c.bench_function("lod/select_level", |b| {
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
              prioritized_search, dov_estimation, mesh_simplification, lod_selection
}
criterion_main!(benches);
