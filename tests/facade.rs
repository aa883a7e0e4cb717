//! End-to-end tests through the `hdov` facade crate — the full pipeline a
//! downstream user would run.

use hdov::prelude::*;
use hdov::review::ReviewConfig;
use hdov::walkthrough::{run_session, ReviewWalkthrough};

fn small_env(scheme: StorageScheme) -> (Scene, HdovEnvironment) {
    let scene = CityConfig::tiny().seed(99).generate();
    let cells = CellGridConfig::for_scene(&scene).with_resolution(3, 3);
    let mut cfg = HdovBuildConfig::fast_test();
    cfg.threads = 2;
    let env = HdovEnvironment::build(&scene, &cells, cfg, scheme).unwrap();
    (scene, env)
}

#[test]
fn full_pipeline_through_prelude() {
    let (scene, mut env) = small_env(StorageScheme::IndexedVertical);
    let viewpoint = scene.bounds().center();
    let result = env
        .query(Query::new(env.cell_of(viewpoint), 0.001))
        .unwrap()
        .0;
    assert!(!result.entries().is_empty());
    assert!(result.total_polygons() > 0);

    let (result2, stats) = env
        .query(Query::new(env.cell_of(viewpoint), 0.001))
        .unwrap();
    assert_eq!(result.total_polygons(), result2.total_polygons());
    assert!(stats.search_time_ms() > 0.0);
    assert!(stats.total_io().page_reads > 0);
}

#[test]
fn all_schemes_usable_from_facade() {
    for scheme in StorageScheme::all() {
        let (scene, mut env) = small_env(scheme);
        let r = env
            .query(Query::new(env.cell_of(scene.bounds().center()), 0.002))
            .unwrap()
            .0;
        assert!(!r.entries().is_empty(), "{scheme} empty");
        assert!(env.vstore().storage_bytes() > 0);
        assert_eq!(env.scheme(), scheme);
    }
}

#[test]
fn walkthrough_pipeline_through_facade() {
    let (scene, env) = small_env(StorageScheme::IndexedVertical);
    let mut visual = VisualSystem::new(env, 0.005).unwrap();
    let review = ReviewSystem::build(
        &scene,
        ReviewConfig {
            box_size: 120.0,
            fanout: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let mut review = ReviewWalkthrough::new(
        review,
        visual.env().dov_table_shared(),
        visual.env().grid_shared(),
    );
    let session = Session::record(scene.viewpoint_region(), SessionKind::Turning, 40, 1);
    let mv: WalkthroughMetrics = run_session(&mut visual, &session).unwrap();
    let mr: WalkthroughMetrics = run_session(&mut review, &session).unwrap();
    assert_eq!(mv.frames.len(), 40);
    assert_eq!(mr.frames.len(), 40);
    // VISUAL never misses anything visible; boxed REVIEW on a tiny city may
    // or may not, but its coverage can't exceed VISUAL's.
    assert!(mv.avg_dov_coverage() >= mr.avg_dov_coverage() - 1e-9);
}

#[test]
fn disk_and_stats_types_compose() {
    // The storage substrate is usable stand-alone through the facade.
    use hdov::storage::{DiskModel, MemPagedFile, Page, PageId, PagedFile, SimulatedDisk};
    let mut disk = SimulatedDisk::new(MemPagedFile::new(), DiskModel::PAPER_ERA);
    let id = disk.append_page(&Page::from_bytes(b"facade")).unwrap();
    let mut out = Page::zeroed();
    disk.read_page(id, &mut out).unwrap();
    assert_eq!(&out.bytes()[..6], b"facade");
    let stats: IoStats = disk.stats();
    assert_eq!(stats.page_reads, 1);
    assert_eq!(stats.page_writes, 1);
    assert_eq!(id, PageId(0));
    assert_eq!(PAGE_SIZE, 4096);
}

#[test]
fn deterministic_rebuild_same_results() {
    let (scene_a, mut env_a) = small_env(StorageScheme::Vertical);
    let (scene_b, mut env_b) = small_env(StorageScheme::Vertical);
    assert_eq!(scene_a.objects(), scene_b.objects());
    let vp = scene_a.bounds().center();
    let ra = env_a.query(Query::new(env_a.cell_of(vp), 0.001)).unwrap().0;
    let rb = env_b.query(Query::new(env_b.cell_of(vp), 0.001)).unwrap().0;
    assert_eq!(ra.entries(), rb.entries());
}

#[test]
fn geometry_reexports_work() {
    let bb = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
    let f = Frustum::new(Vec3::ZERO, Vec3::X, Vec3::Z, 1.0, 1.0, 0.1, 100.0);
    assert!(f.intersects_aabb(&Aabb::from_center_half_extent(
        Vec3::new(10.0, 0.0, 0.0),
        Vec3::splat(1.0)
    )));
    let ray = Ray::new(Vec3::new(-1.0, 1.0, 1.0), Vec3::X);
    assert!(bb.ray_hit(&ray).is_some());
    let mesh: TriMesh = hdov::mesh::generate::icosphere(1.0, 1);
    let chain = LodChain::build(mesh, 2, 0.3);
    assert_eq!(chain.len(), 2);
}

#[test]
fn empty_scene_is_handled_end_to_end() {
    // A scene with zero objects must build and answer (empty) queries.
    let scene = Scene::from_meshes(vec![], 2, 0.5).expect("empty scene is valid");
    assert!(scene.is_empty());
    let cells = CellGridConfig {
        region: Aabb::new(Vec3::new(0.0, 0.0, 1.5), Vec3::new(10.0, 10.0, 2.0)),
        nx: 2,
        ny: 2,
    };
    let mut env = HdovEnvironment::build(
        &scene,
        &cells,
        HdovBuildConfig::fast_test(),
        StorageScheme::IndexedVertical,
    )
    .unwrap();
    let r = env
        .query(Query::new(env.cell_of(Vec3::new(5.0, 5.0, 1.7)), 0.001))
        .unwrap()
        .0;
    assert!(r.entries().is_empty());
    assert_eq!(r.total_polygons(), 0);
    let (naive, _) = env.query_naive(Vec3::new(5.0, 5.0, 1.7)).unwrap();
    assert!(naive.entries().is_empty());
}

#[test]
fn single_object_scene() {
    let mesh = hdov::mesh::generate::icosphere(3.0, 1);
    let scene = Scene::from_meshes(vec![mesh], 2, 0.4).unwrap();
    let cells = CellGridConfig {
        region: Aabb::new(Vec3::new(-10.0, -10.0, 1.5), Vec3::new(10.0, 10.0, 2.0)),
        nx: 2,
        ny: 2,
    };
    let mut env = HdovEnvironment::build(
        &scene,
        &cells,
        HdovBuildConfig::fast_test(),
        StorageScheme::Vertical,
    )
    .unwrap();
    let r = env
        .query(Query::new(env.cell_of(Vec3::new(-8.0, 0.0, 1.7)), 0.0))
        .unwrap()
        .0;
    assert_eq!(r.object_count(), 1, "the sphere must be visible");
}
