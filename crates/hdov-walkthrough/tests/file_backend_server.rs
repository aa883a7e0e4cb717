//! Session server over a **file-backed** scene: the whole serving stack —
//! shared pools, motion prefetch, multi-threaded session replay — runs on
//! stores relocated to real pread-backed files, and every simulated
//! outcome matches the in-memory twin exactly.

use hdov_core::{HdovBuildConfig, HdovEnvironment, PoolConfig, StorageScheme};
use hdov_scene::CityConfig;
use hdov_storage::StorageBackend;
use hdov_visibility::CellGridConfig;
use hdov_walkthrough::{ServerConfig, Session, SessionKind, SessionOutcome, SessionServer};

fn build_env(backend: &StorageBackend) -> hdov_core::SharedEnvironment {
    let scene = CityConfig::tiny().seed(19).generate();
    let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(4, 4);
    let mut env = HdovEnvironment::build(
        &scene,
        &grid_cfg,
        HdovBuildConfig::fast_test(),
        StorageScheme::IndexedVertical,
    )
    .unwrap();
    env.relocate(backend).unwrap();
    env.into_shared(PoolConfig::default())
}

fn sessions() -> Vec<Session> {
    let scene = CityConfig::tiny().seed(19).generate();
    (0..4)
        .map(|i| {
            Session::record(
                scene.viewpoint_region(),
                SessionKind::all()[i % 3],
                30,
                101 + i as u64,
            )
        })
        .collect()
}

/// The deterministic face of a session outcome (everything but wall time).
fn digest(o: &SessionOutcome) -> (usize, Vec<u64>, u64, u64, u64) {
    (
        o.session,
        o.search_ms.iter().map(|ms| ms.to_bits()).collect(),
        o.total_polygons,
        o.page_reads,
        o.prefetched_pages,
    )
}

#[test]
fn server_outcomes_identical_on_file_backends() {
    let dir = std::env::temp_dir().join(format!("hdov_server_backend_{}", std::process::id()));
    let sessions = sessions();
    let cfg = ServerConfig::default();

    // Single-threaded reference run on the in-memory twin (one thread keeps
    // pool interleaving, hence simulated charges, deterministic).
    let mem_env = build_env(&StorageBackend::Mem);
    let mem = SessionServer::new(&mem_env, cfg).run(&sessions, 1).unwrap();
    let mem_digest: Vec<_> = mem.sessions.iter().map(digest).collect();
    assert!(mem.page_reads() > 0);

    let env = build_env(&StorageBackend::file(&dir));
    let report = SessionServer::new(&env, cfg).run(&sessions, 1).unwrap();
    let filed: Vec<_> = report.sessions.iter().map(digest).collect();
    assert_eq!(
        mem_digest, filed,
        "simulated serving outcomes diverged on the file backend"
    );

    // Multi-threaded replay over the same file-backed stores: answers stay
    // correct (polygons are order-independent) and nothing panics while
    // four sessions hammer the store files concurrently.
    let mt = SessionServer::new(&env, cfg).run(&sessions, 4).unwrap();
    let mut polys: Vec<u64> = mt.sessions.iter().map(|o| o.total_polygons).collect();
    let mut want: Vec<u64> = mem.sessions.iter().map(|o| o.total_polygons).collect();
    polys.sort_unstable();
    want.sort_unstable();
    assert_eq!(
        polys, want,
        "concurrency changed answers on the file backend"
    );
    assert!(mt.simulated_qps() > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}
