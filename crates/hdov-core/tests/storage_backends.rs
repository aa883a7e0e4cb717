//! Backend-equivalence suite for the real storage engine: every scheme,
//! relocated onto the pread file backend, must answer byte-for-
//! byte like its in-memory twin — same V-pages, same simulated I/O charges
//! — and corrupted store files must fail fast at open, before any query
//! runs.

use hdov_core::{
    HdovBuildConfig, HdovEnvironment, PoolConfig, Query, SearchScratch, SessionCtx, SharedVStore,
    StorageScheme, VEntry, VPage, VPageCodec,
};
use hdov_scene::CityConfig;
use hdov_storage::{DiskModel, FrozenPages, IoStats, StorageBackend};
use hdov_visibility::{CellGridConfig, CellId};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hdov_backends_{}_{tag}", std::process::id()))
}

/// Synthetic sparse visibility data: `n_nodes` nodes, 4 cells with
/// different visible sets (including one empty cell).
fn sample(n_nodes: u32) -> (Vec<u16>, Vec<Vec<(u32, VPage)>>) {
    let counts: Vec<u16> = (0..n_nodes).map(|n| 2 + (n % 4) as u16).collect();
    let mk = |ordinal: u32, base: f32| {
        let c = 2 + (ordinal % 4) as usize;
        VPage::new(
            (0..c)
                .map(|i| VEntry {
                    dov: base + i as f32 * 0.01,
                    nvo: i as u32 + 1,
                })
                .collect(),
        )
    };
    let cells = vec![
        (0..n_nodes)
            .filter(|n| n % 2 == 0)
            .map(|n| (n, mk(n, 0.1)))
            .collect(),
        (0..n_nodes)
            .filter(|n| n % 3 == 0)
            .map(|n| (n, mk(n, 0.2)))
            .collect(),
        (0..n_nodes.min(5)).map(|n| (n, mk(n, 0.3))).collect(),
        Vec::new(),
    ];
    (counts, cells)
}

/// A delta-codec store plus a session whose cursors start at the build's
/// heads.
fn build(
    scheme: StorageScheme,
    counts: &[u16],
    cells: &[Vec<(u32, VPage)>],
    model: DiskModel,
) -> (SharedVStore, SessionCtx) {
    let (store, [index_cur, vpage_cur]) = scheme
        .build(counts, cells, model, VPageCodec::Delta)
        .unwrap();
    let mut ctx = SessionCtx::new();
    ctx.index_cur = index_cur;
    ctx.vpage_cur = vpage_cur;
    (store, ctx)
}

/// The session's visibility-store I/O (V-page index + V-pages).
fn io(ctx: &SessionCtx) -> IoStats {
    ctx.index_cur.stats() + ctx.vpage_cur.stats()
}

#[test]
fn every_scheme_answers_identically_on_file_backends() {
    let dir = tmp_dir("schemes");
    let (counts, cells) = sample(40);
    for scheme in StorageScheme::all() {
        let backend = StorageBackend::file(dir.join(scheme.to_string()));
        let (mem, mut mem_ctx) = build(scheme, &counts, &cells, DiskModel::PAPER_ERA);
        let (filed, mut filed_ctx) = build(scheme, &counts, &cells, DiskModel::PAPER_ERA);
        let filed = filed.relocated(&backend).unwrap();
        for cid in 0..cells.len() as CellId {
            mem.enter_cell(&mut mem_ctx, cid).unwrap();
            filed.enter_cell(&mut filed_ctx, cid).unwrap();
            for n in 0..40u32 {
                assert_eq!(
                    mem.fetch(&mut mem_ctx, n).unwrap(),
                    filed.fetch(&mut filed_ctx, n).unwrap(),
                    "{scheme} node {n} cell {cid}"
                );
            }
        }
        assert_eq!(
            io(&mem_ctx),
            io(&filed_ctx),
            "{scheme}: simulated I/O must not depend on the backend"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shared_search_identical_across_backends() {
    let dir = tmp_dir("shared");
    let scene = CityConfig::tiny().seed(11).generate();
    let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(3, 3);

    // Reference run on the in-memory backend.
    let run = |backend: Option<StorageBackend>| -> Vec<(f64, u64, u64)> {
        let mut env = HdovEnvironment::build(
            &scene,
            &grid_cfg,
            HdovBuildConfig::fast_test(),
            StorageScheme::IndexedVertical,
        )
        .unwrap();
        if let Some(b) = &backend {
            env.relocate(b).unwrap();
        }
        let shared = env.into_shared(PoolConfig::default());
        let mut ctx = shared.session();
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        for prefetch in [false, true] {
            for cell in 0..shared.grid().cell_count() as CellId {
                for eta in [0.0, 0.004] {
                    let q = Query {
                        prefetch,
                        ..Query::new(cell, eta)
                    };
                    let st = shared.search(&mut ctx, &mut scratch, q).unwrap();
                    out.push((
                        st.search_time_ms(),
                        st.total_io().page_reads,
                        scratch.result().total_polygons(),
                    ));
                }
            }
        }
        out
    };

    let mem = run(None);
    let filed = run(Some(StorageBackend::file(&dir)));
    assert_eq!(mem, filed, "shared search must be byte-identical on file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_store_files_fail_fast_for_every_scheme() {
    let dir = tmp_dir("corrupt");
    let (counts, cells) = sample(24);
    for scheme in StorageScheme::all() {
        let store_dir = dir.join(scheme.to_string());
        let (s, _) = build(scheme, &counts, &cells, DiskModel::FREE);
        s.relocated(&StorageBackend::file(&store_dir)).unwrap();
        let mut files = 0;
        for entry in std::fs::read_dir(&store_dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().map(|e| e != "hdov").unwrap_or(true) {
                continue;
            }
            files += 1;
            let bytes = std::fs::read(&path).unwrap();

            // Truncation: the header promises more pages than the file holds.
            let cut = dir.join("truncated.hdov");
            std::fs::write(&cut, &bytes[..bytes.len() - 1]).unwrap();
            let err = FrozenPages::open_pread(&cut).unwrap_err().to_string();
            assert!(
                err.contains("truncated.hdov"),
                "error must carry the path: {err}"
            );

            // Garbage header: wrong magic.
            let mut garbled = bytes.clone();
            garbled[0] ^= 0xFF;
            let bad = dir.join("garbled.hdov");
            std::fs::write(&bad, &garbled).unwrap();
            assert!(FrozenPages::open_pread(&bad).is_err());

            // Flipped data bit: the checksum sidecar catches it at open.
            let mut flipped = bytes.clone();
            let mid = flipped.len() / 2;
            flipped[mid] ^= 0x01;
            let bad = dir.join("flipped.hdov");
            std::fs::write(&bad, &flipped).unwrap();
            assert!(FrozenPages::open_pread(&bad).is_err());
        }
        assert!(files >= 1, "{scheme} relocation must produce store files");
    }
    std::fs::remove_dir_all(&dir).ok();
}
