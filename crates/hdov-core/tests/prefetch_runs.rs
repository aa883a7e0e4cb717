//! Vectored-prefetch accounting: on a file backend, a cold
//! [`SharedVStore::prefetch_cell`] must issue exactly **one** physical read
//! per contiguous V-page run — `madvise(WILLNEED)` per run on the mmap
//! path, one `pread` per run on the pread path — never one per page.
//!
//! Lives in its own integration-test binary because it asserts on the
//! process-global observability recorder (like `obs_wiring`).

use hdov_core::{PoolConfig, SessionCtx, StorageScheme, VEntry, VPage, VPageCodec};
use hdov_storage::{DiskModel, FileMode, StorageBackend};

/// Visibility data wide enough that one cell's V-pages span several disk
/// pages: 160 nodes, all visible in cell 0 with 6-entry V-pages.
fn sample() -> (Vec<u16>, Vec<Vec<(u32, VPage)>>) {
    let n_nodes = 160u32;
    let counts: Vec<u16> = (0..n_nodes).map(|_| 6).collect();
    let page = |base: f32| {
        VPage::new(
            (0..6)
                .map(|i| VEntry {
                    dov: base + i as f32 * 0.01,
                    nvo: i + 1,
                })
                .collect(),
        )
    };
    let cells = vec![
        (0..n_nodes).map(|n| (n, page(0.1))).collect(),
        (0..n_nodes).step_by(7).map(|n| (n, page(0.2))).collect(),
    ];
    (counts, cells)
}

#[test]
fn cold_prefetch_issues_one_physical_read_per_run() {
    let dir = std::env::temp_dir().join(format!("hdov_prefetch_runs_{}", std::process::id()));
    let (counts, cells) = sample();
    for scheme in [StorageScheme::Vertical, StorageScheme::IndexedVertical] {
        for mode in [FileMode::Mmap, FileMode::Pread] {
            let backend = StorageBackend::File {
                dir: dir.join(format!("{scheme}_{mode:?}")),
                mode,
                replicas: 1,
            };
            let (store, _) = scheme
                .build(&counts, &cells, DiskModel::PAPER_ERA, VPageCodec::Delta)
                .unwrap();
            let shared = store
                .relocated(&backend)
                .unwrap()
                .with_pools(PoolConfig::default());
            let mut ctx = SessionCtx::new();
            shared.enter_cell(&mut ctx, 0).unwrap();

            hdov_obs::reset();
            hdov_obs::enable();
            let pages = shared.prefetch_cell(&mut ctx).unwrap();
            hdov_obs::disable();
            let snap = hdov_obs::snapshot("prefetch_runs");
            hdov_obs::reset();

            let runs = snap.counters["prefetch_runs"];
            let phys = snap.counters["phys_reads"];
            assert!(pages > 1, "{scheme} cell 0 must span several disk pages");
            assert!(
                runs >= 1 && runs <= pages,
                "{scheme}/{mode:?}: runs {runs} outside 1..={pages}"
            );
            assert_eq!(
                phys, runs,
                "{scheme}/{mode:?}: a cold run must cost exactly one physical read"
            );
            assert!(
                runs < pages,
                "{scheme}/{mode:?}: coalescing must merge consecutive pages \
                 ({runs} runs for {pages} pages)"
            );
        }

        // Mem backend: same prefetch, zero physical reads by definition.
        let (store, _) = scheme
            .build(&counts, &cells, DiskModel::PAPER_ERA, VPageCodec::Delta)
            .unwrap();
        let shared = store
            .relocated(&StorageBackend::Mem)
            .unwrap()
            .with_pools(PoolConfig::default());
        let mut ctx = SessionCtx::new();
        shared.enter_cell(&mut ctx, 0).unwrap();
        hdov_obs::reset();
        hdov_obs::enable();
        let pages = shared.prefetch_cell(&mut ctx).unwrap();
        hdov_obs::disable();
        let snap = hdov_obs::snapshot("prefetch_runs_mem");
        hdov_obs::reset();
        assert!(pages > 1);
        assert!(snap.counters["prefetch_runs"] >= 1);
        assert!(
            !snap.counters.contains_key("phys_reads"),
            "{scheme}/mem: the in-memory twin must not report physical reads"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
