//! Run-read accounting on file backends.
//!
//! * A cold [`SharedVStore::prefetch_cell`] must issue exactly **one**
//!   physical read per contiguous V-page run — one `pread` per run on the
//!   file backend — never one per page.
//! * A LoD fetch on the pread path reads the LoD's pages as one run: one
//!   `pread` per LoD with at least one pool miss, while probes, charges and
//!   counters stay exactly those of a page-by-page read, with or without
//!   faults armed.
//!
//! Lives in its own integration-test binary because it asserts on the
//! process-global observability recorder (like `obs_wiring`). The tests
//! share that recorder, so they take turns through [`serial`].

use std::sync::{Mutex, MutexGuard};

use hdov_core::{
    HdovBuildConfig, HdovEnvironment, PoolConfig, Query, ResultKey, SearchScratch, SessionCtx,
    SharedEnvironment, StorageScheme, VEntry, VPage, VPageCodec,
};
use hdov_scene::CityConfig;
use hdov_storage::{DiskModel, FaultPlan, IoCursor, PageId, SharedCachedFile, StorageBackend};
use hdov_visibility::{CellGridConfig, CellId};

/// One test at a time on the process-global recorder.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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
    let _g = serial();
    let dir = std::env::temp_dir().join(format!("hdov_prefetch_runs_{}", std::process::id()));
    let (counts, cells) = sample();
    for scheme in [StorageScheme::Vertical, StorageScheme::IndexedVertical] {
        let backend = StorageBackend::file(dir.join(scheme.to_string()));
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
            "{scheme}: runs {runs} outside 1..={pages}"
        );
        assert_eq!(
            phys, runs,
            "{scheme}: a cold run must cost exactly one physical read"
        );
        assert!(
            runs < pages,
            "{scheme}: coalescing must merge consecutive pages \
             ({runs} runs for {pages} pages)"
        );

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

/// A tiny city on a pread store behind small pools, so a trace of queries
/// mixes LoD hits, misses and evictions.
fn pread_env(dir: &std::path::Path) -> SharedEnvironment {
    let scene = CityConfig::tiny().seed(5).generate();
    let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(3, 3);
    let mut built = HdovEnvironment::build(
        &scene,
        &grid_cfg,
        HdovBuildConfig::fast_test(),
        StorageScheme::Vertical,
    )
    .unwrap();
    built.relocate(&StorageBackend::file(dir)).unwrap();
    built.into_shared(PoolConfig {
        capacity_pages: 48,
        shards: 4,
        ..PoolConfig::default()
    })
}

/// The per-page reference for one environment's LoD pools: cold forks of
/// the model and internal-LoD pools, read one `read_frame` per page.
struct PerPage {
    models: SharedCachedFile,
    internal: SharedCachedFile,
    model_cur: IoCursor,
    internal_cur: IoCursor,
}

impl PerPage {
    fn new(env: &SharedEnvironment) -> Self {
        PerPage {
            models: env.models().pool().fork(),
            internal: env.tree().internal_pool().fork(),
            model_cur: IoCursor::new(),
            internal_cur: IoCursor::new(),
        }
    }

    /// Replays the LoD fetches of `scratch`'s answer in emission order,
    /// page by page; returns how many of them missed at least one page.
    fn replay(&mut self, env: &SharedEnvironment, scratch: &SearchScratch) -> u64 {
        let mut with_miss = 0;
        for e in scratch.result().entries() {
            let (pool, cur, h) = match e.key {
                ResultKey::Object(id) => (
                    &self.models,
                    &mut self.model_cur,
                    env.models().store().handle(id, e.level),
                ),
                ResultKey::Internal(ordinal) => (
                    &self.internal,
                    &mut self.internal_cur,
                    env.tree().internal_store().handle(ordinal as u64, e.level),
                ),
            };
            let pages = (h.first_page.0..h.first_page.0 + u64::from(h.pages)).map(PageId);
            if pages.clone().any(|id| !pool.contains(id)) {
                with_miss += 1;
            }
            for id in pages {
                pool.read_frame(cur, id).unwrap();
            }
        }
        with_miss
    }

    /// Asserts the environment's LoD pools and cursors ended exactly where
    /// the page-by-page reference did.
    fn assert_matches(&self, env: &SharedEnvironment, ctx: &SessionCtx, label: &str) {
        for (run, per_page) in [
            (env.models().pool(), &self.models),
            (env.tree().internal_pool(), &self.internal),
        ] {
            assert_eq!(run.hit_stats(), per_page.hit_stats(), "{label}");
            for id in (0..run.page_count()).map(PageId) {
                assert_eq!(run.contains(id), per_page.contains(id), "{label}: {id}");
            }
        }
        assert_eq!(ctx.model_cur.stats(), self.model_cur.stats(), "{label}");
        assert_eq!(
            ctx.internal_cur.stats(),
            self.internal_cur.stats(),
            "{label}"
        );
    }
}

/// The trace: per cell, a query at η = 0, then one at a coarser η (new
/// LoD levels beside pooled pages).
const TRACE: [f64; 2] = [0.0, 0.004];

#[test]
fn lod_runs_cost_one_physical_read_and_account_per_page() {
    let _g = serial();
    let dir = std::env::temp_dir().join(format!("hdov_lod_runs_{}", std::process::id()));
    let env = pread_env(&dir);
    let cells = env.grid().cell_count() as CellId;

    let (mut phys, mut runs, mut expected, mut misses) = (0, 0, 0, 0);
    for cell in 0..cells {
        // Cold pools per cell, so every prefetch run misses.
        let env = env.fork_with_private_pools();
        let mut reference = PerPage::new(&env);
        let mut ctx = env.session();
        let mut scratch = SearchScratch::new();
        hdov_obs::reset();
        hdov_obs::enable();
        env.vstore().enter_cell(&mut ctx, cell).unwrap();
        let entered = env.pool_hit_stats().1;
        env.vstore().prefetch_cell(&mut ctx).unwrap();
        let prefetched = env.pool_hit_stats().1 - entered;
        for eta in TRACE {
            env.search(&mut ctx, &mut scratch, Query::new(cell, eta))
                .unwrap();
            hdov_obs::disable();
            expected += reference.replay(&env, &scratch);
            hdov_obs::enable();
        }
        hdov_obs::disable();
        let snap = hdov_obs::snapshot("lod_runs");
        hdov_obs::reset();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        phys += counter("phys_reads");
        runs += counter("prefetch_runs");
        reference.assert_matches(&env, &ctx, &format!("cell {cell}"));
        // Every node, V-page and index miss outside the prefetch costs one
        // positioned read of its own.
        let all_misses = env.pool_hit_stats().1;
        let lod_misses =
            env.models().pool().hit_stats().1 + env.tree().internal_pool().hit_stats().1;
        expected += all_misses - prefetched - lod_misses;
        misses += all_misses;
    }
    assert!(runs > 0, "the trace must prefetch");
    assert_eq!(
        phys,
        runs + expected,
        "one pread per prefetch run, per node/V-page miss, and per LoD with a miss"
    );
    assert!(
        phys < misses,
        "multi-page LoDs must coalesce ({phys} reads for {misses} misses)"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lod_runs_with_faults_draw_the_per_page_fault_stream() {
    let _g = serial();
    let dir = std::env::temp_dir().join(format!("hdov_lod_faults_{}", std::process::id()));
    let env = pread_env(&dir);
    let plan = FaultPlan {
        fail_every_nth_read: 7,
        latency_spike_rate: 0.2,
        latency_spike_us: 300.0,
        seed: 11,
        ..FaultPlan::default()
    };
    let mut ctx = env.session();
    let mut reference = PerPage::new(&env);
    let injectors = [
        (
            env.models().pool().arm_faults(&plan),
            reference.models.arm_faults(&plan),
        ),
        (
            env.tree().internal_pool().arm_faults(&plan),
            reference.internal.arm_faults(&plan),
        ),
    ];
    let mut scratch = SearchScratch::new();
    for cell in 0..env.grid().cell_count() as CellId {
        for eta in TRACE {
            let q = Query {
                prefetch: true,
                ..Query::new(cell, eta)
            };
            env.search(&mut ctx, &mut scratch, q).unwrap();
            reference.replay(&env, &scratch);
        }
    }
    reference.assert_matches(&env, &ctx, "faults armed");
    let (models, _) = &injectors[0];
    assert!(models.injected() > 0, "the plan must fire");
    for (run, per_page) in &injectors {
        assert_eq!(run.reads(), per_page.reads());
        assert_eq!(run.injected(), per_page.injected());
    }
    std::fs::remove_dir_all(&dir).ok();
}
