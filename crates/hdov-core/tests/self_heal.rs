//! Self-healing storage, end to end: replicated file stores under injected
//! on-disk corruption.
//!
//! Properties:
//!
//! (a) a scrub sweep finds **every** injected corruption (arbitrary
//!     bit-flip sets across files, replicas, and pages), repairs each from
//!     the healthy copy, and a fresh-from-disk re-verify of every store
//!     comes back clean;
//! (b) post-scrub answers are byte-identical to the pre-corruption
//!     baseline, with zero degraded frames — degradation stays the last
//!     resort, behind failover and repair;
//! (c) when **every** replica of a page is corrupt there is nothing to
//!     heal: queries absorb the loss as `DegradeEvent`s (never a panic),
//!     the scrubber reports the pairs unrepairable, and they stay
//!     quarantined.
//!
//! Corruption is injected by flipping bytes in the store files *after* the
//! environment is open (opening verifies every page, so earlier flips would
//! be caught at admission, not by the scrubber).

use hdov_core::{
    HdovBuildConfig, HdovEnvironment, PoolConfig, QueryResult, ResultKey, SharedEnvironment,
    StorageScheme,
};
use hdov_scene::{CityConfig, Scene};
use hdov_storage::frozen::{read_layout, StoreLayout};
use hdov_storage::{verify_pool, ScrubConfig, Scrubber, StorageBackend};
use hdov_visibility::{CellGridConfig, CellId};
use proptest::prelude::*;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

const ETA: f64 = 0.002;

fn scene() -> &'static Scene {
    static SCENE: OnceLock<Scene> = OnceLock::new();
    SCENE.get_or_init(|| CityConfig::tiny().seed(23).generate())
}

/// Builds an environment and relocates it onto a 2-replica file backend
/// under a fresh directory. Every read is a positioned read, so the next
/// miss after a repair sees the repaired bytes.
fn replicated_env(scheme: StorageScheme) -> (SharedEnvironment, PathBuf) {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hdov_self_heal_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let grid_cfg = CellGridConfig::for_scene(scene()).with_resolution(3, 3);
    let mut e =
        HdovEnvironment::build(scene(), &grid_cfg, HdovBuildConfig::fast_test(), scheme).unwrap();
    let backend = StorageBackend::from_arg("file:pread@2", &dir).unwrap();
    e.relocate(&backend).unwrap();
    (e.into_shared(PoolConfig::default()), dir)
}

/// Every store file (all replicas of all stores) under `dir`, sorted.
fn store_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "hdov"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no stores under {}", dir.display());
    files
}

fn data_pages(path: &Path) -> u64 {
    let f = std::fs::File::open(path).unwrap();
    read_layout(&f, path).unwrap().page_count
}

/// XORs `mask` into one byte of data page `page` of the store at `path`.
fn flip(path: &Path, page: u64, byte: usize, mask: u8) {
    let f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let off = StoreLayout::page_offset(page) + (byte % hdov_storage::PAGE_SIZE) as u64;
    let mut b = [0u8; 1];
    f.read_exact_at(&mut b, off).unwrap();
    b[0] ^= mask;
    f.write_all_at(&b, off).unwrap();
    f.sync_all().unwrap();
}

fn keyed(r: &QueryResult) -> Vec<(ResultKey, usize, u64, u64)> {
    r.entries()
        .iter()
        .map(|e| (e.key, e.level, e.polygons, e.bytes))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (a) + (b): the scrubber finds and repairs every injected flip; the
    /// stores re-verify clean from disk and answers are byte-identical.
    #[test]
    fn scrub_repairs_every_injected_corruption(
        flips in prop::collection::vec((0u16..u16::MAX, 0u16..u16::MAX, 0u16..u16::MAX, 1u8..0xff), 1..12),
        scheme_idx in 0usize..3,
    ) {
        let scheme = StorageScheme::all()[scheme_idx];
        let (shared, dir) = replicated_env(scheme);
        let cells: Vec<CellId> = (0..shared.grid().cell_count() as CellId).collect();

        // Baseline on a private fork so the main pools stay cold: post-scrub
        // queries below must be served from the repaired disk, not a cache.
        let clean = shared.fork_with_private_pools();
        let mut ctx = clean.session();
        let baseline: Vec<_> = cells
            .iter()
            .map(|&c| keyed(&clean.query_cell(&mut ctx, c, ETA).unwrap().0))
            .collect();

        // Resolve draws to distinct (store, page) targets and corrupt the
        // files in place. Dedup is per *store*, not per file: a second flip
        // on the same page could land on the sibling replica and leave no
        // healthy copy (the negative property below), or cancel the first.
        let files = store_files(&dir);
        let store_of = |p: &Path| {
            let name = p.file_stem().unwrap().to_str().unwrap();
            name.trim_end_matches(char::is_numeric)
                .trim_end_matches(".r")
                .to_string()
        };
        let mut targets = std::collections::BTreeSet::new();
        for &(fsel, psel, byte, mask) in &flips {
            let path = &files[fsel as usize % files.len()];
            let page = psel as u64 % data_pages(path);
            if targets.insert((store_of(path), page)) {
                flip(path, page, byte as usize, mask);
            }
        }

        let report = shared.scrub(&Scrubber::default()).unwrap();
        prop_assert_eq!(report.corrupt_found, targets.len() as u64, "scrub missed a flip");
        prop_assert_eq!(report.repaired, targets.len() as u64, "a flip went unrepaired");
        prop_assert!(report.is_clean());

        // Fresh-from-disk re-verify of every replica of every store.
        let mut bad = Vec::new();
        shared.for_each_pool(|pool| bad.extend(verify_pool(pool).unwrap()));
        prop_assert!(bad.is_empty(), "pages still corrupt after scrub: {:?}", bad);

        let health = shared.storage_health();
        prop_assert_eq!(health.pages_repaired, targets.len() as u64);
        prop_assert_eq!(health.quarantined_pages, 0, "repaired pages must leave quarantine");
        prop_assert_eq!(health.failover_reads, 0, "no foreground read ever saw the corruption");

        let mut ctx = shared.session();
        for (i, &c) in cells.iter().enumerate() {
            let (r, _) = shared.query_cell(&mut ctx, c, ETA).unwrap();
            prop_assert!(!r.degrade().is_degraded(), "cell {}: degradation after repair", c);
            prop_assert_eq!(keyed(&r), baseline[i].clone(), "cell {}: answer diverged", c);
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    /// (c) negative: with every replica of the V-page store corrupt there
    /// is no healthy copy to heal from — queries degrade (and never panic),
    /// the scrubber reports the pages unrepairable, and they stay
    /// quarantined.
    #[test]
    fn unrepairable_corruption_degrades_and_stays_quarantined(
        mask in 1u8..0xff,
        byte in 0u16..u16::MAX,
    ) {
        let (shared, dir) = replicated_env(StorageScheme::IndexedVertical);
        let cells: Vec<CellId> = (0..shared.grid().cell_count() as CellId).collect();

        // Corrupt every data page of both replicas of the V-page store:
        // every V-page read loses both copies, only index/node/model reads
        // stay healthy.
        let vpage_files: Vec<_> = store_files(&dir)
            .into_iter()
            .filter(|p| p.file_name().unwrap().to_str().unwrap().contains("vpages"))
            .collect();
        assert_eq!(vpage_files.len(), 2, "primary + one replica");
        let mut dead_pages = 0u64;
        for path in &vpage_files {
            for page in 0..data_pages(path) {
                flip(path, page, byte as usize, mask);
                dead_pages += 1;
            }
        }

        let mut degraded = 0u64;
        let mut ctx = shared.session();
        for &c in &cells {
            // Err is tolerated only as a contained error; the expected shape
            // is a degraded Ok.
            if let Ok((r, _)) = shared.query_cell(&mut ctx, c, ETA) {
                if r.degrade().is_degraded() {
                    for ev in r.degrade().events() {
                        prop_assert!(!ev.error.is_empty(), "degrade event lost its cause");
                    }
                    degraded += 1;
                    // Loss is stable: the degraded answer reproduces.
                    let (again, _) = shared.query_cell(&mut ctx, c, ETA).unwrap();
                    prop_assert_eq!(keyed(&again), keyed(&r));
                }
            }
        }
        prop_assert!(degraded > 0, "an all-replica loss must surface as degradation");

        let report = shared.scrub(&Scrubber::new(ScrubConfig::default())).unwrap();
        prop_assert_eq!(report.unrepairable.len() as u64, dead_pages);
        prop_assert_eq!(report.repaired, 0);
        prop_assert!(shared.storage_health().quarantined_pages > 0);

        std::fs::remove_dir_all(&dir).ok();
    }
}
