//! **Crash-recovery torture** — the CI gate behind DESIGN.md §14's
//! durability claim: *a crash at any byte boundary recovers to exactly the
//! last committed transaction*.
//!
//! The harness runs a seeded workload of edit commits against a
//! [`MutableScene`], recording the oracle per epoch — the never-crashed
//! store's page images and the published environment's full answer set.
//! Then, for the final WAL, it simulates a crash at **every** record
//! boundary, mid-record (torn tail), and with a bit flipped inside each
//! record, reopens the store copy, and asserts
//!
//! * the recovered epoch is exactly the last commit whose marker survives
//!   intact in the damaged prefix,
//! * every recovered page file is byte-identical to the oracle's at that
//!   epoch, and
//! * (once per distinct recovered epoch) a fully reopened scene answers
//!   every visibility query byte-identically to the never-crashed oracle.
//!
//! Any mismatch aborts with a nonzero exit, failing the `crash-recovery`
//! CI job.

use hdov_bench::{print_table, write_csv};
use hdov_core::{
    HdovBuildConfig, MutableScene, PoolConfig, Query, SearchScratch, SessionCtx, SharedEnvironment,
    StorageScheme, SCENE_FILES,
};
use hdov_geom::Vec3;
use hdov_scene::CityConfig;
use hdov_visibility::{CellGridConfig, CellId};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const STORE: &str = "torture";
const COMMITS: usize = 4;

type Answers = Vec<Vec<(hdov_core::ResultKey, usize)>>;

fn answers(env: &SharedEnvironment) -> Answers {
    let mut out = Vec::new();
    let mut scratch = SearchScratch::new();
    for cell in 0..env.grid().cell_count() as CellId {
        let mut ctx = SessionCtx::new();
        env.search(&mut ctx, &mut scratch, Query::new(cell, 0.0))
            .unwrap();
        let res = scratch.result();
        let mut entries: Vec<_> = res.entries().iter().map(|e| (e.key, e.level)).collect();
        entries.sort();
        out.push(entries);
    }
    out
}

/// Materializes every page file of a store at its current epoch.
fn images(store: &hdov_storage::MutableStore) -> Vec<Vec<Box<[u8]>>> {
    let snap = store.snapshot();
    (0..SCENE_FILES.len() as u32)
        .map(|fid| snap.materialize(fid).expect("materialize oracle file"))
        .collect()
}

/// One recorded oracle epoch.
struct Oracle {
    images: Vec<Vec<Box<[u8]>>>,
    answers: Answers,
}

/// Copies the base stores plus a damaged WAL into `scratch`.
fn stage_crash(oracle_dir: &Path, scratch: &Path, wal: &[u8]) {
    std::fs::remove_dir_all(scratch).ok();
    std::fs::create_dir_all(scratch).unwrap();
    for f in SCENE_FILES {
        let name = format!("{STORE}.{f}.hdov");
        std::fs::copy(oracle_dir.join(&name), scratch.join(&name)).expect("copy base store");
    }
    std::fs::write(scratch.join(format!("{STORE}.wal")), wal).expect("write damaged WAL");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "-q");
    let base = std::env::var_os("HDOV_STORE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/store"))
        .join("crash_torture");
    let oracle_dir = base.join("oracle");
    let scratch = base.join("scratch");
    std::fs::remove_dir_all(&base).ok();

    // ---- The never-crashed oracle -------------------------------------
    let scene = CityConfig::tiny().seed(2003).generate();
    let grid_cfg = CellGridConfig {
        nx: 4,
        ny: 4,
        ..CellGridConfig::for_scene(&scene)
    };
    let cfg = HdovBuildConfig::fast_test();
    let scheme = StorageScheme::IndexedVertical;
    let mut ms = MutableScene::create(
        &oracle_dir,
        STORE,
        &scene,
        &grid_cfg,
        cfg.clone(),
        scheme,
        PoolConfig::default(),
    )
    .expect("create oracle scene");

    let mut oracles = vec![Oracle {
        images: images(ms.store()),
        answers: answers(&ms.current()),
    }];
    // Byte offset in the WAL at which each epoch's last record ends.
    let mut durable_end = vec![ms.store().wal_len()];

    let mut rng = hdov_geom::sampling::SplitMix64::new(42);
    let handles0 = ms.handles();
    for k in 0..COMMITS {
        // A mixed transaction: one translate, plus an insert or a remove.
        let h = handles0[(rng.next_u64() % handles0.len() as u64) as usize];
        if ms.object(h).is_some() {
            let delta = Vec3::new(
                (rng.next_f64() - 0.5) * 30.0,
                (rng.next_f64() - 0.5) * 30.0,
                0.0,
            );
            ms.translate(h, delta).unwrap();
        }
        if k % 2 == 0 {
            let src = ms.object(ms.handles()[0]).unwrap();
            let shift = Vec3::new(rng.next_f64() * 25.0, rng.next_f64() * 25.0, 0.0);
            ms.insert(
                src.kind,
                src.prototype,
                hdov_geom::Aabb {
                    min: src.mbr.min + shift,
                    max: src.mbr.max + shift,
                },
            )
            .unwrap();
        } else {
            let hs = ms.handles();
            ms.remove(hs[hs.len() - 1]).unwrap();
        }
        let epoch = ms.commit().expect("oracle commit");
        assert_eq!(epoch as usize, k + 1);
        oracles.push(Oracle {
            images: images(ms.store()),
            answers: answers(&ms.current()),
        });
        durable_end.push(ms.store().wal_len());
    }
    let wal_path = ms.store().wal_path_of();
    let prototypes = scene.prototypes().clone();
    drop(ms);

    let wal = std::fs::read(&wal_path).expect("read oracle WAL");
    let bounds = hdov_storage::wal::record_boundaries(&wal_path).expect("scan WAL");
    println!(
        "oracle: {COMMITS} commits, WAL {} bytes, {} records",
        wal.len(),
        bounds.len() - 1
    );

    // The epoch a damaged WAL must recover to, given that bytes < `v` are
    // intact: the last commit whose records all landed before the damage.
    let expected_epoch =
        |v: u64| -> u64 { (durable_end.iter().filter(|&&e| e <= v).count() - 1) as u64 };

    // ---- Crash scenarios ----------------------------------------------
    let mut cuts: Vec<(u64, Vec<u8>)> = Vec::new(); // (intact prefix, damaged WAL)
    for (i, &b) in bounds.iter().enumerate() {
        // Clean truncation at every record boundary.
        cuts.push((b, wal[..b as usize].to_vec()));
        if let Some(&next) = bounds.get(i + 1) {
            // Torn tails inside the record: one byte in, and mid-record.
            let offsets: &[u64] = if quick {
                &[(next - b) / 2]
            } else {
                &[1, (next - b) / 2, next - b - 1]
            };
            for &off in offsets {
                if off > 0 && b + off < next {
                    cuts.push((b, wal[..(b + off) as usize].to_vec()));
                }
            }
            // A bit flip inside the record invalidates its checksum: the
            // prefix before the record stays trusted, nothing after is.
            let flip_at = b + (next - b) / 3;
            let mut flipped = wal.clone();
            flipped[flip_at as usize] ^= 0x40;
            cuts.push((b, flipped));
        }
    }

    let mut answer_checked: BTreeSet<u64> = BTreeSet::new();
    let mut per_epoch = vec![0u64; oracles.len()];
    for (intact, damaged) in &cuts {
        let expect = expected_epoch(*intact);
        stage_crash(&oracle_dir, &scratch, damaged);

        let store = hdov_storage::MutableStore::open(&scratch, STORE, &SCENE_FILES)
            .expect("recovery must not error on torn tails");
        assert_eq!(
            store.epoch(),
            expect,
            "recovered wrong epoch for prefix {intact} ({} byte WAL)",
            damaged.len()
        );
        let got = images(&store);
        assert_eq!(
            got, oracles[expect as usize].images,
            "recovered pages differ from the never-crashed oracle at epoch {expect}"
        );
        drop(store);

        // Full-stack check once per distinct recovered epoch: reopen the
        // scene and compare every cell's answer set.
        if answer_checked.insert(expect) {
            let reopened = MutableScene::open(
                &scratch,
                STORE,
                prototypes.clone(),
                cfg.clone(),
                scheme,
                PoolConfig::default(),
            )
            .expect("reopen recovered scene");
            assert_eq!(reopened.epoch(), expect);
            assert_eq!(
                answers(&reopened.current()),
                oracles[expect as usize].answers,
                "recovered answers differ from the never-crashed oracle at epoch {expect}"
            );
        }
        per_epoch[expect as usize] += 1;
    }
    assert_eq!(
        answer_checked.len(),
        oracles.len(),
        "sweep must exercise recovery into every epoch"
    );

    let rows: Vec<Vec<String>> = per_epoch
        .iter()
        .enumerate()
        .map(|(e, n)| vec![format!("{e}"), format!("{n}"), format!("yes")])
        .collect();
    print_table(
        &format!(
            "Crash torture: {} scenarios over {} WAL records, all recovered exactly",
            cuts.len(),
            bounds.len() - 1
        ),
        &["epoch", "scenarios", "answers_checked"],
        &rows,
    );
    write_csv(
        "crash_torture",
        &["epoch", "scenarios", "answers_checked"],
        &rows,
    );
    println!(
        "CRASH TORTURE OK: {} scenarios, every recovery byte-identical",
        cuts.len()
    );
    std::fs::remove_dir_all(&base).ok();
}
