//! Mutating a scene: WAL-backed commits, epoch-pinned readers, and
//! crash-safe reopen (DESIGN.md §14).
//!
//! ```sh
//! cargo run --release --example scene_edit
//! ```

use hdov::core::{PoolConfig, SearchScratch, SessionCtx};
use hdov::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::var_os("HDOV_STORE_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("results/store"))
        .join("scene_edit");
    std::fs::remove_dir_all(&dir).ok();

    // 1. Build a mutable scene: the durable object table, DoV blob, and
    //    R-tree backbone land as shadow-paged store files under `dir`,
    //    plus a write-ahead log for everything committed since.
    let scene = CityConfig::tiny().seed(7).generate();
    let cells = CellGridConfig::for_scene(&scene).with_resolution(4, 4);
    let mut ms = MutableScene::create(
        &dir,
        "city",
        &scene,
        &cells,
        HdovBuildConfig::fast_test(),
        StorageScheme::IndexedVertical,
        PoolConfig::default(),
    )?;
    println!(
        "created: {} objects, {} cells, epoch {}",
        ms.len(),
        ms.grid().cell_count(),
        ms.epoch()
    );

    // 2. Readers pin an epoch. `current()` hands out the published
    //    environment; a session keeps answering against it — wait-free —
    //    no matter what commits land meanwhile.
    let pinned = ms.current();
    let mut ctx = SessionCtx::new();
    let mut scratch = SearchScratch::new();
    let cell = 0;
    let q = Query::new(cell, 0.0);
    pinned.search(&mut ctx, &mut scratch, q)?;
    let before = scratch.result().entries().len();
    println!("cell {cell} sees {before} entries at epoch {}", ms.epoch());

    // 3. Stage a transaction: move a building, add a copy of another.
    //    Nothing is visible — or durable — until `commit`.
    let handles = ms.handles();
    let moved = handles[0];
    ms.translate(moved, Vec3::new(35.0, 0.0, 0.0))?;
    let src = ms.object(handles[1]).expect("live object");
    let added = ms.insert(
        src.kind,
        src.prototype,
        Aabb {
            min: src.mbr.min + Vec3::new(0.0, 40.0, 0.0),
            max: src.mbr.max + Vec3::new(0.0, 40.0, 0.0),
        },
    )?;
    println!(
        "staged {} edits (moved #{moved}, inserted #{added})",
        ms.pending_edits()
    );

    // 4. Commit: page images of every changed store page go to the WAL
    //    first, then the commit marker; only the DoV cells whose view could
    //    have changed are re-estimated, and a fresh epoch is published.
    let epoch = ms.commit()?;
    ms.current()
        .search(&mut SessionCtx::new(), &mut scratch, q)?;
    let after = scratch.result().entries().len();
    println!("committed epoch {epoch}: cell {cell} now sees {after} entries");

    // The pinned pre-commit session still answers from its own epoch.
    pinned.search(&mut ctx, &mut scratch, q)?;
    let still = scratch.result().entries().len();
    assert_eq!(still, before);
    println!("pinned session still sees {still} entries — no torn reads");

    // 5. Durability: drop everything and reopen. The WAL replays up to the
    //    last commit marker; a crash mid-commit would replay to the
    //    previous one instead (the crash-recovery CI job tortures this).
    let prototypes = scene.prototypes().clone();
    drop(pinned);
    drop(ms);
    let ms = MutableScene::open(
        &dir,
        "city",
        prototypes,
        HdovBuildConfig::fast_test(),
        StorageScheme::IndexedVertical,
        PoolConfig::default(),
    )?;
    assert_eq!(ms.epoch(), epoch);
    ms.current()
        .search(&mut SessionCtx::new(), &mut scratch, q)?;
    assert_eq!(scratch.result().entries().len(), after);
    println!(
        "reopened at epoch {} — WAL replay reproduced the answers",
        ms.epoch()
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
