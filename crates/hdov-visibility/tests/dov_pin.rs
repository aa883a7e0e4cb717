//! Pins the DoV estimator's output. Any change to ray generation, the
//! first-hit caster or the Eq. 2 max that moves a single DoV value (by one
//! bit) moves the digest below, so a faster kernel cannot drift silently.

use hdov_scene::{CityConfig, Scene};
use hdov_visibility::{CellGrid, CellGridConfig, CellId, DovConfig, DovTable};

/// FNV-1a digest of every `(cell, object, dov.to_bits())` of the table
/// computed by [`small_city_table`].
const SMALL_CITY_DOV_DIGEST: u64 = 0x1178_1645_52ab_8714;

/// The pinned inputs: the small city over an 8×8 grid, 1,024 rays from
/// each of 3 viewpoints per cell.
fn small_city() -> (Scene, CellGrid, DovConfig) {
    let scene = CityConfig::small().generate();
    let grid = CellGridConfig::for_scene(&scene)
        .with_resolution(8, 8)
        .build();
    let cfg = DovConfig {
        rays_per_viewpoint: 1024,
        viewpoints_per_cell: 3,
        ..Default::default()
    };
    (scene, grid, cfg)
}

fn small_city_table(threads: usize) -> DovTable {
    let (scene, grid, cfg) = small_city();
    DovTable::compute(&scene, &grid, &cfg, threads)
}

fn digest(table: &DovTable) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u32| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for cell in 0..table.cell_count() as CellId {
        for &(object, dov) in table.cell(cell) {
            eat(cell);
            eat(object);
            eat(dov.to_bits());
        }
    }
    h
}

#[test]
fn small_city_table_is_pinned_and_thread_independent() {
    let one = small_city_table(1);
    let two = small_city_table(2);
    assert_eq!(one.cell_count(), 64);
    for cell in 0..one.cell_count() as CellId {
        assert_eq!(one.cell(cell), two.cell(cell), "cell {cell} differs");
    }
    assert_eq!(
        digest(&one),
        SMALL_CITY_DOV_DIGEST,
        "DoV table drifted: {:#018x}",
        digest(&one)
    );
}

/// The commit path's repatch casts exactly as the full estimate: filling an
/// empty table cell by cell through `recompute_cells` reaches the same
/// digest.
#[test]
fn recomputing_every_cell_of_an_empty_table_reaches_the_pinned_digest() {
    let (scene, grid, cfg) = small_city();
    let n = grid.cell_count();
    let mut table = DovTable::from_parts(vec![Vec::new(); n], cfg.rays_per_viewpoint).unwrap();
    let cells: Vec<CellId> = (0..n as CellId).collect();
    table.recompute_cells(&scene, &grid, &cfg, &cells);
    assert_eq!(
        digest(&table),
        SMALL_CITY_DOV_DIGEST,
        "repatched table drifted: {:#018x}",
        digest(&table)
    );
}
