//! Pins the DoV estimator's output. Any change to ray generation, the
//! first-hit caster or the Eq. 2 max that moves a single DoV value (by one
//! bit) moves the digest below, so a faster kernel cannot drift silently.

use hdov_scene::CityConfig;
use hdov_visibility::{CellGridConfig, CellId, DovConfig, DovTable};

/// FNV-1a digest of every `(cell, object, dov.to_bits())` of the table
/// computed by [`small_city_table`].
const SMALL_CITY_DOV_DIGEST: u64 = 0x1178_1645_52ab_8714;

fn small_city_table(threads: usize) -> DovTable {
    let scene = CityConfig::small().generate();
    let grid = CellGridConfig::for_scene(&scene)
        .with_resolution(8, 8)
        .build();
    let cfg = DovConfig {
        rays_per_viewpoint: 1024,
        viewpoints_per_cell: 3,
        ..Default::default()
    };
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
