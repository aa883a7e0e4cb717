//! Pins the internal-node LoD chains of a small-city build: every node's
//! "aggregate + qslim" chain, read back from the internal-LoD store. Any
//! drift in the simplifier (or in what the build aggregates) moves the
//! digest below.

use hdov_core::{HdovBuildConfig, HdovEnvironment, StorageScheme};
use hdov_scene::CityConfig;
use hdov_storage::{IoCursor, PageId};
use hdov_visibility::{CellGridConfig, DovTable};
use std::sync::Arc;

/// FNV-1a digest of every internal LoD's stored bytes (vertex count,
/// triangle count, vertex bits, indices), node by node, level by level.
const SMALL_CITY_INTERNAL_DIGEST: u64 = 0x4bd3_6f5b_567f_93a1;

#[test]
fn small_city_internal_chains_are_pinned() {
    let scene = CityConfig::small().seed(2003).generate();
    let grid = CellGridConfig::for_scene(&scene)
        .with_resolution(8, 8)
        .build();
    // Internal LoDs do not depend on visibility: an empty table builds the
    // same chains without casting a ray.
    let table = DovTable::from_parts(vec![Vec::new(); grid.cell_count()], 1).unwrap();
    let env = HdovEnvironment::build_with_table(
        &scene,
        Arc::new(grid),
        HdovBuildConfig::default(),
        StorageScheme::IndexedVertical,
        Arc::new(table),
    )
    .unwrap();
    let (store, pool) = (env.tree().internal_store(), env.tree().internal_pool());
    assert_eq!(store.len(), env.tree().node_count() as usize);

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut cursor = IoCursor::new();
    let mut payload = Vec::new();
    for key in 0..store.len() as u64 {
        for level in 0..store.levels(key) {
            let handle = store.handle(key, level);
            payload.clear();
            for page in 0..u64::from(handle.pages) {
                let frame = pool
                    .read_frame(&mut cursor, PageId(handle.first_page.0 + page))
                    .unwrap();
                payload.extend_from_slice(frame.bytes());
            }
            payload.truncate(handle.bytes as usize);
            for &b in &payload {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(
        h, SMALL_CITY_INTERNAL_DIGEST,
        "internal LoDs drifted: {h:#018x}"
    );
}
