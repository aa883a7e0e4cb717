//! Inspect degree-of-visibility (DoV) values directly: what does a street
//! viewpoint actually see, and how does the DoV threshold shape the answer?
//!
//! ```sh
//! cargo run --release --example visibility_query
//! ```

use hdov::core::ResultKey;
use hdov::prelude::*;
use hdov::visibility::DovConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scene = CityConfig::small().seed(11).generate();
    let grid = CellGridConfig::for_scene(&scene)
        .with_resolution(8, 8)
        .build();

    // Compute the ground-truth DoV table (offline step of the paper §5.1).
    let table = DovTable::compute(&scene, &grid, &DovConfig::default(), 0);
    let viewpoint = scene.bounds().center();
    let cell = grid.clamped_cell_of(viewpoint);

    println!(
        "cell {cell}: {} of {} objects visible, total DoV mass {:.4}",
        table.visible_count(cell),
        scene.len(),
        table.total_dov(cell)
    );

    // The five most visible objects from this cell.
    let mut visible: Vec<_> = table.cell(cell).to_vec();
    visible.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\nmost visible objects:");
    for &(obj, dov) in visible.iter().take(5) {
        let o = scene.object(obj as u64);
        println!(
            "  object {:>4} ({:?}) at distance {:>6.1} m: DoV = {:.5}",
            obj,
            o.kind,
            o.mbr.distance_to_point(viewpoint),
            dov
        );
    }

    // Build the full environment and show how η reshapes the answer set.
    let mut env = HdovEnvironment::build_with_table(
        &scene,
        std::sync::Arc::new(grid),
        HdovBuildConfig::default(),
        StorageScheme::IndexedVertical,
        std::sync::Arc::new(table),
    )?;
    println!("\nanswer-set composition vs eta:");
    for eta in [0.0, 0.002, 0.01, 0.05] {
        let result = env.query(Query::new(env.cell_of(viewpoint), eta))?.0;
        let internals: Vec<u32> = result
            .entries()
            .iter()
            .filter_map(|e| match e.key {
                ResultKey::Internal(o) => Some(o),
                _ => None,
            })
            .collect();
        println!(
            "  eta={eta:<6} -> {} objects + {} internal LoDs {:?}, {} polygons",
            result.object_count(),
            result.internal_count(),
            internals,
            result.total_polygons()
        );
    }
    Ok(())
}
