//! Quickstart: build an HDoV-tree over a small synthetic city and run
//! threshold visibility queries.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hdov::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A deterministic synthetic city (~300 objects with LoD chains).
    let scene = CityConfig::small().seed(7).generate();
    println!(
        "scene: {} objects, {} full-detail polygons, {} of model data",
        scene.len(),
        scene.total_polygons(),
        human(scene.total_model_bytes())
    );

    // 2. Partition the walkable space into viewing cells and build the
    //    HDoV-tree: R-tree backbone + internal LoDs + per-cell DoV data,
    //    stored with the paper's best scheme (indexed-vertical).
    let cells = CellGridConfig::for_scene(&scene).with_resolution(8, 8);
    let mut env = HdovEnvironment::build(
        &scene,
        &cells,
        HdovBuildConfig::default(),
        StorageScheme::IndexedVertical,
    )?;
    println!(
        "HDoV-tree: {} nodes, height {}, visibility store {}",
        env.tree().node_count(),
        env.tree().height(),
        human(env.vstore().storage_bytes())
    );

    // 3. Sweep the DoV threshold η at a street-level viewpoint: larger η
    //    terminates barely-visible subtrees at coarse internal LoDs.
    let viewpoint = scene.bounds().center();
    println!("\nquery at {viewpoint} — trade fidelity for speed with eta:");
    println!(
        "{:>8}  {:>8} {:>9} {:>10} {:>12} {:>10}",
        "eta", "objects", "internal", "polygons", "bytes", "time"
    );
    for eta in [0.0, 0.001, 0.004, 0.02] {
        let (result, stats) = env.query(Query::new(env.cell_of(viewpoint), eta))?;
        println!(
            "{:>8}  {:>8} {:>9} {:>10} {:>12} {:>9.2}ms",
            eta,
            result.object_count(),
            result.internal_count(),
            result.total_polygons(),
            human(result.total_bytes()),
            stats.search_time_ms(),
        );
    }
    Ok(())
}

fn human(b: u64) -> String {
    if b > 1 << 20 {
        format!("{:.1} MB", b as f64 / (1 << 20) as f64)
    } else {
        format!("{:.1} KB", b as f64 / 1024.0)
    }
}
