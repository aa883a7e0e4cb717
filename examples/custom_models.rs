//! Index your own models: import meshes (OBJ), build a scene, and run
//! HDoV-tree visibility queries over it — no synthetic city involved.
//!
//! ```sh
//! cargo run --release --example custom_models
//! ```

use hdov::mesh::{generate, io, TriMesh};
use hdov::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Pretend these came from disk: a hand-written OBJ pyramid plus a few
    // generated models exported and re-imported through the OBJ codec.
    let pyramid_obj = "\
v 0 0 0\nv 10 0 0\nv 10 10 0\nv 0 10 0\nv 5 5 8\n\
f 1 2 5\nf 2 3 5\nf 3 4 5\nf 4 1 5\nf 4 3 2 1\n";
    let mut meshes: Vec<TriMesh> = vec![io::from_obj(pyramid_obj)?];

    // A ring of assorted models around the pyramid.
    for i in 0..12 {
        let angle = i as f64 * std::f64::consts::TAU / 12.0;
        let at = Vec3::new(60.0 * angle.cos() + 80.0, 60.0 * angle.sin() + 80.0, 0.0);
        let mut m = match i % 3 {
            0 => generate::bunny(4.0, 2, i as u64),
            1 => generate::tower(Vec3::ZERO, 3.0, 25.0, 24),
            _ => generate::tessellated_box(Vec3::splat(-4.0), Vec3::splat(4.0), 4),
        };
        // Ground the model and move it into place (via OBJ round trip to
        // prove the codec path).
        let lift = -m.aabb().min.z;
        m.translate(Vec3::new(at.x, at.y, lift));
        let m = io::from_obj(&io::to_obj(&m))?;
        meshes.push(m);
    }

    let scene = Scene::from_meshes(meshes, 3, 0.3).expect("non-empty meshes");
    println!(
        "custom scene: {} objects, {} polygons, bounds {:?}",
        scene.len(),
        scene.total_polygons(),
        scene.bounds()
    );

    let cells = CellGridConfig::for_scene(&scene).with_resolution(4, 4);
    let mut env = HdovEnvironment::build(
        &scene,
        &cells,
        HdovBuildConfig::default(),
        StorageScheme::IndexedVertical,
    )?;

    let vp = Vec3::new(80.0, 80.0, 1.7); // beside the pyramid
    for eta in [0.0, 0.01] {
        let (result, stats) = env.query(Query::new(env.cell_of(vp), eta))?;
        println!(
            "eta={eta}: {} objects + {} internal LoDs, {} polygons, {:.2} ms",
            result.object_count(),
            result.internal_count(),
            result.total_polygons(),
            stats.search_time_ms()
        );
    }

    // Export what the query returned, as one merged OBJ a viewer can open.
    let result = env.query(Query::new(env.cell_of(vp), 0.01))?.0;
    let mut merged = TriMesh::new();
    for entry in result.entries() {
        if let hdov::core::ResultKey::Object(id) = entry.key {
            merged.append(&scene.world_mesh(id, entry.level));
        }
    }
    let out = std::env::temp_dir().join("hdov_query_result.obj");
    std::fs::write(&out, io::to_obj(&merged))?;
    println!(
        "wrote the visible set ({} triangles) to {}",
        merged.triangle_count(),
        out.display()
    );
    Ok(())
}
