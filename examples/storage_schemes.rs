//! Compare the three on-disk storage schemes for the view-variant data:
//! footprint (paper Table 2) and per-query V-page I/O (paper Fig. 7).
//!
//! ```sh
//! cargo run --release --example storage_schemes
//! ```

use hdov::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scene = CityConfig::small().seed(3).generate();
    let cells = CellGridConfig::for_scene(&scene).with_resolution(8, 8);
    let viewpoints: Vec<_> = (0..6)
        .map(|i| {
            let r = scene.viewpoint_region();
            r.min.lerp(r.max, 0.1 + 0.15 * i as f64)
        })
        .collect();

    println!(
        "{:<18} {:>12} {:>16} {:>16}",
        "scheme", "storage", "v-page I/Os*", "v-store time*"
    );
    for scheme in StorageScheme::all() {
        let mut env = HdovEnvironment::build(&scene, &cells, HdovBuildConfig::default(), scheme)?;
        let mut reads = 0u64;
        let mut us = 0.0;
        for &vp in &viewpoints {
            let (_, stats) = env.query(Query::new(env.cell_of(vp), 0.001))?;
            reads += stats.vstore_io.page_reads;
            us += stats.vstore_io.elapsed_us;
        }
        println!(
            "{:<18} {:>12} {:>16} {:>13.2}ms",
            scheme.to_string(),
            format!("{} B", env.vstore().storage_bytes()),
            reads,
            us / 1000.0,
        );
    }
    println!(
        "* summed over {} queries crossing several cells",
        viewpoints.len()
    );
    println!(
        "\npaper: horizontal is ~20x larger (Table 2) and slowest (Fig. 7); \
         indexed-vertical is smallest and fastest"
    );
    Ok(())
}
