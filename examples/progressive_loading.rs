//! Progressive, frame-budgeted loading with the frustum-prioritized
//! traversal — the paper's §3.2 "third advantage", implemented as stated
//! future work.
//!
//! A real walkthrough has a frame deadline. The prioritized search loads
//! what the camera is looking at first, so when the budget expires the
//! frame already contains the visually important content; the rest streams
//! in over the following frames (delta search makes those cheap).
//!
//! ```sh
//! cargo run --release --example progressive_loading
//! ```

use hdov::core::QueryBudget;
use hdov::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scene = CityConfig::small().seed(5).generate();
    let cells = CellGridConfig::for_scene(&scene).with_resolution(8, 8);
    let mut env = HdovEnvironment::build(
        &scene,
        &cells,
        HdovBuildConfig::default(),
        StorageScheme::IndexedVertical,
    )?;

    // A camera standing on a street, looking along +x.
    let eye = scene.viewpoint_region().center();
    let frustum = Frustum::new(eye, Vec3::X, Vec3::Z, 1.2, 1.6, 0.5, 2000.0);
    let eta = 0.001;

    // Reference: the complete prioritized answer.
    let q = Query::new(env.cell_of(eye), eta);
    let (full, _) = env.query_prioritized(q, &frustum)?;
    let total_entries = full.result.entries().len();
    let total_dov = full.result.captured_dov();
    println!(
        "full answer: {} entries, {:.4} DoV mass, {:.1} ms simulated\n",
        total_entries, total_dov, full.spent_ms
    );

    println!(
        "{:>12} {:>10} {:>12} {:>14} {:>10}",
        "budget (ms)", "entries", "DoV mass", "% of DoV", "complete"
    );
    for fraction in [0.1, 0.25, 0.5, 0.75, 1.0, 2.0] {
        let budget = full.spent_ms * fraction;
        let budgeted = Query {
            budget: QueryBudget::sim_ms(budget),
            ..q
        };
        let (partial, _) = env.query_prioritized(budgeted, &frustum)?;
        let dov = partial.result.captured_dov();
        println!(
            "{:>12.1} {:>10} {:>12.4} {:>13.1}% {:>10}",
            budget,
            partial.result.entries().len(),
            dov,
            100.0 * dov / total_dov.max(1e-12),
            partial.completed,
        );
    }
    println!(
        "\nthe first slice of budget pays the fixed tree/V-page overhead; after \
         that, in-frustum near-first content streams in DoV-dense order — half \
         the full budget already captures most of the visible solid angle"
    );
    Ok(())
}
