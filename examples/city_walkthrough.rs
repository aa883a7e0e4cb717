//! An interactive-walkthrough comparison: play the same recorded session
//! through VISUAL (HDoV-tree + delta search) and REVIEW (R-tree window
//! queries) and compare frame times, fidelity, and memory.
//!
//! ```sh
//! cargo run --release --example city_walkthrough
//! ```

use hdov::prelude::*;
use hdov::review::ReviewConfig;
use hdov::walkthrough::{run_session, ReviewWalkthrough};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scene = CityConfig::small().seed(42).generate();
    let cells = CellGridConfig::for_scene(&scene).with_resolution(8, 8);

    // VISUAL: the HDoV-tree system at η = 0.001.
    let env = HdovEnvironment::build(
        &scene,
        &cells,
        HdovBuildConfig::default(),
        StorageScheme::IndexedVertical,
    )?;
    let mut visual = VisualSystem::new(env, 0.001)?;

    // REVIEW: 400 m query boxes (the paper's comparable-fidelity setting).
    let review_sys = ReviewSystem::build(
        &scene,
        ReviewConfig {
            box_size: 400.0,
            ..Default::default()
        },
    )?;
    let mut review = ReviewWalkthrough::new(
        review_sys,
        visual.env().dov_table_shared(),
        visual.env().grid_shared(),
    );

    // Record one session and play it through both systems.
    let session = Session::record(scene.viewpoint_region(), SessionKind::Normal, 150, 9);
    println!(
        "session: {} frames, {:.0} m walked\n",
        session.len(),
        session.path_length()
    );
    let mv: WalkthroughMetrics = run_session(&mut visual, &session)?;
    let mr: WalkthroughMetrics = run_session(&mut review, &session)?;

    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "system", "avg frame", "max spike", "variance", "coverage", "peak mem"
    );
    for m in [&mv, &mr] {
        println!(
            "{:<22} {:>8.2}ms {:>8.2}ms {:>10.2} {:>9.1}% {:>9.1}KB",
            m.system,
            m.avg_frame_time_ms(),
            m.max_frame_time_ms(),
            m.variance_frame_time(),
            100.0 * m.avg_dov_coverage(),
            m.peak_memory_bytes as f64 / 1024.0,
        );
    }
    println!(
        "\nVISUAL is {:.1}x faster per frame and misses {:.1} objects/frame vs REVIEW's {:.1}",
        mr.avg_frame_time_ms() / mv.avg_frame_time_ms(),
        mv.avg_missed_objects(),
        mr.avg_missed_objects(),
    );
    Ok(())
}
