//! Multiple independent viewers over one shared, precomputed project — the
//! multi-client deployment the paper's server-side framing implies.
//!
//! The offline artifacts (scene recipe + DoV table) are computed once and
//! shared; each viewer thread owns its environment (its own simulated disk
//! head and resident set) and walks a different session concurrently.
//!
//! ```sh
//! cargo run --release --example two_viewers
//! ```

use hdov::prelude::*;
use hdov::project::Project;
use hdov::visibility::DovConfig;
use hdov::walkthrough::run_session;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Offline, once: precompute and "publish" the project.
    let project = Project::create(
        CityConfig::small().seed(14),
        (8, 8),
        &DovConfig::default(),
        0,
    );
    println!(
        "project: {} cells precomputed over {} objects",
        project.table.cell_count(),
        project.scene().len()
    );

    // Online: each viewer builds its environment from the shared project and
    // runs on its own thread.
    let handles: Vec<_> = [
        (SessionKind::Normal, 0.001, 21u64),
        (SessionKind::Turning, 0.004, 22),
        (SessionKind::BackForth, 0.0005, 23),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (kind, eta, seed))| {
        let project = project.clone();
        std::thread::spawn(move || -> Result<String, hdov::storage::StorageError> {
            let scene = project.scene();
            let env =
                project.environment(HdovBuildConfig::default(), StorageScheme::IndexedVertical)?;
            let mut visual = VisualSystem::new(env, eta)?;
            let session = Session::record(scene.viewpoint_region(), kind, 80, seed);
            let m = run_session(&mut visual, &session)?;
            Ok(format!(
                "viewer {i} [{}] eta={eta}: avg {:.1} ms, coverage {:.3}, peak {} KB",
                kind.label(),
                m.avg_frame_time_ms(),
                m.avg_dov_coverage(),
                m.peak_memory_bytes / 1024
            ))
        })
    })
    .collect();

    for h in handles {
        println!("{}", h.join().expect("viewer thread panicked")?);
    }
    Ok(())
}
