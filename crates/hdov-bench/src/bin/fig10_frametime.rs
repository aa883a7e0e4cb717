//! **Figure 10** — per-frame time series during an interactive walkthrough.
//!
//! * 10(a): VISUAL (η = 0.001) vs REVIEW (400 m query boxes) — REVIEW is
//!   slower and "choppier" (tall spikes at spatial queries).
//! * 10(b): VISUAL at η = 0.001 vs η = 0.0003 — the larger threshold is up
//!   to ~20 % faster.

use hdov_bench::{print_table, write_csv, EvalScene, RunOptions};
use hdov_core::StorageScheme;
use hdov_review::{ReviewConfig, ReviewSystem};
use hdov_walkthrough::{
    run_session, ReviewWalkthrough, Session, SessionKind, VisualSystem, WalkthroughMetrics,
};

fn main() {
    let opts = RunOptions::from_args();
    let eval = EvalScene::standard(&opts);
    let session = Session::record(
        eval.scene.viewpoint_region(),
        SessionKind::Normal,
        opts.session_frames(),
        1,
    );

    let mut visual_1 =
        VisualSystem::new(eval.environment(StorageScheme::IndexedVertical), 0.001).expect("visual");
    let mut visual_03 = VisualSystem::new(eval.environment(StorageScheme::IndexedVertical), 0.0003)
        .expect("visual");
    let review_sys = ReviewSystem::build(
        &eval.scene,
        ReviewConfig {
            box_size: 400.0,
            ..Default::default()
        },
    )
    .expect("review");
    let mut review = ReviewWalkthrough::new(review_sys, eval.table.clone(), eval.grid.clone());

    let mv1 = run_session(&mut visual_1, &session).unwrap();
    let mv03 = run_session(&mut visual_03, &session).unwrap();
    let mr = run_session(&mut review, &session).unwrap();

    // Fig. 10(a) and 10(b) series: frame index vs frame time.
    let mut series = Vec::with_capacity(session.len());
    for i in 0..session.len() {
        series.push(vec![
            i.to_string(),
            format!("{:.3}", mv1.frames[i].frame_ms),
            format!("{:.3}", mr.frames[i].frame_ms),
            format!("{:.3}", mv03.frames[i].frame_ms),
        ]);
    }
    write_csv(
        "fig10_frametime",
        &[
            "frame",
            "visual_eta0.001_ms",
            "review_400m_ms",
            "visual_eta0.0003_ms",
        ],
        &series,
    );

    let summary = |m: &WalkthroughMetrics| {
        vec![
            m.system.clone(),
            format!("{:.2}", m.avg_frame_time_ms()),
            format!("{:.2}", m.max_frame_time_ms()),
            format!("{:.2}", m.variance_frame_time()),
        ]
    };
    print_table(
        "Figure 10: walkthrough frame times (series in results/fig10_frametime.csv)",
        &["system", "avg frame (ms)", "max spike (ms)", "variance"],
        &[summary(&mv1), summary(&mr), summary(&mv03)],
    );
    println!(
        "10a shape: REVIEW slower & choppier than VISUAL(0.001) -> avg {:.2} vs {:.2}, spikes {:.2} vs {:.2}",
        mr.avg_frame_time_ms(),
        mv1.avg_frame_time_ms(),
        mr.max_frame_time_ms(),
        mv1.max_frame_time_ms()
    );
    println!(
        "10b shape: eta=0.001 faster than eta=0.0003 by {:.1}% (paper: up to ~20%)",
        100.0 * (mv03.avg_frame_time_ms() - mv1.avg_frame_time_ms()) / mv03.avg_frame_time_ms()
    );
}
