//! **Figure 12** — search performance across the three walkthrough motion
//! patterns: average per-query search time (12a) and page I/Os (12b),
//! VISUAL vs REVIEW.
//!
//! Paper shape: VISUAL's queries are much faster and cheaper than REVIEW's
//! spatial queries in every session.

use hdov_bench::{print_table, write_csv, EvalScene, RunOptions};
use hdov_core::StorageScheme;
use hdov_review::{ReviewConfig, ReviewSystem};
use hdov_walkthrough::{run_session, ReviewWalkthrough, Session, SessionKind, VisualSystem};

fn main() {
    let opts = RunOptions::from_args();
    let eval = EvalScene::standard(&opts);

    let mut visual =
        VisualSystem::new(eval.environment(StorageScheme::IndexedVertical), 0.001).expect("visual");
    let review_sys = ReviewSystem::build(
        &eval.scene,
        ReviewConfig {
            box_size: 400.0,
            ..Default::default()
        },
    )
    .expect("review");
    let mut review = ReviewWalkthrough::new(review_sys, eval.table.clone(), eval.grid.clone());

    let mut rows = Vec::new();
    for (i, kind) in SessionKind::all().into_iter().enumerate() {
        let session = Session::record(
            eval.scene.viewpoint_region(),
            kind,
            opts.session_frames(),
            12 + i as u64,
        );
        let mv = run_session(&mut visual, &session).unwrap();
        let mr = run_session(&mut review, &session).unwrap();
        rows.push(vec![
            kind.label().to_string(),
            format!("{:.2}", mv.avg_search_time_ms()),
            format!("{:.2}", mr.avg_search_time_ms()),
            format!("{:.1}", mv.avg_page_reads()),
            format!("{:.1}", mr.avg_page_reads()),
        ]);
    }
    print_table(
        "Figure 12: search performance across walkthrough sessions",
        &[
            "session",
            "12a VISUAL search (ms)",
            "12a REVIEW search (ms)",
            "12b VISUAL I/Os",
            "12b REVIEW I/Os",
        ],
        &rows,
    );
    println!(
        "paper shape: VISUAL queries much faster than REVIEW's spatial queries in all sessions"
    );
    write_csv(
        "fig12_sessions",
        &[
            "session",
            "visual_ms",
            "review_ms",
            "visual_ios",
            "review_ios",
        ],
        &rows,
    );
}
