//! **Table 3** — average frame time and frame-time variance of session 1 at
//! different η values, plus the REVIEW row, plus the memory comparison.
//!
//! Paper: frame time falls from 15.92 ms (η = 0) to 12.65 ms (η = 0.004),
//! variance from 6.34 to 4.15; REVIEW (400 m) needs 57.84 ms with variance
//! 16.46. Memory: VISUAL ≤ 28 MB vs REVIEW 62 MB.

use hdov_bench::{fmt_bytes, print_table, write_csv, EvalScene, RunOptions, TABLE3_ETAS};
use hdov_core::StorageScheme;
use hdov_review::{ReviewConfig, ReviewSystem};
use hdov_walkthrough::{
    run_session, ReviewWalkthrough, Session, SessionKind, VisualSystem, WalkthroughSystem,
};

const PAPER: [(f64, f64, f64); 9] = [
    (0.0, 15.92, 6.34),
    (0.00005, 15.91, 6.35),
    (0.0001, 16.06, 6.13),
    (0.0002, 15.58, 5.56),
    (0.0003, 15.47, 5.10),
    (0.0005, 13.94, 4.93),
    (0.001, 12.78, 4.35),
    (0.002, 12.79, 4.14),
    (0.004, 12.65, 4.15),
];

fn main() {
    let opts = RunOptions::from_args();
    let eval = EvalScene::standard(&opts);
    let session = Session::record(
        eval.scene.viewpoint_region(),
        SessionKind::Normal, // session 1
        opts.session_frames(),
        3,
    );

    let mut visual =
        VisualSystem::new(eval.environment(StorageScheme::IndexedVertical), 0.0).expect("visual");
    let mut rows = Vec::new();
    let mut visual_peak = 0u64;
    for (i, &eta) in TABLE3_ETAS.iter().enumerate() {
        visual.set_eta(eta);
        let m = run_session(&mut visual, &session).unwrap();
        visual_peak = visual_peak.max(m.peak_memory_bytes);
        let (p_eta, p_avg, p_var) = PAPER[i];
        debug_assert_eq!(p_eta, eta);
        rows.push(vec![
            format!("{eta}"),
            format!("{:.2}", m.avg_frame_time_ms()),
            format!("{:.2}", m.variance_frame_time()),
            format!("{p_avg:.2}"),
            format!("{p_var:.2}"),
        ]);
    }

    let review_sys = ReviewSystem::build(
        &eval.scene,
        ReviewConfig {
            box_size: 400.0,
            ..Default::default()
        },
    )
    .expect("review");
    let mut review = ReviewWalkthrough::new(review_sys, eval.table.clone(), eval.grid.clone());
    let mr = run_session(&mut review, &session).unwrap();
    rows.push(vec![
        "REVIEW".into(),
        format!("{:.2}", mr.avg_frame_time_ms()),
        format!("{:.2}", mr.variance_frame_time()),
        "57.84".into(),
        "16.46".into(),
    ]);

    print_table(
        "Table 3: frame time of session 1 at different thresholds",
        &[
            "eta",
            "avg frame (ms)",
            "variance",
            "paper avg",
            "paper var",
        ],
        &rows,
    );
    println!(
        "memory: VISUAL peak {} vs REVIEW peak {} (paper: 28 MB vs 62 MB at full scale)",
        fmt_bytes(visual_peak),
        fmt_bytes(review.peak_memory_bytes())
    );
    write_csv(
        "table3_frametime",
        &["eta", "avg_ms", "variance", "paper_avg", "paper_var"],
        &rows,
    );
}
