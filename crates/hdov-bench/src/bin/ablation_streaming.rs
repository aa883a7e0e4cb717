//! **Ablation** — frame-budgeted streaming: sweep the per-frame loading
//! budget of [`StreamingVisualSystem`] and measure the smoothness/fidelity
//! trade-off against unbounded VISUAL.
//!
//! This quantifies the paper's §3.2 "third advantage" (prioritized
//! traversal "can further improve the response time significantly"): a
//! budget clips the p95/max frame time while prioritized ordering keeps the
//! coverage loss small and transient.

use hdov_bench::{print_table, write_csv, EvalScene, RunOptions};
use hdov_core::StorageScheme;
use hdov_walkthrough::{run_session, Session, SessionKind, StreamingVisualSystem, VisualSystem};

fn main() {
    let opts = RunOptions::from_args();
    let eval = EvalScene::standard(&opts);
    let session = Session::record(
        eval.scene.viewpoint_region(),
        SessionKind::Normal,
        opts.session_frames(),
        50,
    );
    let eta = 0.001;

    // Reference: unbounded VISUAL.
    let mut unbounded =
        VisualSystem::new(eval.environment(StorageScheme::IndexedVertical), eta).expect("visual");
    let mu = run_session(&mut unbounded, &session).unwrap();

    let mut rows = vec![vec![
        "unbounded".to_string(),
        format!("{:.1}", mu.avg_frame_time_ms()),
        format!("{:.1}", mu.frame_time_percentile(95.0)),
        format!("{:.1}", mu.max_frame_time_ms()),
        format!("{:.4}", mu.avg_dov_coverage()),
        format!("{:.4}", mu.min_dov_coverage()),
        "0".to_string(),
    ]];

    for fraction in [2.0, 1.0, 0.5, 0.25] {
        let budget = mu.avg_search_time_ms() * fraction;
        let mut sys = StreamingVisualSystem::new(
            eval.environment(StorageScheme::IndexedVertical),
            eta,
            budget,
        )
        .expect("streaming");
        let m = run_session(&mut sys, &session).unwrap();
        rows.push(vec![
            format!("{budget:.0} ms/frame"),
            format!("{:.1}", m.avg_frame_time_ms()),
            format!("{:.1}", m.frame_time_percentile(95.0)),
            format!("{:.1}", m.max_frame_time_ms()),
            format!("{:.4}", m.avg_dov_coverage()),
            format!("{:.4}", m.min_dov_coverage()),
            sys.truncated_frames().to_string(),
        ]);
    }
    print_table(
        &format!(
            "Ablation: streaming frame budgets over {} frames (eta = {eta})",
            session.len()
        ),
        &[
            "loading budget",
            "avg frame (ms)",
            "p95 (ms)",
            "max (ms)",
            "avg coverage",
            "worst coverage",
            "truncated",
        ],
        &rows,
    );
    println!(
        "expected: smaller budgets clip p95/max frame times; coverage dips \
         transiently (worst frame) but the session average stays high because \
         prioritized loading front-loads the visible mass"
    );
    write_csv(
        "ablation_streaming",
        &[
            "budget",
            "avg_ms",
            "p95_ms",
            "max_ms",
            "avg_cov",
            "min_cov",
            "truncated",
        ],
        &rows,
    );
}
