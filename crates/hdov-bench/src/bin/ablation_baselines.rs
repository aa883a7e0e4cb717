//! **Ablation** — three-way baseline comparison: VISUAL (HDoV-tree) vs
//! REVIEW (window queries, VLDB'01) vs the LoD-R-tree (related work \[8\]).
//!
//! The paper argues (§2) that the LoD-R-tree "leads to high frame rates as
//! long as the user stays within the viewing-frustum \[but\] its performance
//! degenerates significantly as the user view changes", while REVIEW is
//! view-independent but fetches hidden objects, and the HDoV-tree dominates
//! both. The three sessions of Fig. 12 separate these regimes: session 2
//! (turning) is the LoD-R-tree's worst case.

use hdov_bench::{print_table, write_csv, EvalScene, RunOptions};
use hdov_core::StorageScheme;
use hdov_review::{LodRTreeConfig, LodRTreeSystem, ReviewConfig, ReviewSystem};
use hdov_walkthrough::{
    run_session, LodRTreeWalkthrough, ReviewWalkthrough, Session, SessionKind, VisualSystem,
    WalkthroughMetrics, WalkthroughSystem,
};

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
    let lod_sys = LodRTreeSystem::build(
        &eval.scene,
        LodRTreeConfig {
            view_range: 400.0,
            ..Default::default()
        },
    )
    .expect("lod-r-tree");
    let mut lodr = LodRTreeWalkthrough::new(lod_sys, eval.table.clone(), eval.grid.clone());

    let mut rows = Vec::new();
    for (i, kind) in SessionKind::all().into_iter().enumerate() {
        let session = Session::record(
            eval.scene.viewpoint_region(),
            kind,
            opts.session_frames(),
            40 + i as u64,
        );
        let systems: Vec<(&mut dyn WalkthroughSystem, &str)> = vec![
            (&mut visual, "VISUAL"),
            (&mut review, "REVIEW"),
            (&mut lodr, "LoD-R-tree"),
        ];
        for (sys, label) in systems {
            let m: WalkthroughMetrics = run_session(sys, &session).unwrap();
            rows.push(vec![
                kind.label().to_string(),
                label.to_string(),
                format!("{:.2}", m.avg_frame_time_ms()),
                format!("{:.2}", m.max_frame_time_ms()),
                format!("{:.4}", m.avg_dov_coverage()),
                format!("{:.1}", m.avg_missed_objects()),
            ]);
        }
    }
    print_table(
        "Ablation: VISUAL vs REVIEW vs LoD-R-tree across motion patterns",
        &[
            "session",
            "system",
            "avg frame (ms)",
            "max spike (ms)",
            "DoV coverage",
            "missed/frame",
        ],
        &rows,
    );
    println!(
        "expected: VISUAL dominates everywhere; the LoD-R-tree is competitive \
         on the normal walk but degenerates on the turning session (view-swung \
         refetch storms) and always misses out-of-band visible objects"
    );
    write_csv(
        "ablation_baselines",
        &[
            "session", "system", "avg_ms", "max_ms", "coverage", "missed",
        ],
        &rows,
    );
}
