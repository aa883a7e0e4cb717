//! **Ablation** — R-tree backbone construction: the paper's Ang–Tan linear
//! split vs Guttman's quadratic split vs STR bulk loading.
//!
//! The paper chose the Ang–Tan split "to minimize the overlap of the
//! bounding boxes" (§5.1). This ablation quantifies what the backbone buys:
//! node count, tree height, and the light-weight I/O of HDoV queries over
//! the same scene and DoV data.

use hdov_bench::{mean, print_table, write_csv, EvalScene, RunOptions};
use hdov_core::{HdovBuildConfig, HdovEnvironment, Query, StorageScheme};
use hdov_rtree::SplitMethod;

fn main() {
    let opts = RunOptions::from_args();
    let eval = EvalScene::standard(&opts);
    let viewpoints = eval.random_viewpoints(opts.query_count() / 4, 31);

    let variants: [(&str, SplitMethod, bool); 3] = [
        ("Ang-Tan linear (paper)", SplitMethod::AngTanLinear, false),
        ("Guttman quadratic", SplitMethod::GuttmanQuadratic, false),
        ("STR bulk load", SplitMethod::AngTanLinear, true),
    ];

    let mut rows = Vec::new();
    for (label, split, bulk) in variants {
        let cfg = HdovBuildConfig {
            split,
            bulk_load: bulk,
            ..eval.build_cfg.clone()
        };
        let build_start = std::time::Instant::now();
        let mut env = HdovEnvironment::build_with_table(
            &eval.scene,
            eval.grid.clone(),
            cfg,
            StorageScheme::IndexedVertical,
            eval.table.clone(),
        )
        .expect("build");
        let build_s = build_start.elapsed().as_secs_f64();

        let light = mean(viewpoints.iter().map(|&vp| {
            let (_, st) = env.query(Query::new(env.cell_of(vp), 0.001)).unwrap();
            st.light_io().page_reads as f64
        }));
        let time = mean(viewpoints.iter().map(|&vp| {
            let (_, st) = env.query(Query::new(env.cell_of(vp), 0.001)).unwrap();
            st.search_time_ms()
        }));
        rows.push(vec![
            label.to_string(),
            env.tree().node_count().to_string(),
            env.tree().height().to_string(),
            format!("{build_s:.2}"),
            format!("{light:.1}"),
            format!("{time:.2}"),
        ]);
    }
    print_table(
        "Ablation: backbone construction method",
        &[
            "backbone",
            "nodes",
            "height",
            "build wall (s)",
            "light I/Os/query",
            "search (ms)",
        ],
        &rows,
    );
    write_csv(
        "ablation_split",
        &[
            "backbone",
            "nodes",
            "height",
            "build_s",
            "light_ios",
            "search_ms",
        ],
        &rows,
    );
}
