//! **Ablation** — tree fan-out `M`: depth vs node size.
//!
//! `M` controls everything downstream: tree height, node count (hence the
//! storage formulas of §4), V-page record size, and how often the Eq. 4
//! guard fires. The paper fixes one R-tree page layout; this ablation sweeps
//! `M` over the same scene.

use hdov_bench::{fmt_bytes, mean, print_table, write_csv, EvalScene, RunOptions};
use hdov_core::{HdovBuildConfig, HdovEnvironment, Query, StorageScheme};

fn main() {
    let opts = RunOptions::from_args();
    let eval = EvalScene::standard(&opts);
    let viewpoints = eval.random_viewpoints(opts.query_count() / 4, 34);
    let eta = 0.001;

    let mut rows = Vec::new();
    for fanout in [4usize, 8, 16, 32] {
        let cfg = HdovBuildConfig {
            fanout,
            ..eval.build_cfg.clone()
        };
        let mut env = HdovEnvironment::build_with_table(
            &eval.scene,
            eval.grid.clone(),
            cfg,
            StorageScheme::IndexedVertical,
            eval.table.clone(),
        )
        .expect("build");
        let (mut time, mut light) = (Vec::new(), Vec::new());
        for &vp in &viewpoints {
            let (_, st) = env.query(Query::new(env.cell_of(vp), eta)).unwrap();
            time.push(st.search_time_ms());
            light.push(st.light_io().page_reads as f64);
        }
        rows.push(vec![
            fanout.to_string(),
            env.tree().node_count().to_string(),
            env.tree().height().to_string(),
            fmt_bytes(env.vstore().storage_bytes()),
            format!("{:.1}", mean(light)),
            format!("{:.2}", mean(time)),
        ]);
    }
    print_table(
        &format!("Ablation: fan-out M (indexed-vertical, eta = {eta})"),
        &[
            "M",
            "nodes",
            "height",
            "V-store size",
            "light I/Os/query",
            "search (ms)",
        ],
        &rows,
    );
    write_csv(
        "ablation_fanout",
        &[
            "fanout",
            "nodes",
            "height",
            "vstore_bytes",
            "light_ios",
            "search_ms",
        ],
        &rows,
    );
}
