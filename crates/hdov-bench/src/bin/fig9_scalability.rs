//! **Figure 9** — scalability of the visibility query with dataset size
//! (400 MB → 1.6 GB nominal): average search time (9a) and I/O cost (9b) of
//! the traversal only, models excluded.
//!
//! Paper shape: both grow only marginally with a 4× larger dataset.

use hdov_bench::{fmt_bytes, mean, print_table, write_csv, EvalScene, RunOptions};
use hdov_core::{Query, StorageScheme};
use hdov_scene::DatasetPreset;

fn main() {
    let opts = RunOptions::from_args();
    hdov_bench::start_metrics();
    let queries = if opts.quick { 100 } else { 1000 };
    let eta = 0.001;

    let presets: &[DatasetPreset] = if opts.quick {
        &[DatasetPreset::Nominal400MB, DatasetPreset::Nominal1600MB]
    } else {
        &DatasetPreset::all()
    };

    let mut rows = Vec::new();
    for preset in presets {
        let eval = EvalScene::from_city(preset.config().seed(2003), &opts);
        let mut env = eval.environment(StorageScheme::IndexedVertical);
        let viewpoints = eval.random_viewpoints(queries, 9);
        let (mut t, mut io) = (Vec::new(), Vec::new());
        for &vp in &viewpoints {
            let (_, st) = env.query(Query::new(env.cell_of(vp), eta)).unwrap();
            t.push(st.traversal_time_ms());
            io.push(st.light_io().page_reads as f64);
        }
        rows.push(vec![
            format!("{} MB (nominal)", preset.nominal_mb()),
            fmt_bytes(eval.scene.total_model_bytes()),
            eval.scene.len().to_string(),
            format!("{:.3}", mean(t.iter().copied())),
            format!("{:.2}", mean(io.iter().copied())),
        ]);
    }
    print_table(
        &format!("Figure 9: scalability of the visibility query (eta = {eta}, {queries} queries)"),
        &[
            "dataset",
            "actual bytes",
            "objects",
            "9a avg search time (ms)",
            "9b avg light I/Os",
        ],
        &rows,
    );
    println!("paper shape: near-flat growth across the 4x size range");
    write_csv(
        "fig9_scalability",
        &[
            "dataset_mb",
            "actual_bytes",
            "objects",
            "search_ms",
            "light_ios",
        ],
        &rows,
    );
    hdov_bench::write_metrics_snapshot(
        "fig9_scalability",
        1,
        &[
            "dataset_mb",
            "actual_bytes",
            "objects",
            "search_ms",
            "light_ios",
        ],
        &rows,
    );
}
