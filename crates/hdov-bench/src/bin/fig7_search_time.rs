//! **Figure 7** — visibility-query search time vs η for the three storage
//! schemes and the naïve (cell, list-of-objects) method.
//!
//! Paper shape: all HDoV curves fall as η grows; η = 0 ≈ naïve; the
//! horizontal scheme is worst (scattered V-pages); vertical ≈
//! indexed-vertical with the latter marginally better.

use hdov_bench::{answers_digest, mean, print_table, write_csv, EvalScene, RunOptions, ETA_SWEEP};
use hdov_core::{Query, StorageScheme};

fn main() {
    let opts = RunOptions::from_args();
    hdov_bench::start_metrics();
    let eval = EvalScene::standard(&opts);
    let viewpoints = eval.random_viewpoints(opts.query_count(), 7);
    println!(
        "{} visibility queries per point, {} objects, {} cells, backend {}, codec {}",
        viewpoints.len(),
        eval.scene.len(),
        eval.grid.cell_count(),
        opts.backend.label(),
        opts.codec.label()
    );

    let mut envs: Vec<_> = StorageScheme::all()
        .into_iter()
        .map(|s| {
            let mut env = eval.environment(s);
            opts.relocate("fig7_search_time", &mut env);
            (s, env)
        })
        .collect();

    let mut rows = Vec::new();
    let mut wall_rows = Vec::new();
    let mut answer_rows = Vec::new();
    for eta in ETA_SWEEP {
        let mut row = vec![format!("{eta}")];
        let mut wall_row = vec![format!("{eta}")];
        let mut answer_row = vec![format!("{eta}")];
        for (_, env) in envs.iter_mut() {
            let t0 = std::time::Instant::now();
            let mut digest = 0u64;
            let t = mean(viewpoints.iter().map(|&vp| {
                let (r, st) = env.query(Query::new(env.cell_of(vp), eta)).unwrap();
                digest = digest.rotate_left(1) ^ answers_digest(&r, &st);
                st.search_time_ms()
            }));
            wall_row.push(format!("{}", t0.elapsed().as_nanos()));
            row.push(format!("{t:.2}"));
            answer_row.push(format!("{digest:016x}"));
        }
        // Naïve baseline (storage-agnostic per-object access; run against
        // the indexed store whose sparse segments model its per-cell lists).
        let naive_env = &mut envs[2].1;
        let t0 = std::time::Instant::now();
        let mut digest = 0u64;
        let tn = mean(viewpoints.iter().map(|&vp| {
            let (r, st) = naive_env.query_naive(vp).unwrap();
            digest = digest.rotate_left(1) ^ answers_digest(&r, &st);
            st.search_time_ms()
        }));
        wall_row.push(format!("{}", t0.elapsed().as_nanos()));
        row.push(format!("{tn:.2}"));
        answer_row.push(format!("{digest:016x}"));
        rows.push(row);
        wall_rows.push(wall_row);
        answer_rows.push(answer_row);
    }
    print_table(
        "Figure 7: average search time (ms) vs eta",
        &["eta", "horizontal", "vertical", "indexed-vertical", "naive"],
        &rows,
    );
    println!("paper shape: curves fall with eta; eta=0 ~= naive; horizontal worst; indexed best");
    write_csv(
        "fig7_search_time",
        &[
            "eta",
            "horizontal_ms",
            "vertical_ms",
            "indexed_ms",
            "naive_ms",
        ],
        &rows,
    );
    // Codec-invariant answer digests: the CI codec-equivalence job compares
    // this file byte-for-byte between `--codec raw` and `--codec delta`.
    write_csv(
        "fig7_answers",
        &["eta", "horizontal", "vertical", "indexed", "naive"],
        &answer_rows,
    );
    hdov_bench::write_metrics_snapshot(
        "fig7_search_time",
        1,
        &[
            "eta",
            "horizontal_ms",
            "vertical_ms",
            "indexed_ms",
            "naive_ms",
        ],
        &rows,
    );
    // Real wall-clock I/O of the file-backed run — a separate, never-gated
    // snapshot (`*.wall_ns` is on the tolerance ignore list); the CSV above
    // stays purely simulated and byte-identical across backends.
    if opts.backend.is_file() {
        hdov_bench::write_metrics_snapshot(
            "fig7_search_time_wall",
            1,
            &[
                "eta",
                "horizontal.wall_ns",
                "vertical.wall_ns",
                "indexed.wall_ns",
                "naive.wall_ns",
            ],
            &wall_rows,
        );
    }
}
