//! **Figure 8** — disk I/Os of the visibility query vs η
//! (indexed-vertical scheme vs the naïve method).
//!
//! * 8(a): total page I/Os including the heavy-weight model data — HDoV
//!   always at or below naïve, falling with η.
//! * 8(b): light-weight I/Os (tree nodes + V-pages only) — HDoV *above*
//!   naïve at tiny η (it pays for internal nodes), converging toward it as
//!   η grows and subtrees terminate early. Under the packing-aware cost
//!   model (one-page read buffer, DESIGN.md §15) the naïve V-page pass is
//!   perfectly sequential and nearly free, so the paper's crossover point
//!   itself is not observable at our scale (EXPERIMENTS.md).

use hdov_bench::{answers_digest, mean, print_table, write_csv, EvalScene, RunOptions, ETA_SWEEP};
use hdov_core::{Query, StorageScheme};

fn main() {
    let opts = RunOptions::from_args();
    hdov_bench::start_metrics();
    let eval = EvalScene::standard(&opts);
    let viewpoints = eval.random_viewpoints(opts.query_count(), 8);
    let mut env = eval.environment(StorageScheme::IndexedVertical);
    opts.relocate("fig8_io", &mut env);

    // Naïve reference (η-independent).
    let mut naive_digest = 0u64;
    let naive_total = mean(viewpoints.iter().map(|&vp| {
        let (r, st) = env.query_naive(vp).unwrap();
        naive_digest = naive_digest.rotate_left(1) ^ answers_digest(&r, &st);
        st.total_io().page_reads as f64
    }));
    let naive_light = mean(viewpoints.iter().map(|&vp| {
        let (_, st) = env.query_naive(vp).unwrap();
        st.light_io().page_reads as f64
    }));

    let mut rows = Vec::new();
    let mut wall_rows = Vec::new();
    let mut answer_rows = Vec::new();
    for eta in ETA_SWEEP {
        let (mut total, mut light) = (Vec::new(), Vec::new());
        let mut digest = 0u64;
        let t0 = std::time::Instant::now();
        for &vp in &viewpoints {
            let (r, st) = env.query(Query::new(env.cell_of(vp), eta)).unwrap();
            digest = digest.rotate_left(1) ^ answers_digest(&r, &st);
            total.push(st.total_io().page_reads as f64);
            light.push(st.light_io().page_reads as f64);
        }
        wall_rows.push(vec![
            format!("{eta}"),
            format!("{}", t0.elapsed().as_nanos()),
        ]);
        answer_rows.push(vec![
            format!("{eta}"),
            format!("{digest:016x}"),
            format!("{naive_digest:016x}"),
        ]);
        rows.push(vec![
            format!("{eta}"),
            format!("{:.1}", mean(total)),
            format!("{naive_total:.1}"),
            format!("{:.2}", mean(light)),
            format!("{naive_light:.2}"),
        ]);
    }
    print_table(
        "Figure 8: page I/Os per query vs eta (indexed-vertical vs naive)",
        &[
            "eta",
            "8a total (HDoV)",
            "8a total (naive)",
            "8b light (HDoV)",
            "8b light (naive)",
        ],
        &rows,
    );
    println!("paper shape: 8a falls with eta, crossing below naive; 8b falls toward flat naive");
    write_csv(
        "fig8_io",
        &[
            "eta",
            "hdov_total",
            "naive_total",
            "hdov_light",
            "naive_light",
        ],
        &rows,
    );
    // Codec-invariant answer digests (see fig7): compared byte-for-byte
    // between `--codec raw` and `--codec delta` by the CI equivalence job.
    write_csv("fig8_answers", &["eta", "hdov", "naive"], &answer_rows);
    hdov_bench::write_metrics_snapshot(
        "fig8_io",
        1,
        &[
            "eta",
            "hdov_total",
            "naive_total",
            "hdov_light",
            "naive_light",
        ],
        &rows,
    );
    // Wall-clock I/O of the file-backed run (never gated; see fig7).
    if opts.backend.is_file() {
        hdov_bench::write_metrics_snapshot("fig8_io_wall", 1, &["eta", "hdov.wall_ns"], &wall_rows);
    }
}
