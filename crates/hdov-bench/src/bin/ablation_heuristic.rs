//! **Ablation** — the internal-LoD termination guard of Fig. 3 line 7:
//! the paper's Eq. 4 log-form vs the exact Eq. 3 polygon comparison vs no
//! guard at all ("always terminate when DoV ≤ η").
//!
//! The guard exists because "the LoD of a node which has small DoV may
//! contain more polygons than the sum of its visible descendants" (§3.3).
//! This ablation measures how each variant trades rendered polygons against
//! model I/O across the η sweep.

use hdov_bench::{mean, print_table, write_csv, EvalScene, RunOptions, ETA_SWEEP};
use hdov_core::{HdovBuildConfig, HdovEnvironment, Query, StorageScheme, TerminationHeuristic};

fn main() {
    let opts = RunOptions::from_args();
    let eval = EvalScene::standard(&opts);
    let viewpoints = eval.random_viewpoints(opts.query_count() / 4, 32);

    let variants = [
        ("Eq. 4 (paper)", TerminationHeuristic::Eq4),
        ("exact Eq. 3", TerminationHeuristic::Exact),
        ("no guard", TerminationHeuristic::Always),
    ];
    let mut envs: Vec<(&str, HdovEnvironment)> = variants
        .into_iter()
        .map(|(label, heuristic)| {
            let cfg = HdovBuildConfig {
                heuristic,
                ..eval.build_cfg.clone()
            };
            let env = HdovEnvironment::build_with_table(
                &eval.scene,
                eval.grid.clone(),
                cfg,
                StorageScheme::IndexedVertical,
                eval.table.clone(),
            )
            .expect("build");
            (label, env)
        })
        .collect();

    let mut rows = Vec::new();
    for eta in ETA_SWEEP {
        let mut row = vec![format!("{eta}")];
        for (_, env) in envs.iter_mut() {
            let (mut polys, mut heavy) = (Vec::new(), Vec::new());
            for &vp in &viewpoints {
                let (r, st) = env.query(Query::new(env.cell_of(vp), eta)).unwrap();
                polys.push(r.total_polygons() as f64);
                heavy.push(st.heavy_io().page_reads as f64);
            }
            row.push(format!("{:.0}", mean(polys)));
            row.push(format!("{:.1}", mean(heavy)));
        }
        rows.push(row);
    }
    print_table(
        "Ablation: internal-LoD termination guard (polygons | heavy I/Os per query)",
        &[
            "eta",
            "Eq4 polys",
            "Eq4 I/O",
            "exact polys",
            "exact I/O",
            "no-guard polys",
            "no-guard I/O",
        ],
        &rows,
    );
    println!(
        "expected: 'no guard' minimizes I/O but can inflate polygons at large eta; \
         Eq. 4 and exact stay close, exact slightly safer on polygons"
    );
    write_csv(
        "ablation_heuristic",
        &[
            "eta",
            "eq4_polys",
            "eq4_io",
            "exact_polys",
            "exact_io",
            "always_polys",
            "always_io",
        ],
        &rows,
    );
}
