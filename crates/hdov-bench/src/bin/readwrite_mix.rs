//! **Read/write mix** — query latency under concurrent scene mutation.
//!
//! At `--write-fraction 0` (the default) this binary replays Figure 7's
//! read-only sweep verbatim — same scene, same viewpoints, same loops — so
//! its CSV must be *byte-identical* to `fig7_search_time.csv`, and the new
//! write-path counters (`wal_appends`, `commits`, `cow_pages`,
//! `dov_repatches`) must all be zero. CI diffs both; together they pin the
//! invariant that the write path costs nothing until it is used.
//!
//! At `--write-fraction f > 0`, a [`MutableScene`] serves the reads while a
//! writer interleaves edit transactions: per η, `f · N` of the `N` loop
//! iterations are commits (translate one object), the rest are shared-pool
//! visibility queries against the currently published epoch. Reported:
//! simulated read latency, wall-clock commit latency, and dirty-cell counts.

use hdov_bench::{mean, print_table, write_csv, EvalScene, RunOptions, ETA_SWEEP};
use hdov_core::{MutableScene, PoolConfig, Query, SearchScratch, SessionCtx, StorageScheme};
use hdov_geom::Vec3;
use hdov_scene::CityConfig;
use hdov_storage::PAGE_SIZE;
use hdov_visibility::CellGridConfig;

fn write_fraction() -> f64 {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        let val = if let Some(v) = a.strip_prefix("--write-fraction=") {
            Some(v.to_string())
        } else if a == "--write-fraction" {
            args.get(i + 1).cloned()
        } else {
            None
        };
        if let Some(v) = val {
            return v.parse().unwrap_or_else(|_| {
                eprintln!("bad --write-fraction {v:?}; expected a number in [0, 1]");
                std::process::exit(2);
            });
        }
    }
    0.0
}

fn main() {
    let opts = RunOptions::from_args();
    let wf = write_fraction().clamp(0.0, 1.0);
    if wf == 0.0 {
        read_only(&opts);
    } else {
        read_write(&opts, wf);
    }
}

/// Figure 7's loop, verbatim (see that binary for commentary). Keeping the
/// two in lockstep is the point: CI `cmp`s the CSVs.
fn read_only(opts: &RunOptions) {
    hdov_bench::start_metrics();
    let eval = EvalScene::standard(opts);
    let viewpoints = eval.random_viewpoints(opts.query_count(), 7);
    println!(
        "{} visibility queries per point, {} objects, {} cells, backend {}, write fraction 0",
        viewpoints.len(),
        eval.scene.len(),
        eval.grid.cell_count(),
        opts.backend.label()
    );

    let mut envs: Vec<_> = StorageScheme::all()
        .into_iter()
        .map(|s| {
            let mut env = eval.environment(s);
            opts.relocate("readwrite_mix", &mut env);
            (s, env)
        })
        .collect();

    let mut rows = Vec::new();
    for eta in ETA_SWEEP {
        let mut row = vec![format!("{eta}")];
        for (_, env) in envs.iter_mut() {
            let t = mean(viewpoints.iter().map(|&vp| {
                let (_, st) = env.query(Query::new(env.cell_of(vp), eta)).unwrap();
                st.search_time_ms()
            }));
            row.push(format!("{t:.2}"));
        }
        let naive_env = &mut envs[2].1;
        let tn = mean(viewpoints.iter().map(|&vp| {
            let (_, st) = naive_env.query_naive(vp).unwrap();
            st.search_time_ms()
        }));
        row.push(format!("{tn:.2}"));
        rows.push(row);
    }
    print_table(
        "Read/write mix at write fraction 0: average search time (ms) vs eta",
        &["eta", "horizontal", "vertical", "indexed-vertical", "naive"],
        &rows,
    );
    println!("write fraction 0: rows must be byte-identical to fig7_search_time");
    write_csv(
        "readwrite_mix",
        &[
            "eta",
            "horizontal_ms",
            "vertical_ms",
            "indexed_ms",
            "naive_ms",
        ],
        &rows,
    );
    hdov_bench::write_metrics_snapshot(
        "readwrite_mix",
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
}

/// The mixed workload: reads against the published epoch, writes as
/// single-object translate commits.
fn read_write(opts: &RunOptions, wf: f64) {
    hdov_bench::start_metrics();
    let scene = if opts.quick {
        CityConfig::tiny().seed(2003).generate()
    } else {
        CityConfig::small().seed(2003).generate()
    };
    let grid_cfg = CellGridConfig {
        nx: 8,
        ny: 8,
        ..CellGridConfig::for_scene(&scene)
    };
    let mut cfg = hdov_core::HdovBuildConfig::default();
    cfg.dov.rays_per_viewpoint = 1024;
    cfg.dov.viewpoints_per_cell = 3;
    cfg.dov.seed = 2003;
    let dir = std::env::var_os("HDOV_STORE_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("results/store"))
        .join("readwrite_mix");
    std::fs::remove_dir_all(&dir).ok();
    let mut ms = MutableScene::create(
        &dir,
        "mix",
        &scene,
        &grid_cfg,
        cfg,
        StorageScheme::IndexedVertical,
        PoolConfig::default(),
    )
    .expect("create mutable scene");
    println!(
        "{} objects, {} cells, write fraction {wf}",
        ms.len(),
        ms.grid().cell_count()
    );

    let ops = if opts.quick { 60 } else { 200 };
    let mut rng = hdov_geom::sampling::SplitMix64::new(7);
    let mut rows = Vec::new();
    for eta in ETA_SWEEP {
        let mut read_ms = Vec::new();
        let mut commit_ms = Vec::new();
        let mut wal_pages = 0u64;
        let env0 = ms.current();
        let cells = env0.grid().cell_count() as u32;
        let mut ctx = SessionCtx::new();
        let mut scratch = SearchScratch::new();
        for _ in 0..ops {
            if rng.next_f64() < wf {
                let handles = ms.handles();
                let h = handles[(rng.next_u64() % handles.len() as u64) as usize];
                let delta = Vec3::new(
                    (rng.next_f64() - 0.5) * 20.0,
                    (rng.next_f64() - 0.5) * 20.0,
                    0.0,
                );
                ms.translate(h, delta).expect("translate");
                let wal_before = ms.store().wal_len();
                let t0 = std::time::Instant::now();
                ms.commit().expect("commit");
                commit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                wal_pages += (ms.store().wal_len() - wal_before) / PAGE_SIZE as u64;
                // A fresh epoch was published; follow it like a renderer
                // starting its next frame would.
                ctx = SessionCtx::new();
            } else {
                let env = ms.current();
                let cell = (rng.next_u64() % cells as u64) as u32;
                let q = Query::new(cell, eta);
                let st = env.search(&mut ctx, &mut scratch, q).expect("query");
                read_ms.push(st.search_time_ms());
            }
        }
        rows.push(vec![
            format!("{eta}"),
            format!("{:.2}", mean(read_ms)),
            format!("{:.2}", mean(commit_ms)),
            format!("{wal_pages}"),
        ]);
    }
    print_table(
        &format!("Read/write mix at write fraction {wf}"),
        &["eta", "read_ms", "commit_wall_ms", "wal_pages"],
        &rows,
    );
    println!("reads stay on the published epoch; commits re-estimate only dirty cells");
    write_csv(
        "readwrite_mix_rw",
        &["eta", "read_ms", "commit_wall_ms", "wal_pages"],
        &rows,
    );
    hdov_bench::write_metrics_snapshot(
        "readwrite_mix_rw",
        1,
        &["eta", "read_ms", "commit_wall_ms", "wal_pages"],
        &rows,
    );
}
