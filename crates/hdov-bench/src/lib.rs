//! Shared infrastructure for the table/figure harness binaries.
//!
//! Every binary reproduces one table or figure of the paper's §5 and prints
//! the paper's reported values next to the measured ones. Pass `--quick` to
//! any binary for a fast smoke run on a smaller scene (shapes hold, absolute
//! numbers shrink); results are also written as CSV under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use hdov_core::{
    HdovBuildConfig, HdovEnvironment, QueryResult, ResultKey, SearchStats, StorageScheme,
    VPageCodec,
};
use hdov_geom::Vec3;
use hdov_scene::{CityConfig, Scene};
use hdov_storage::StorageBackend;
use hdov_visibility::{CellGrid, CellGridConfig, DovConfig, DovTable};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

/// Paper η sweep of Figs. 7–8 (the text: "η values in [0, 0.008]"), plus
/// two extended points showing where our scaled scene's curves flatten
/// past the paper's endpoint (see EXPERIMENTS.md).
pub const ETA_SWEEP: [f64; 8] = [0.0, 0.0005, 0.001, 0.002, 0.004, 0.008, 0.012, 0.016];

/// Table 3's η column.
pub const TABLE3_ETAS: [f64; 9] = [
    0.0, 0.00005, 0.0001, 0.0002, 0.0003, 0.0005, 0.001, 0.002, 0.004,
];

/// Harness run options.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Smaller scene, fewer queries (CI / smoke).
    pub quick: bool,
    /// Where frozen stores live during the run (`--backend
    /// mem|file|file:mmap|file:pread`, default `mem`). `mem` serves every
    /// frozen store from memory; the file backends serialize each built
    /// store under the store directory (`results/store`, or
    /// `HDOV_STORE_DIR`) and serve pages from it, mmap'd or via positioned
    /// reads. CSV cells derive exclusively from the simulated cost model,
    /// so they are byte-identical across backends — the file backends add
    /// *wall-clock* I/O measurements as a separate, never-gated metrics
    /// snapshot. The backend's replica count (`--backend file:mmap@2` or
    /// `--replicas N`) changes nothing either, outside faults.
    pub backend: StorageBackend,
    /// V-page wire format (`--codec raw|delta`). Answers are byte-identical
    /// across codecs; simulated I/O and storage footprints are not.
    pub codec: VPageCodec,
}

impl RunOptions {
    /// Parses `--quick`, `--backend <mem|file|file:mmap|file:pread>` (with
    /// an optional `@N` replica suffix, see [`StorageBackend::from_arg`]),
    /// `--replicas <n>`, and `--codec <raw|delta>` (also the `--flag=<...>`
    /// forms) from the process arguments. A bad value exits with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick" || a == "-q");
        let store_dir = std::env::var_os("HDOV_STORE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("results/store"));
        let mut backend = StorageBackend::Mem;
        let mut codec = VPageCodec::default();
        let mut replicas = 1usize;
        for (i, a) in args.iter().enumerate() {
            let val = if let Some(v) = a.strip_prefix("--backend=") {
                Some(v.to_string())
            } else if a == "--backend" {
                args.get(i + 1).cloned()
            } else {
                None
            };
            if let Some(v) = val {
                let parsed = StorageBackend::from_arg(&v, &store_dir).unwrap_or_else(|| {
                    eprintln!(
                        "unknown --backend {v:?}; use mem, file, file:mmap, or file:pread \
                         (the file backends optionally with an @N replica suffix, N >= 1)"
                    );
                    std::process::exit(2);
                });
                backend = if v.contains('@') {
                    replicas = parsed.replicas();
                    parsed
                } else {
                    parsed.replicated(replicas)
                };
            }
            let rval = if let Some(v) = a.strip_prefix("--replicas=") {
                Some(v.to_string())
            } else if a == "--replicas" {
                args.get(i + 1).cloned()
            } else {
                None
            };
            if let Some(v) = rval {
                replicas = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("bad --replicas {v:?}; use an integer >= 1");
                        std::process::exit(2);
                    });
                backend = backend.replicated(replicas);
            }
            let cval = if let Some(v) = a.strip_prefix("--codec=") {
                Some(v.to_string())
            } else if a == "--codec" {
                args.get(i + 1).cloned()
            } else {
                None
            };
            if let Some(v) = cval {
                codec = VPageCodec::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown --codec {v:?}; use raw or delta");
                    std::process::exit(2);
                });
            }
        }
        if replicas > 1 && !backend.is_file() {
            eprintln!("--replicas {replicas} needs a file backend (mem stores are not replicated)");
            std::process::exit(2);
        }
        RunOptions {
            quick,
            backend,
            codec,
        }
    }

    /// The selected backend for harness binary `bin`: file stores go under
    /// `<store dir>/<bin>`, so parallel binaries never truncate each
    /// other's live mappings.
    pub fn storage(&self, bin: &str) -> StorageBackend {
        let mut backend = self.backend.clone();
        if let StorageBackend::File { dir, .. } = &mut backend {
            *dir = dir.join(bin);
        }
        backend
    }

    /// Relocates `env` onto the selected backend (a no-op on `mem`, so the
    /// default path is byte-for-byte the historical in-memory run). `bin`
    /// names the store directory — pass the binary's snapshot name.
    pub fn relocate(&self, bin: &str, env: &mut HdovEnvironment) {
        if self.backend.is_file() {
            env.relocate(&self.storage(bin))
                .expect("relocate environment onto file backend");
        }
    }

    /// Number of visibility queries for Fig. 7/8-style sweeps.
    pub fn query_count(&self) -> usize {
        if self.quick {
            200
        } else {
            2000
        }
    }

    /// Session length in frames.
    pub fn session_frames(&self) -> usize {
        if self.quick {
            80
        } else {
            400
        }
    }
}

/// The evaluation scene bundle shared by the harness binaries.
pub struct EvalScene {
    /// The generated city.
    pub scene: Scene,
    /// The viewing-cell grid, shared (`Arc`) by every system under test.
    pub grid: Arc<CellGrid>,
    /// Ground-truth DoV table, shared (`Arc`) by every system under test —
    /// cloning the handle is a pointer bump, not a copy of the table.
    pub table: Arc<DovTable>,
    /// The build configuration used for HDoV environments.
    pub build_cfg: HdovBuildConfig,
}

impl EvalScene {
    /// Builds the default evaluation scene (the paper's "default dataset",
    /// byte-scaled; see DESIGN.md §3).
    pub fn standard(opts: &RunOptions) -> EvalScene {
        let city = if opts.quick {
            CityConfig::small()
        } else {
            CityConfig::default_paper()
        };
        Self::from_city(city.seed(2003), opts)
    }

    /// Builds an evaluation bundle from an explicit city config.
    pub fn from_city(city: CityConfig, opts: &RunOptions) -> EvalScene {
        let scene = city.generate();
        let (nx, ny) = if opts.quick { (8, 8) } else { (24, 24) };
        let grid = CellGridConfig::for_scene(&scene)
            .with_resolution(nx, ny)
            .build();
        let dov = DovConfig {
            rays_per_viewpoint: if opts.quick { 2048 } else { 8192 },
            viewpoints_per_cell: 5,
            seed: 2003,
            ..Default::default()
        };
        let build_cfg = HdovBuildConfig {
            dov,
            codec: opts.codec,
            ..Default::default()
        };
        let table = DovTable::compute(&scene, &grid, &dov, 0);
        EvalScene {
            scene,
            grid: Arc::new(grid),
            table: Arc::new(table),
            build_cfg,
        }
    }

    /// Instantiates an HDoV environment with the given storage scheme,
    /// reusing the shared DoV table.
    pub fn environment(&self, scheme: StorageScheme) -> HdovEnvironment {
        HdovEnvironment::build_with_table(
            &self.scene,
            self.grid.clone(),
            self.build_cfg.clone(),
            scheme,
            self.table.clone(),
        )
        .expect("environment build")
    }

    /// `n` deterministic random viewpoints inside the walkable region
    /// ("random viewpoint positions obtained from the precomputed cells").
    pub fn random_viewpoints(&self, n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = hdov_geom::sampling::SplitMix64::new(seed);
        let r = self.scene.viewpoint_region();
        let e = r.extent();
        (0..n)
            .map(|_| {
                Vec3::new(
                    r.min.x + rng.next_f64() * e.x,
                    r.min.y + rng.next_f64() * e.y,
                    (r.min.z + r.max.z) * 0.5,
                )
            })
            .collect()
    }
}

/// Formats bytes human-readably.
pub fn fmt_bytes(b: u64) -> String {
    const KB: f64 = 1024.0;
    let b = b as f64;
    if b >= KB * KB * KB {
        format!("{:.2} GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.1} MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1} KB", b / KB)
    } else {
        format!("{b:.0} B")
    }
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:<w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Writes rows as CSV under `results/<name>.csv` (best effort — harness
/// output is also printed).
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let dir = PathBuf::from("results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    let Ok(mut f) = std::fs::File::create(&path) else {
        return;
    };
    let _ = writeln!(f, "{}", headers.join(","));
    for row in rows {
        let _ = writeln!(f, "{}", row.join(","));
    }
    println!("[csv] wrote {}", path.display());
}

/// Turns instrumentation on (and clears any previous state) for a harness
/// binary that will emit a metrics snapshot at the end of its run.
pub fn start_metrics() {
    hdov_obs::reset();
    hdov_obs::enable();
}

/// Writes `results/metrics/<name>.json`: the table the binary just printed,
/// flattened to gauges, merged with everything the obs registry recorded.
///
/// The first `label_cols` columns of each row identify it; each remaining
/// column becomes a gauge keyed `<h0><v0>[.<h1><v1>].<header>` (for example
/// `eta0.002.indexed_ms`). Cells that do not parse as numbers (for example
/// pretty-printed byte sizes) are skipped. Only CSV-formatted values enter
/// the snapshot, so gauges are exactly as machine-independent as the CSVs.
pub fn write_metrics_snapshot(
    name: &str,
    label_cols: usize,
    headers: &[&str],
    rows: &[Vec<String>],
) {
    let mut snap = hdov_obs::snapshot(name);
    hdov_obs::disable();
    for row in rows {
        let prefix: Vec<String> = (0..label_cols.min(row.len()))
            .map(|i| format!("{}{}", headers[i], row[i]))
            .collect();
        let prefix = prefix.join(".");
        for (header, cell) in headers.iter().zip(row).skip(label_cols) {
            if let Ok(v) = cell.parse::<f64>() {
                snap.set_gauge(format!("{prefix}.{header}"), v);
            }
        }
    }
    let dir = PathBuf::from("results/metrics");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if std::fs::write(&path, snap.to_json()).is_ok() {
        println!("[metrics] wrote {}", path.display());
    }
}

/// Codec-invariant digest of one query's outcome: an FNV-1a hash (the
/// storage layer's `page_checksum`) over the serialized result entries and
/// the traversal counters. Simulated I/O charges are deliberately excluded —
/// they legitimately shrink under the Delta codec — so this digest must be
/// byte-identical between `--codec raw` and `--codec delta` runs; the CI
/// `codec-equivalence` job compares the `*_answers.csv` files built from it.
pub fn answers_digest(r: &QueryResult, st: &SearchStats) -> u64 {
    let mut bytes = Vec::with_capacity(16 + r.entries().len() * 37);
    for e in r.entries() {
        match e.key {
            ResultKey::Object(h) => {
                bytes.push(0);
                bytes.extend_from_slice(&h.to_le_bytes());
            }
            ResultKey::Internal(o) => {
                bytes.push(1);
                bytes.extend_from_slice(&u64::from(o).to_le_bytes());
            }
        }
        bytes.extend_from_slice(&(e.level as u64).to_le_bytes());
        bytes.extend_from_slice(&e.polygons.to_le_bytes());
        bytes.extend_from_slice(&e.bytes.to_le_bytes());
        bytes.extend_from_slice(&e.dov.to_bits().to_le_bytes());
    }
    bytes.extend_from_slice(&st.nodes_visited.to_le_bytes());
    bytes.extend_from_slice(&st.vpages_fetched.to_le_bytes());
    hdov_storage::page_checksum(&bytes)
}

/// Mean of an iterator.
pub fn mean(it: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = it.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn fmt_bytes_ranges() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0 MB");
        assert!(fmt_bytes(5 * 1024 * 1024 * 1024).contains("GB"));
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean([1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean([]), 0.0);
    }

    #[test]
    fn run_options_defaults() {
        let o = RunOptions {
            quick: false,
            backend: StorageBackend::Mem,
            codec: VPageCodec::Delta,
        };
        assert_eq!(o.query_count(), 2000);
        assert_eq!(o.session_frames(), 400);
        let q = RunOptions {
            quick: true,
            backend: StorageBackend::Mem,
            codec: VPageCodec::Delta,
        };
        assert!(q.query_count() < o.query_count());
        assert!(q.session_frames() < o.session_frames());
    }

    #[test]
    fn storage_dir_is_per_binary() {
        let mut o = RunOptions {
            quick: true,
            backend: StorageBackend::Mem,
            codec: VPageCodec::Delta,
        };
        assert_eq!(o.storage("fig7"), StorageBackend::Mem);
        o.backend = StorageBackend::from_arg("file:pread@2", Path::new("stores")).unwrap();
        let s = o.storage("fig7");
        assert_eq!((s.label(), s.replicas()), ("file:pread", 2));
        if let StorageBackend::File { dir, .. } = &s {
            assert_eq!(dir, Path::new("stores/fig7"));
        }
    }

    /// Heavy smoke test over the shared harness plumbing; run with
    /// `cargo test -p hdov-bench -- --ignored`.
    #[test]
    #[ignore = "builds a full quick-mode evaluation scene (~seconds)"]
    fn eval_scene_smoke() {
        let opts = RunOptions {
            quick: true,
            backend: StorageBackend::Mem,
            codec: VPageCodec::Delta,
        };
        let eval = EvalScene::standard(&opts);
        assert!(eval.scene.len() > 100);
        assert_eq!(eval.table.cell_count(), eval.grid.cell_count());
        let vps = eval.random_viewpoints(10, 1);
        assert_eq!(vps.len(), 10);
        let mut env = eval.environment(hdov_core::StorageScheme::IndexedVertical);
        let q = hdov_core::Query::new(env.cell_of(vps[0]), 0.001);
        let (r, st) = env.query(q).unwrap();
        assert!(!r.entries().is_empty());
        assert!(st.search_time_ms() > 0.0);
    }

    #[test]
    fn eta_sweep_matches_paper_range() {
        assert_eq!(ETA_SWEEP[0], 0.0);
        // The paper's range is [0, 0.008]; two extended points follow.
        assert!(ETA_SWEEP.contains(&0.008));
        assert!(ETA_SWEEP.windows(2).all(|w| w[0] < w[1]));
        assert!(TABLE3_ETAS.windows(2).all(|w| w[0] < w[1]));
    }
}
