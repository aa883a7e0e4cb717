//! **Ablation** — disk technology sensitivity: does the storage-scheme
//! ranking of Fig. 7 survive on a seek-cheap modern device?
//!
//! The horizontal scheme loses on a 2002 disk because its V-pages seek; on
//! an NVMe-like device (80 µs positioning) the penalty shrinks. This
//! ablation replays the Fig. 7 comparison under both cost models.

use hdov_bench::{mean, print_table, write_csv, EvalScene, RunOptions};
use hdov_core::{HdovBuildConfig, HdovEnvironment, Query, StorageScheme};
use hdov_storage::DiskModel;

fn main() {
    let opts = RunOptions::from_args();
    let eval = EvalScene::standard(&opts);
    let viewpoints = eval.random_viewpoints(opts.query_count() / 4, 33);
    let eta = 0.001;

    let disks = [
        ("2002 disk (8ms seek)", DiskModel::PAPER_ERA),
        ("modern SSD (80us)", DiskModel::MODERN_SSD),
    ];
    let mut rows = Vec::new();
    for (disk_label, disk) in disks {
        let mut row = vec![disk_label.to_string()];
        let mut base = None;
        for scheme in StorageScheme::all() {
            let cfg = HdovBuildConfig {
                disk,
                ..eval.build_cfg.clone()
            };
            let mut env = HdovEnvironment::build_with_table(
                &eval.scene,
                eval.grid.clone(),
                cfg,
                scheme,
                eval.table.clone(),
            )
            .expect("build");
            let t = mean(viewpoints.iter().map(|&vp| {
                let (_, st) = env.query(Query::new(env.cell_of(vp), eta)).unwrap();
                st.search_time_ms()
            }));
            base.get_or_insert(t);
            row.push(format!("{t:.2}"));
        }
        rows.push(row);
    }
    print_table(
        &format!("Ablation: disk model sensitivity (search ms at eta = {eta})"),
        &["disk", "horizontal", "vertical", "indexed-vertical"],
        &rows,
    );
    println!(
        "expected: ranking is preserved on both devices, but the horizontal \
         scheme's seek penalty collapses on the SSD"
    );
    write_csv(
        "ablation_disk",
        &["disk", "horizontal_ms", "vertical_ms", "indexed_ms"],
        &rows,
    );
}
