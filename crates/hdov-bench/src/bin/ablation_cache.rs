//! **Ablation** — node buffer pool.
//!
//! The paper's head-to-head deliberately runs cache-less ("none of the two
//! systems caches the tree nodes in the queries", §5.4). This ablation
//! measures what an LRU node pool would have bought a walkthrough: repeated
//! cell visits re-touch the same upper tree levels, so even a small pool
//! absorbs most node reads.

use hdov_bench::{mean, print_table, write_csv, EvalScene, RunOptions};
use hdov_core::{Query, StorageScheme};
use hdov_walkthrough::{Session, SessionKind};

fn main() {
    let opts = RunOptions::from_args();
    let eval = EvalScene::standard(&opts);
    let session = Session::record(
        eval.scene.viewpoint_region(),
        SessionKind::Normal,
        opts.session_frames(),
        35,
    );
    let eta = 0.001;

    let mut rows = Vec::new();
    for cache_nodes in [0usize, 16, 64, 256, 1024] {
        let mut env = eval.environment(StorageScheme::IndexedVertical);
        if cache_nodes > 0 {
            env.enable_node_cache(cache_nodes);
        }
        let (mut node_reads, mut times) = (Vec::new(), Vec::new());
        for &vp in &session.viewpoints {
            let (_, st) = env.query(Query::new(env.cell_of(vp), eta)).unwrap();
            node_reads.push(st.node_io.page_reads as f64);
            times.push(st.search_time_ms());
        }
        let hit_rate = env
            .node_cache_stats()
            .map(|(h, m)| 100.0 * h as f64 / (h + m).max(1) as f64)
            .unwrap_or(0.0);
        rows.push(vec![
            if cache_nodes == 0 {
                "off (paper setup)".to_string()
            } else {
                format!("{cache_nodes} nodes")
            },
            format!("{:.2}", mean(node_reads.iter().copied())),
            format!("{hit_rate:.1}%"),
            format!("{:.2}", mean(times.iter().copied())),
        ]);
    }
    print_table(
        &format!(
            "Ablation: node buffer pool over a {}-frame walkthrough (eta = {eta})",
            session.len()
        ),
        &["pool", "node reads/query", "hit rate", "search (ms)"],
        &rows,
    );
    write_csv(
        "ablation_cache",
        &["pool", "node_reads", "hit_rate", "search_ms"],
        &rows,
    );
}
