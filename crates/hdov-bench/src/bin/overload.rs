//! **Overload** — graceful degradation when demand exceeds capacity.
//!
//! Beyond the paper: §5.4 replays one walkthrough at a time, but a deployed
//! server faces more visitors than it has capacity for. This harness fixes a
//! serving capacity (admission slots) and sweeps the offered load from 0.5×
//! to 4× of it, with the full overload-protection stack on:
//!
//! * a per-frame [`QueryBudget`] — a frame that would run long serves the
//!   remaining subtrees as internal LoDs instead;
//! * the closed-loop AIMD η controller — deadline misses push η coarser,
//!   headroom pulls it back;
//! * strict admission — sessions beyond the slot count are shed to the
//!   root's internal LoD (coarse frames, zero I/O, never an error).
//!
//! Expected shape: p99 *frame* time does not grow with load — within 2×
//! the deadline at 4× capacity (at low load the p99 sits on the few
//! cold-start frames, a fixed cost that dilutes as load adds frames) —
//! while fidelity — the mean served-LoD rank, 0 = finest — degrades
//! smoothly as load grows past capacity. Below capacity
//! nothing is shed and no read-error degradation occurs (budget stops on
//! cold-start frames are the budget doing its job and are reported as their
//! own column); availability is 100% (zero failed frames) everywhere.
//!
//! Output: `results/overload.csv`. Frame times are simulated (the same
//! deterministic cost currency as every other harness number); shed counts
//! above capacity depend on worker interleaving, which is why CI gates this
//! bench structurally (zero/nonzero, bounds) rather than bit-exactly.

use hdov_bench::{print_table, write_csv, EvalScene, RunOptions};
use hdov_core::{PoolConfig, QueryBudget, StorageScheme};
use hdov_walkthrough::{ServerConfig, Session, SessionKind, SessionServer};

/// Serving capacity: sessions allowed to drive queries concurrently.
const SLOTS: usize = 4;
/// Frame-time deadline for the η controller (simulated ms).
const TARGET_FRAME_MS: f64 = 50.0;

fn main() {
    let opts = RunOptions::from_args();
    hdov_bench::start_metrics();
    let eval = EvalScene::standard(&opts);
    let frames = if opts.quick { 30 } else { 120 };

    let env = eval
        .environment(StorageScheme::IndexedVertical)
        .into_shared(PoolConfig::default());

    let cfg = ServerConfig {
        // The budget is what bounds the tail: the η controller only adapts
        // *between* frames, so the cold first frames of a session (whole
        // cell fetched at once) would blow far past the deadline without a
        // mid-frame stop.
        budget: QueryBudget::sim_ms(TARGET_FRAME_MS),
        control: Some(TARGET_FRAME_MS),
        admission: Some(SLOTS),
        ..Default::default()
    };

    let mut rows = Vec::new();
    let mut p99_at_4x = 0.0;
    for &(label, factor) in &[("0.5x", 0.5), ("1x", 1.0), ("2x", 2.0), ("4x", 4.0)] {
        let n_sessions = ((SLOTS as f64 * factor) as usize).max(1);
        let sessions: Vec<Session> = (0..n_sessions)
            .map(|i| {
                Session::record(
                    eval.scene.viewpoint_region(),
                    SessionKind::all()[i % 3],
                    frames,
                    2003 + i as u64,
                )
            })
            .collect();
        // Every session gets a worker, so all of them race for the slots at
        // once — the offered load really is `factor` × capacity.
        let run_env = env.fork_with_private_pools();
        let report = SessionServer::new(&run_env, cfg)
            .run(&sessions, n_sessions)
            .expect("overload run");

        let failed: u64 = report.sessions.iter().map(|s| s.failed_frames).sum();
        let p99 = report.frame_ms_quantile(0.99);
        if factor == 4.0 {
            p99_at_4x = p99;
        }
        rows.push(vec![
            label.to_string(),
            n_sessions.to_string(),
            SLOTS.to_string(),
            report.shed_sessions().to_string(),
            format!("{p99:.3}"),
            format!("{:.3}", report.mean_frame_ms()),
            format!("{:.4}", report.mean_served_lod()),
            report.deadline_misses().to_string(),
            report.budget_stops().to_string(),
            failed.to_string(),
        ]);
    }

    print_table(
        "Overload: offered load vs fixed serving capacity",
        &[
            "load",
            "sessions",
            "slots",
            "shed",
            "p99 frame (ms)",
            "mean frame (ms)",
            "mean served LoD",
            "deadline misses",
            "budget stops",
            "failed frames",
        ],
        &rows,
    );
    println!(
        "p99 frame at 4x capacity: {:.3} ms (bound: 2x target = {:.1} ms)",
        p99_at_4x,
        2.0 * TARGET_FRAME_MS
    );
    println!(
        "expected shape: zero shed/degrade at or below capacity; above it, \
         shedding rises and mean served LoD coarsens while p99 stays bounded"
    );
    let headers = [
        "load",
        "sessions",
        "slots",
        "shed",
        "p99_frame_ms",
        "mean_frame_ms",
        "mean_served_lod",
        "deadline_misses",
        "budget_stops",
        "failed_frames",
    ];
    write_csv("overload", &headers, &rows);
    hdov_bench::write_metrics_snapshot("overload", 3, &headers, &rows);
}
