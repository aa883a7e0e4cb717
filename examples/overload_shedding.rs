//! Overload-resilient serving: more visitors than the server has capacity.
//!
//! Configures the full overload-protection stack on a [`SessionServer`] —
//! a per-frame [`QueryBudget`], the closed-loop AIMD η controller, and
//! strict admission slots — then offers 3× more sessions than slots, all
//! at once. The overflow is shed to the root's internal LoD (coarse frames,
//! zero I/O, never an error), admitted sessions trade fidelity for frame
//! time, and availability stays at 100%.
//!
//! ```sh
//! cargo run --release --example overload_shedding
//! ```
//!
//! [`QueryBudget`]: hdov::core::QueryBudget
//! [`SessionServer`]: hdov::walkthrough::SessionServer

use hdov::core::{PoolConfig, QueryBudget};
use hdov::prelude::*;
use hdov::walkthrough::{ServerConfig, SessionServer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scene = CityConfig::tiny().seed(42).generate();
    let cells = CellGridConfig::for_scene(&scene).with_resolution(4, 4);
    let env = HdovEnvironment::build(
        &scene,
        &cells,
        HdovBuildConfig::default(),
        StorageScheme::IndexedVertical,
    )?;
    let shared = env.into_shared(PoolConfig::default());

    // Capacity: 2 concurrent visitors. Frames that would run long are cut
    // short at a 20 ms simulated budget (the rest of the scene is served
    // from internal LoDs), and the controller coarsens η whenever a frame
    // misses the 20 ms deadline.
    const SLOTS: usize = 2;
    const TARGET_MS: f64 = 20.0;
    let cfg = ServerConfig {
        budget: QueryBudget::sim_ms(TARGET_MS),
        control: Some(TARGET_MS),
        admission: Some(SLOTS),
        ..ServerConfig::default()
    };

    // Offer 3x the capacity, every session racing for a slot at once (one
    // worker per session). The first wave of admissions is resolved before
    // any session runs, so exactly `sessions - slots` of them are shed.
    let sessions: Vec<Session> = (0..SLOTS * 3)
        .map(|s| {
            Session::record(
                scene.viewpoint_region(),
                SessionKind::all()[s % 3],
                30,
                7 + s as u64,
            )
        })
        .collect();
    let server = SessionServer::new(&shared, cfg);
    let report = server.run(&sessions, sessions.len())?;

    println!(
        "{} sessions offered, {} slots -> {} shed\n",
        sessions.len(),
        SLOTS,
        report.shed_sessions()
    );
    println!("session  admitted  mean LoD rank  final eta  budget stops  page reads  failed");
    for o in &report.sessions {
        println!(
            "{:>7}  {:>8}  {:>13.3}  {:>9.5}  {:>12}  {:>10}  {:>6}",
            o.session,
            if o.shed { "shed" } else { "yes" },
            o.mean_served_lod(),
            o.eta_final,
            o.budget_stops,
            o.page_reads,
            o.failed_frames,
        );
    }
    println!(
        "\naggregate: p99 frame {:.2} ms, mean served LoD rank {:.3}, \
         {} deadline miss(es), {} eta raise(s), 0 errors",
        report.frame_ms_quantile(0.99),
        report.mean_served_lod(),
        report.deadline_misses(),
        report.sessions.iter().map(|o| o.eta_raises).sum::<u64>(),
    );
    println!(
        "admission book: {} admitted, {} shed",
        report.backpressure.admitted, report.backpressure.shed,
    );
    Ok(())
}
