//! Replica failover: ride out a dead primary with zero degraded frames.
//!
//! Deploys a shared HDoV-tree with every pool padded to **two replicas**
//! ([`PoolConfig::replicas`]), then kills replica 0 outright — every raw
//! read of the primary fails ([`FaultPlan::dead`]). The read path fails
//! over to the healthy copy *before* the LoD-degradation fallback fires,
//! so a full recorded walkthrough serves byte-identical answers with zero
//! coarse frames, and the loss is visible only in the storage health
//! counters (`failover_reads`), never in the picture.
//!
//! ```sh
//! cargo run --release --example replica_failover
//! ```
//!
//! [`PoolConfig::replicas`]: hdov::core::PoolConfig

use hdov::core::{DeltaSearch, PoolConfig, SearchScratch};
use hdov::prelude::*;
use hdov::storage::{FaultPlan, RetryPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scene = CityConfig::tiny().seed(29).generate();
    let cells = CellGridConfig::for_scene(&scene).with_resolution(4, 4);
    let env = HdovEnvironment::build(
        &scene,
        &cells,
        HdovBuildConfig::default(),
        StorageScheme::IndexedVertical,
    )?;
    // Two replicas per pool; no retries — a dead disk should cost one
    // failed attempt per miss, not a backoff ladder.
    let shared = env.into_shared(PoolConfig {
        replicas: 2,
        retry: RetryPolicy::NONE,
        ..PoolConfig::default()
    });

    // The clean twin: same frozen data, private cold pools, no faults
    // (forks never inherit injectors). Its replay is the reference picture.
    let clean = shared.fork_with_private_pools();

    let session = Session::record(scene.viewpoint_region(), SessionKind::Normal, 80, 7);

    let replay = |env: &hdov::core::SharedEnvironment| {
        let mut ctx = env.session();
        let mut delta = DeltaSearch::new();
        let mut scratch = SearchScratch::new();
        let mut frames = Vec::with_capacity(session.viewpoints.len());
        let mut degraded = 0u64;
        for &vp in &session.viewpoints {
            env.query_delta_into(&mut ctx, &mut scratch, vp, 0.002, &mut delta)?;
            let r = scratch.result();
            if r.degrade().is_degraded() {
                degraded += 1;
            }
            frames.push(
                r.entries()
                    .iter()
                    .map(|e| (e.key, e.level, e.polygons, e.bytes))
                    .collect::<Vec<_>>(),
            );
        }
        Ok::<_, Box<dyn std::error::Error>>((frames, degraded))
    };

    let (reference, clean_degraded) = replay(&clean)?;
    assert_eq!(clean_degraded, 0, "the clean twin must not degrade");

    // Kill the primary: every raw read of replica 0, on every pool, fails.
    let injectors = shared.arm_replica_faults(0, &FaultPlan::dead());
    let (survived, degraded) = replay(&shared)?;

    let health = shared.storage_health();
    let denied: u64 = injectors.iter().map(|f| f.injected()).sum();
    println!("dead primary, {} frames replayed:", survived.len());
    println!("  reads denied by replica 0: {denied}");
    println!("  failover reads served:     {}", health.failover_reads);
    println!("  pages repaired:            {}", health.pages_repaired);
    println!("  degraded frames:           {degraded}");

    // The contract this example exists to demonstrate:
    assert_eq!(degraded, 0, "failover must fire before degradation");
    assert_eq!(survived, reference, "answers must be byte-identical");
    assert!(health.failover_reads > 0, "the dead disk was really dead");
    assert!(denied > 0);
    // An I/O-dead replica is not a repair target — its bytes were never
    // observed wrong, there is nothing to rewrite.
    assert_eq!(health.pages_repaired, 0);

    for f in &injectors {
        f.disarm();
    }
    println!("\nevery frame identical to the clean twin; degradation never fired");
    Ok(())
}
