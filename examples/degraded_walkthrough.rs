//! Fault-tolerant walkthrough: replay a session while the disks misbehave.
//!
//! Arms every file of a shared HDoV-tree deployment with a seeded
//! [`FaultPlan`] — transient read errors, latency spikes, and one
//! bit-flipped page — then walks a recorded session frame by frame.
//! Transient errors are retried with exponential backoff; reads that stay
//! unreadable degrade to the deepest readable ancestor's internal LoD, and
//! every absorbed error is visible in the frame's [`DegradeReport`].
//!
//! ```sh
//! cargo run --release --example degraded_walkthrough
//! ```
//!
//! [`DegradeReport`]: hdov::core::DegradeReport

use hdov::core::{DeltaSearch, PoolConfig, SearchScratch};
use hdov::prelude::*;
use hdov::storage::{FaultPlan, RetryPolicy};
use hdov::walkthrough::{ServerConfig, Session, SessionKind, SessionServer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scene = CityConfig::tiny().seed(21).generate();
    let cells = CellGridConfig::for_scene(&scene).with_resolution(4, 4);
    let env = HdovEnvironment::build(
        &scene,
        &cells,
        HdovBuildConfig::default(),
        StorageScheme::IndexedVertical,
    )?;
    let shared = env.into_shared(PoolConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 100.0,
            max_backoff_us: 5_000.0,
        },
        ..PoolConfig::default()
    });

    // A hostile but deterministic disk: a quarter of raw reads fail
    // transiently (retry usually saves them), 10% take a 2 ms latency
    // spike, and disk page 17 always comes back bit-flipped (the checksum
    // gate rejects it on every attempt), so cells whose data touches that
    // page degrade while the rest of the walk stays at full detail.
    let plan = FaultPlan {
        transient_fail_rate: 0.25,
        latency_spike_rate: 0.10,
        latency_spike_us: 2_000.0,
        corrupt_pages: vec![17],
        corruption_mask: 0xA5,
        seed: 0xBADD15C,
        ..FaultPlan::default()
    };
    let injectors = shared.arm_faults(&plan);

    // Walk one recorded session frame by frame, reporting degradation.
    let session = Session::record(scene.viewpoint_region(), SessionKind::Normal, 60, 5);
    let mut ctx = shared.session();
    let mut delta = DeltaSearch::new();
    let mut scratch = SearchScratch::new();
    let (mut degraded, mut failed, mut fallbacks, mut coarse) = (0u64, 0u64, 0u64, 0u64);
    println!("frame  entries  polygons  degradation");
    for (i, &vp) in session.viewpoints.iter().enumerate() {
        match shared.query_delta_into(&mut ctx, &mut scratch, vp, 0.002, &mut delta) {
            Ok(_) => {
                let r = scratch.result();
                let d = r.degrade();
                if d.is_degraded() {
                    degraded += 1;
                    fallbacks += d.lod_fallbacks();
                    coarse += d.objects_coarse();
                    println!(
                        "{i:>5}  {:>7}  {:>8}  {} LoD fallback(s), {} object(s) coarse; first: {}",
                        r.entries().len(),
                        r.total_polygons(),
                        d.lod_fallbacks(),
                        d.objects_coarse(),
                        d.events()[0].error,
                    );
                } else {
                    println!(
                        "{i:>5}  {:>7}  {:>8}  -",
                        r.entries().len(),
                        r.total_polygons()
                    );
                }
            }
            Err(e) => {
                failed += 1;
                println!("{i:>5}        -         -  frame dropped: {e}");
            }
        }
    }
    let (reads, injected): (u64, u64) = injectors
        .iter()
        .map(|f| (f.reads(), f.injected()))
        .fold((0, 0), |(r, i), (a, b)| (r + a, i + b));
    println!(
        "\nsession: {degraded} degraded frame(s), {failed} dropped, \
         {fallbacks} internal-LoD fallback(s) covering {coarse} object(s)"
    );
    println!("disks: {injected} fault(s) injected across {reads} raw read attempt(s)");

    // The same chaos against the concurrent session server: each visitor's
    // failures stay their own.
    let sessions: Vec<Session> = (0..4)
        .map(|s| Session::record(scene.viewpoint_region(), SessionKind::Normal, 40, 11 + s))
        .collect();
    let server = SessionServer::new(&shared, ServerConfig::default());
    let report = server.run(&sessions, 4)?;
    // Most pages are already pool-resident (verified at admission), so the
    // server's visitors see few raw reads — and only raw reads can fault.
    println!("\nconcurrent server, 4 sessions on 4 threads under the same fault plan:");
    for o in &report.sessions {
        println!(
            "  session {}: {} frames ok, {} degraded, {} dropped, {} page reads",
            o.session,
            o.search_ms.len() as u64 - o.degraded_frames,
            o.degraded_frames,
            o.failed_frames,
            o.page_reads,
        );
    }

    for f in &injectors {
        f.disarm();
    }
    Ok(())
}
