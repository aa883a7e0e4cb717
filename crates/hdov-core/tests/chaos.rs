//! Chaos suite: seeded fault injection over full query stacks.
//!
//! Properties, on every storage scheme and on both engines:
//!
//! (a) injected read errors and corrupted pages never panic — queries
//!     return `Ok` (possibly degraded) or a `StorageError`;
//! (b) a query that is *not* degraded is byte-identical to the fault-free
//!     answer, and after disarming *every* query is — failed or corrupt
//!     frames must never have been admitted to a pool;
//! (c) every absorbed error is visible in the [`DegradeReport`]: a result
//!     that diverges from the clean answer is marked degraded, with the
//!     underlying error recorded per fallback;
//! (d) concurrent sessions under faults keep the overlay/pool invariants:
//!     failures stay inside the session that drew them.
//!
//! Every property is swept across both V-page codecs (`Raw`, `Delta`) and
//! both storage backends (`mem`, `file:pread`): the fault injectors sit
//! between the pools and the stores, so checksum admission and degradation
//! must behave identically whether the poisoned page came out of a memory
//! image or a positioned read.

use hdov_core::{
    DegradeReport, HdovBuildConfig, HdovEnvironment, PoolConfig, Query, QueryResult, ResultKey,
    SearchScratch, SharedEnvironment, StorageScheme, VPageCodec,
};
use hdov_scene::{CityConfig, Scene};
use hdov_storage::{FaultPlan, StorageBackend};
use hdov_visibility::{CellGridConfig, CellId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

fn scene() -> &'static Scene {
    static SCENE: OnceLock<Scene> = OnceLock::new();
    SCENE.get_or_init(|| CityConfig::tiny().seed(11).generate())
}

const CODECS: [VPageCodec; 2] = [VPageCodec::Raw, VPageCodec::Delta];
const BACKENDS: [&str; 2] = ["mem", "file:pread"];

fn env(scheme: StorageScheme, codec: VPageCodec, backend: &str) -> HdovEnvironment {
    let scene = scene();
    let grid_cfg = CellGridConfig::for_scene(scene).with_resolution(3, 3);
    let cfg = HdovBuildConfig {
        codec,
        ..HdovBuildConfig::fast_test()
    };
    let mut e = HdovEnvironment::build(scene, &grid_cfg, cfg, scheme).unwrap();
    if backend != "mem" {
        // A fresh directory per relocation: parallel tests writing one
        // store path would share its `.tmp` sibling.
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hdov_chaos_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let b = StorageBackend::from_arg(backend, &dir).unwrap();
        e.relocate(&b).unwrap();
    }
    e
}

fn keyed(r: &QueryResult) -> Vec<(ResultKey, usize, u64, u64)> {
    r.entries()
        .iter()
        .map(|e| (e.key, e.level, e.polygons, e.bytes))
        .collect()
}

/// Every absorbed error must be visible: events are non-empty with real
/// error text, and the derived counters agree with the event list.
fn assert_report_coherent(d: &DegradeReport) {
    assert!(d.is_degraded());
    assert!(!d.events().is_empty());
    assert_eq!(d.errors_absorbed(), d.events().len() as u64);
    assert_eq!(d.lod_fallbacks(), d.events().len() as u64);
    for ev in d.events() {
        assert!(!ev.error.is_empty(), "degrade event lost its cause");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Transient error rates up to 10% on every file of the stack: the
    /// sequential engine never panics, non-degraded answers are exact, and
    /// a disarmed re-run is byte-identical to the clean baseline.
    #[test]
    fn sequential_chaos_degrades_never_panics(
        rate in 0.0..0.10f64,
        seed in 0u64..u64::MAX,
        scheme_idx in 0usize..3,
        codec_idx in 0usize..2,
        backend_idx in 0..BACKENDS.len(),
    ) {
        let scheme = StorageScheme::all()[scheme_idx];
        let mut e = env(scheme, CODECS[codec_idx], BACKENDS[backend_idx]);
        let cells: Vec<CellId> = (0..e.grid().cell_count() as CellId).collect();
        let eta = 0.002;

        let baseline: Vec<_> = cells
            .iter()
            .map(|&c| keyed(&e.query(Query::new(c, eta)).unwrap().0))
            .collect();

        e.arm_faults(&FaultPlan::transient(rate, seed));
        for (i, &c) in cells.iter().enumerate() {
            // An Err means even the root's internal LoD was unreadable: an
            // error, not a panic, is the contract.
            if let Ok((r, _)) = e.query(Query::new(c, eta)) {
                if r.degrade().is_degraded() {
                    assert_report_coherent(r.degrade());
                } else {
                    prop_assert_eq!(
                        keyed(&r), baseline[i].clone(),
                        "non-degraded faulty answer diverged (cell {})", c
                    );
                }
            }
        }

        e.disarm_faults();
        for (i, &c) in cells.iter().enumerate() {
            let (r, _) = e.query(Query::new(c, eta)).unwrap();
            prop_assert!(!r.degrade().is_degraded());
            prop_assert_eq!(
                keyed(&r), baseline[i].clone(),
                "clean re-run after disarm diverged (cell {})", c
            );
        }
    }

    /// Deterministic page corruption: checksums turn bit flips into
    /// `Corrupt` errors that degradation absorbs, and queries whose pages
    /// are all fault-free stay byte-identical while armed.
    #[test]
    fn corrupt_pages_are_caught_and_contained(
        page in 0u64..16,
        mask in 1u8..0xff,
        scheme_idx in 0usize..3,
        codec_idx in 0usize..2,
        backend_idx in 0..BACKENDS.len(),
    ) {
        let scheme = StorageScheme::all()[scheme_idx];
        let mut e = env(scheme, CODECS[codec_idx], BACKENDS[backend_idx]);
        let cells: Vec<CellId> = (0..e.grid().cell_count() as CellId).collect();
        let eta = 0.002;

        let baseline: Vec<_> = cells
            .iter()
            .map(|&c| keyed(&e.query(Query::new(c, eta)).unwrap().0))
            .collect();

        e.arm_faults(&FaultPlan {
            corrupt_pages: vec![page],
            corruption_mask: mask,
            ..FaultPlan::default()
        });
        for (i, &c) in cells.iter().enumerate() {
            match e.query(Query::new(c, eta)) {
                Ok((r, _)) => {
                    if r.degrade().is_degraded() {
                        assert_report_coherent(r.degrade());
                        // Corruption is permanent: the degraded answer must
                        // be reproducible, not flapping.
                        let (again, _) = e.query(Query::new(c, eta)).unwrap();
                        prop_assert_eq!(keyed(&again), keyed(&r));
                    } else {
                        prop_assert_eq!(
                            keyed(&r), baseline[i].clone(),
                            "query off the corrupt page diverged (cell {})", c
                        );
                    }
                }
                Err(err) => prop_assert!(
                    !format!("{err}").is_empty(),
                    "errors must carry context"
                ),
            }
        }

        e.disarm_faults();
        for (i, &c) in cells.iter().enumerate() {
            let (r, _) = e.query(Query::new(c, eta)).unwrap();
            prop_assert_eq!(keyed(&r), baseline[i].clone());
        }
    }
}

fn shared_env(scheme: StorageScheme, codec: VPageCodec, backend: &str) -> SharedEnvironment {
    env(scheme, codec, backend).into_shared(PoolConfig::default())
}

/// Concurrent chaos on the shared engine: four sessions race under a
/// transient+spike plan; failures stay inside the drawing session, and a
/// disarmed re-run proves no failed or corrupt frame was ever pooled.
#[test]
fn shared_chaos_isolates_failures_per_session() {
    for scheme in StorageScheme::all() {
        for (c, backend) in BACKENDS.iter().enumerate() {
            // Alternate codecs across the sweep; both appear on every
            // scheme and every backend appears with both codecs overall.
            shared_chaos_case(scheme, CODECS[c % 2], backend);
            shared_chaos_case(scheme, CODECS[(c + 1) % 2], backend);
        }
    }
}

fn shared_chaos_case(scheme: StorageScheme, codec: VPageCodec, backend: &str) {
    {
        let shared = shared_env(scheme, codec, backend);
        let cells: Vec<CellId> = (0..shared.grid().cell_count() as CellId).collect();
        let eta = 0.002;

        // Baseline from a private-pool fork: the chaos run below starts on
        // cold pools, so its reads actually reach the fault injectors
        // (pool hits never re-consult a disk, faulty or not).
        let clean = shared.fork_with_private_pools();
        let mut ctx = clean.session();
        let baseline: Vec<_> = cells
            .iter()
            .map(|&c| keyed(&clean.query_cell(&mut ctx, c, eta).unwrap().0))
            .collect();

        let injectors = shared.arm_faults(&FaultPlan {
            transient_fail_rate: 0.08,
            latency_spike_rate: 0.05,
            latency_spike_us: 500.0,
            seed: 0xC0FFEE,
            ..FaultPlan::default()
        });

        std::thread::scope(|s| {
            for t in 0..4usize {
                let shared = &shared;
                let cells = &cells;
                let baseline = &baseline;
                s.spawn(move || {
                    let mut ctx = shared.session();
                    let mut scratch = SearchScratch::new();
                    for i in 0..cells.len() {
                        let j = (i + t) % cells.len();
                        let q = Query::new(cells[j], eta);
                        // An Err stays isolated to this session's frame.
                        if shared.search(&mut ctx, &mut scratch, q).is_ok() {
                            let r = scratch.result();
                            if r.degrade().is_degraded() {
                                assert_report_coherent(r.degrade());
                            } else {
                                assert_eq!(
                                    keyed(r),
                                    baseline[j],
                                    "thread {t}: non-degraded faulty answer diverged"
                                );
                            }
                        }
                    }
                });
            }
        });

        let drew_faults: u64 = injectors.iter().map(|f| f.injected()).sum();
        assert!(
            drew_faults > 0,
            "{scheme}: an 8% plan over 4 sessions must inject something"
        );
        for f in &injectors {
            f.disarm();
        }

        // The pools served every faulty read attempt yet must hold only
        // verified frames: clean re-runs are byte-identical.
        let mut ctx = shared.session();
        for (i, &c) in cells.iter().enumerate() {
            let (r, _) = shared.query_cell(&mut ctx, c, eta).unwrap();
            assert!(
                !r.degrade().is_degraded(),
                "{scheme}/{codec:?}/{backend}: degradation leaked"
            );
            assert_eq!(
                keyed(&r),
                baseline[i],
                "{scheme}/{codec:?}/{backend}: pooled frame was bad"
            );
        }
    }
}

/// Corruption on the shared path: the checksum gate at frame admission
/// rejects the page on every attempt (no retry for `Corrupt`), the session
/// degrades, and the poisoned bytes never reach a pool.
#[test]
fn shared_corruption_never_reaches_the_pool() {
    for codec in CODECS {
        for backend in BACKENDS {
            shared_corruption_case(codec, backend);
        }
    }
}

fn shared_corruption_case(codec: VPageCodec, backend: &str) {
    let shared = shared_env(StorageScheme::IndexedVertical, codec, backend);
    let cells: Vec<CellId> = (0..shared.grid().cell_count() as CellId).collect();
    let eta = 0.002;

    // Clean answers from a private-pool fork, so the armed run is cold and
    // the corrupted page is actually read from disk.
    let clean = shared.fork_with_private_pools();
    let mut ctx = clean.session();
    let baseline: Vec<_> = cells
        .iter()
        .map(|&c| keyed(&clean.query_cell(&mut ctx, c, eta).unwrap().0))
        .collect();

    let injectors = shared.arm_faults(&FaultPlan::corrupt_one(0));
    let mut ctx = shared.session();
    let mut absorbed = 0u32;
    for &c in &cells {
        match shared.query_cell(&mut ctx, c, eta) {
            Ok((r, _)) if r.degrade().is_degraded() => {
                assert_report_coherent(r.degrade());
                absorbed += 1;
            }
            Ok(_) => {}
            // Page 0 is corrupt in *every* file, so even the internal-LoD
            // fallback can hit it — a contained error, not a panic.
            Err(_) => absorbed += 1,
        }
    }
    assert!(
        absorbed > 0 || injectors.iter().map(|f| f.injected()).sum::<u64>() == 0,
        "corrupting a read page must surface as degradation or an error"
    );

    for f in &injectors {
        f.disarm();
    }
    let mut ctx = shared.session();
    for (i, &c) in cells.iter().enumerate() {
        let (r, _) = shared.query_cell(&mut ctx, c, eta).unwrap();
        assert!(!r.degrade().is_degraded());
        assert_eq!(keyed(&r), baseline[i], "corrupt frame leaked into a pool");
    }
}
