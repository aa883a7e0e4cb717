//! The sharding contract (ISSUE 10 / DESIGN.md §17):
//!
//! * fault-free sharded answers are **byte-identical** to the unsharded
//!   search — per frame, entry for entry, for 1 shard and for N shards;
//! * `SessionServer` over a 1-shard router returns the unsharded server's
//!   session outcomes field for field;
//! * the merged frame is deterministic under every shard-reply-order
//!   permutation (proptest);
//! * a shard killed mid-run degrades frames instead of failing them, trips
//!   its breaker, and recovers after revival;
//! * a default-configured router keeps every fault-domain mechanism inert.

use hdov_core::shard::{merge_frames, search_shard, MergeScratch, PathKey, ShardFrame, ShardPlan};
use hdov_core::{
    DeltaSearch, HdovBuildConfig, HdovEnvironment, PoolConfig, Query, QueryBudget, QueryResult,
    ResultEntry, ResultKey, SearchScratch, SharedEnvironment, StorageScheme, MAX_SHARDS,
};
use hdov_scene::CityConfig;
use hdov_shard::{BreakerState, RouterConfig, ShardChaos, ShardRouter};
use hdov_storage::StorageError;
use hdov_visibility::CellGridConfig;
use hdov_walkthrough::{ServerConfig, Session, SessionKind, SessionServer};
use proptest::prelude::*;

/// A per-frame simulated budget tight enough that some frames stop
/// descending.
const BUDGET_MS: f64 = 1.0;

/// An η-control frame deadline (ms) close enough to the tiny scene's frame
/// times that the controller both raises and drops η.
const CONTROL_TARGET_MS: f64 = 3.0;

fn shared_env() -> SharedEnvironment {
    let scene = CityConfig::tiny().seed(11).generate();
    let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(4, 4);
    HdovEnvironment::build(
        &scene,
        &grid_cfg,
        HdovBuildConfig::fast_test(),
        StorageScheme::IndexedVertical,
    )
    .unwrap()
    .into_shared(PoolConfig::default())
}

fn record_sessions(env: &SharedEnvironment, n: usize, frames: usize) -> Vec<Session> {
    let b = env.grid().region();
    (0..n)
        .map(|i| Session::record(b, SessionKind::all()[i % 3], frames, 1000 + i as u64))
        .collect()
}

/// Frame-level byte-identity: every delta frame of a walkthrough routed
/// through `shards` shards carries exactly the entries (keys, levels,
/// polygon counts, cached flags — everything) and the degrade events the
/// unsharded search emits under the same `budget`.
///
/// At one shard the emission filter must be a no-op all the way down to
/// the cost model, so each sub-query's `SearchStats` must also equal the
/// unsharded search's. The reference runs on its own private-pool fork:
/// the router's plan build warms the base environment's node pool, while
/// each shard engine starts cold.
fn assert_frames_identical(shards: usize, budget: QueryBudget) -> u64 {
    let env = shared_env();
    let router = ShardRouter::new(&env, shards, RouterConfig::default()).unwrap();
    let reference = env.fork_with_private_pools();
    let session = &record_sessions(&env, 1, 30)[0];

    let mut ctx = reference.session();
    let mut scratch = SearchScratch::new();
    let mut delta = DeltaSearch::new();
    let mut lane = router.lane();
    let mut budget_stops = 0;
    for (i, &vp) in session.viewpoints.iter().enumerate() {
        let q = Query {
            resident: Some(&delta),
            budget,
            prefetch: true,
            ..Query::new(reference.cell_of(vp), 0.002)
        };
        let want_stats = reference.search(&mut ctx, &mut scratch, q).unwrap();
        let want = scratch.result();
        delta.apply(want);
        router.route_budgeted(&mut lane, vp, 0.002, budget);
        let got = lane.merged();
        assert_eq!(
            got.entries(),
            want.entries(),
            "frame {i} diverged through {shards} shard(s)"
        );
        assert_eq!(got.total_polygons(), want.total_polygons());
        assert_eq!(
            got.degrade().events(),
            want.degrade().events(),
            "frame {i} degrade events diverged through {shards} shard(s)"
        );
        budget_stops += want.degrade().budget_stops();
        if shards == 1 {
            assert_eq!(lane.frames()[0].stats(), &want_stats, "frame {i} costs");
        }
    }
    assert_eq!(router.totals().degraded_frames, 0);
    assert_eq!(router.totals().breaker_opens, 0);
    budget_stops
}

#[test]
fn single_shard_frames_are_byte_identical_to_unsharded() {
    assert_frames_identical(1, QueryBudget::UNLIMITED);
}

#[test]
fn single_shard_budget_stops_match_unsharded() {
    let stops = assert_frames_identical(1, QueryBudget::sim_ms(BUDGET_MS));
    assert!(
        stops > 0,
        "the budget must be tight enough to stop descents"
    );
}

#[test]
fn four_shard_frames_are_byte_identical_to_unsharded() {
    assert_frames_identical(4, QueryBudget::UNLIMITED);
}

#[test]
fn seven_shard_frames_are_byte_identical_to_unsharded() {
    // A deliberately lopsided count: the tile grid (3×3 for 7) leaves two
    // tiles empty-handed, exercising uneven ownership.
    assert_frames_identical(7, QueryBudget::UNLIMITED);
}

/// Shard counts a plan cannot encode — and chaos schedules naming a shard
/// the router lacks — are typed, non-transient errors at setup, never a
/// panic.
#[test]
fn router_rejects_invalid_shard_counts() {
    let env = shared_env();
    for shards in [0, MAX_SHARDS + 1] {
        let err = ShardRouter::new(&env, shards, RouterConfig::default())
            .err()
            .unwrap_or_else(|| panic!("{shards} shards must be rejected"));
        assert!(
            matches!(err, StorageError::InvalidPlan { .. }),
            "{shards} shards: {err}"
        );
        assert!(!err.is_transient());
    }

    let mut router = ShardRouter::new(&env, 4, RouterConfig::default()).unwrap();
    let err = router
        .set_chaos(Some(ShardChaos {
            shard: 4,
            kill_at_frame: 0,
            revive_at_frame: u64::MAX,
        }))
        .unwrap_err();
    assert!(matches!(err, StorageError::InvalidPlan { .. }), "{err}");
    assert!(!err.is_transient());
    router.set_chaos(None).unwrap();
}

/// A sub-query naming a shard the plan lacks, or carrying a negative η, is
/// a typed, non-transient error, never a panic.
#[test]
fn search_shard_rejects_invalid_shards_and_queries() {
    let env = shared_env();
    let plan = ShardPlan::build(&env, 4, |id, _| id as usize % 4).unwrap();
    let mut ctx = env.session();
    let mut frame = ShardFrame::new();
    for (shard, q) in [(4, Query::new(0, 0.002)), (0, Query::new(0, -1.0))] {
        let err = search_shard(&env, &mut ctx, &plan, shard, &mut frame, q).unwrap_err();
        assert!(matches!(err, StorageError::InvalidPlan { .. }), "{err}");
        assert!(!err.is_transient());
    }
    search_shard(&env, &mut ctx, &plan, 3, &mut frame, Query::new(0, 0.002)).unwrap();
}

/// Whole-server equality: `SessionServer` through a 4-shard router answers
/// exactly as over the unsharded environment, with motion prefetch warming
/// every shard of the predicted cell's fan-out.
#[test]
fn sharded_server_answers_match_unsharded_server() {
    let env = shared_env();
    let sessions = record_sessions(&env, 4, 25);
    let cfg = ServerConfig::default();
    let plain = SessionServer::new(&env, cfg).run(&sessions, 2).unwrap();
    let router = ShardRouter::new(&env, 4, RouterConfig::default()).unwrap();
    let sharded = SessionServer::new(&router, cfg).run(&sessions, 2).unwrap();
    let t = router.totals();
    assert_eq!((t.degraded_frames, t.timeouts), (0, 0));
    assert_eq!((t.hedged, t.breaker_opens), (0, 0));
    let warmed: u64 = sharded.sessions.iter().map(|s| s.prefetched_pages).sum();
    assert!(warmed > 0, "motion prefetch must warm the shards");
    for (a, b) in plain.sessions.iter().zip(&sharded.sessions) {
        assert_eq!(a.session, b.session);
        assert_eq!(a.total_polygons, b.total_polygons, "session {}", a.session);
        assert_eq!(a.lod_level_sum, b.lod_level_sum, "session {}", a.session);
        assert_eq!(a.lod_entries, b.lod_entries, "session {}", a.session);
        assert_eq!(b.failed_frames, 0);
        assert_eq!(b.degraded_frames, 0);
    }
}

/// One server, two engines: at one shard and one worker, `SessionServer`
/// over the router returns the outcome it returns over the unsharded
/// environment — field for field, simulated costs, prefetch, budget stops
/// and η moves included — under every per-frame feature of the driver.
///
/// The reference is a fresh private-pool fork because the router's plan
/// build warms the base environment's node pool.
#[test]
fn single_shard_server_outcomes_equal_unsharded() {
    let env = shared_env();
    let sessions = record_sessions(&env, 3, 30);
    let configs = [
        ServerConfig::default(),
        ServerConfig {
            budget: QueryBudget::sim_ms(BUDGET_MS),
            ..ServerConfig::default()
        },
        ServerConfig {
            control: Some(CONTROL_TARGET_MS),
            ..ServerConfig::default()
        },
    ];
    for (k, cfg) in configs.into_iter().enumerate() {
        let reference = env.fork_with_private_pools();
        let plain = SessionServer::new(&reference, cfg)
            .run(&sessions, 1)
            .unwrap();
        let router = ShardRouter::new(&env, 1, RouterConfig::default()).unwrap();
        let sharded = SessionServer::new(&router, cfg).run(&sessions, 1).unwrap();
        assert_eq!(sharded.sessions, plain.sessions, "config {k}");
        let sum = |f: fn(&hdov_walkthrough::SessionOutcome) -> u64| {
            plain.sessions.iter().map(f).sum::<u64>()
        };
        match k {
            0 => assert!(sum(|s| s.prefetched_pages) > 0, "prefetch must warm"),
            1 => assert!(sum(|s| s.budget_stops) > 0, "budget must stop descents"),
            _ => assert!(sum(|s| s.eta_raises + s.eta_drops) > 0, "η must move"),
        }
    }
}

/// The shard-kill drill (ISSUE 10 acceptance): N = 4 shards, one killed
/// mid-run. Zero failed frames, degraded frames observed, the victim's
/// breaker opens, and after revival it re-closes — the fleet heals.
#[test]
fn shard_kill_drill_degrades_and_recovers() {
    let env = shared_env();
    let mut router = ShardRouter::new(&env, 4, RouterConfig::default()).unwrap();
    router
        .set_chaos(Some(ShardChaos {
            shard: 1,
            kill_at_frame: 10,
            revive_at_frame: 45,
        }))
        .unwrap();
    let sessions = record_sessions(&env, 3, 40);
    let report = SessionServer::new(&router, ServerConfig::default())
        .run(&sessions, 2)
        .unwrap();

    for s in &report.sessions {
        assert_eq!(s.failed_frames, 0, "a dead shard must never fail a frame");
        assert_eq!(s.search_ms.len(), 40, "every frame answered");
        assert!(s.total_polygons > 0);
    }
    let t = router.totals();
    assert!(t.degraded_frames > 0, "the outage window must serve covers");
    assert!(t.breaker_opens >= 1, "the victim's breaker must trip");
    assert_eq!(
        router.breaker_state(1),
        BreakerState::Closed,
        "post-revival probes must re-close the breaker"
    );
    for s in [0, 2, 3] {
        assert_eq!(router.breaker_state(s), BreakerState::Closed);
    }
    assert_eq!(t.timeouts, 0, "liveness faults are not deadline faults");
}

/// Starvation deadline: every sub-query times out, every frame degrades to
/// covers, yet nothing fails and the timeout books balance.
#[test]
fn impossible_deadline_degrades_every_frame() {
    let env = shared_env();
    let router = ShardRouter::new(
        &env,
        4,
        RouterConfig {
            deadline_sim_ms: 0.0,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let sessions = record_sessions(&env, 2, 10);
    let report = SessionServer::new(&router, ServerConfig::default())
        .run(&sessions, 1)
        .unwrap();
    let t = router.totals();
    assert_eq!(t.degraded_frames, 20, "every frame degrades");
    assert!(t.timeouts > 0);
    for s in &report.sessions {
        assert_eq!(s.failed_frames, 0);
        assert!(s.total_polygons > 0, "covers are a real picture");
    }
}

/// Hedged reads: with replicas attached and a hair-trigger hedge threshold,
/// hedges fire, answers stay byte-identical, and nothing degrades.
#[test]
fn hedged_reads_do_not_change_answers() {
    let env = shared_env();
    let plain = ShardRouter::new(&env, 2, RouterConfig::default()).unwrap();
    let hedged = ShardRouter::new_hedged(
        &env,
        2,
        RouterConfig {
            hedge_sim_ms: 0.0,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let session = &record_sessions(&env, 1, 15)[0];
    let mut lane_a = plain.lane();
    let mut lane_b = hedged.lane();
    for &vp in &session.viewpoints {
        plain.route(&mut lane_a, vp, 0.002);
        hedged.route(&mut lane_b, vp, 0.002);
        assert_eq!(lane_a.merged().entries(), lane_b.merged().entries());
    }
    assert!(hedged.totals().hedged > 0, "0ms threshold must hedge");
    assert_eq!(hedged.totals().degraded_frames, 0);
    assert_eq!(plain.totals().hedged, 0, "no replicas, no hedges");
}

/// Global admission: one logical slot per visitor across all shards — the
/// overflow sheds exactly as the unsharded book would.
#[test]
fn global_admission_sheds_overflow_once() {
    let env = shared_env();
    let router = ShardRouter::new(&env, 4, RouterConfig::default()).unwrap();
    let sessions = record_sessions(&env, 5, 8);
    let report = SessionServer::new(
        &router,
        ServerConfig {
            admission: Some(2),
            ..ServerConfig::default()
        },
    )
    .run(&sessions, 3)
    .unwrap();
    let shed = report.shed_sessions();
    assert!(shed > 0, "3 workers racing 2 global slots must shed");
    assert_eq!(report.backpressure.admitted + shed, 5);
    for s in report.sessions.iter().filter(|s| s.shed) {
        assert_eq!(s.failed_frames, 0);
        assert_eq!(
            s.page_reads, 0,
            "shed visitors stay off every shard's disks"
        );
        assert!(s.total_polygons > 0);
    }
}

// ---------------------------------------------------------------------------
// Merge determinism under reply-order permutations (satellite 3 proptest).
// ---------------------------------------------------------------------------

fn entry(id: u64) -> ResultEntry {
    ResultEntry {
        key: ResultKey::Object(id),
        level: (id % 4) as usize,
        polygons: 10 + id,
        bytes: 100 + id,
        dov: 0.25,
        cached: false,
    }
}

/// Distinct [`PathKey`]s from a compact index: a two-level path, so sibling
/// and ancestor orderings both occur.
fn key_of(i: usize) -> PathKey {
    PathKey::ROOT.child(0, i / 8).child(1, i % 8)
}

fn merged(frames: &mut [ShardFrame]) -> QueryResult {
    let mut out = QueryResult::default();
    merge_frames(frames, &mut MergeScratch::new(), &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However entries are scattered across shard slots — and whatever
    /// order each shard's reply filled its slot in — the merged frame is
    /// one fixed, key-sorted sequence.
    #[test]
    fn merge_is_invariant_under_reply_order(
        owners in prop::collection::vec(0usize..5, 1..40),
        seed in prop::collection::vec(0u32..1_000_000, 1..40),
    ) {
        let n = owners.len().min(seed.len());

        // Canonical frames: entry i lives in shard owners[i], slots filled
        // in index order (the DFS order a real sub-query emits).
        let mut canonical: Vec<ShardFrame> = (0..5).map(|_| ShardFrame::new()).collect();
        for i in 0..n {
            canonical[owners[i]].push_for_test(key_of(i), entry(i as u64));
        }
        let want = merged(&mut canonical.clone());

        // A "reply-order permutation": each shard fills its slot in an
        // arbitrary order derived from the seed. The slot-per-shard design
        // plus the stable key sort must erase every trace of it.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (seed[i], i));
        let mut permuted: Vec<ShardFrame> = (0..5).map(|_| ShardFrame::new()).collect();
        for &i in &order {
            permuted[owners[i]].push_for_test(key_of(i), entry(i as u64));
        }
        let got = merged(&mut permuted);

        prop_assert_eq!(got.entries(), want.entries());
        // And the merged order is exactly the global key order.
        let mut keys: Vec<usize> = (0..n).collect();
        keys.sort_by_key(|&i| key_of(i));
        let by_key: Vec<ResultEntry> = keys.into_iter().map(|i| entry(i as u64)).collect();
        prop_assert_eq!(want.entries(), &by_key[..]);
    }

    /// Duplicate keys (possible only under multi-shard faults) resolve by
    /// shard order — the stable-sort tiebreak — never by completion order.
    #[test]
    fn merge_breaks_duplicate_keys_by_shard_order(dup in 0usize..16) {
        let mut frames: Vec<ShardFrame> = (0..3).map(|_| ShardFrame::new()).collect();
        let mut a = entry(7);
        a.level = 0;
        let mut b = entry(7);
        b.level = 3;
        frames[0].push_for_test(key_of(dup), a);
        frames[2].push_for_test(key_of(dup), b);
        let out = merged(&mut frames);
        prop_assert_eq!(out.entries().len(), 2);
        prop_assert_eq!(out.entries()[0].level, 0, "shard 0's copy first");
        prop_assert_eq!(out.entries()[1].level, 3);
    }
}
