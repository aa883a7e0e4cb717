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

use hdov_core::shard::{merge_frames, search_shard, PathKey, ShardFrame, ShardPlan};
use hdov_core::{
    DeltaSearch, HdovBuildConfig, HdovEnvironment, MutableScene, PoolConfig, Query, QueryBudget,
    QueryResult, ResultEntry, ResultKey, SearchScratch, SharedEnvironment, StorageScheme,
    MAX_SHARDS,
};
use hdov_geom::Vec3;
use hdov_scene::CityConfig;
use hdov_shard::{BreakerState, RouterConfig, ShardChaos, ShardRouter};
use hdov_storage::StorageError;
use hdov_visibility::{CellGridConfig, CellId};
use hdov_walkthrough::{ServerConfig, Session, SessionKind, SessionServer};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

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

/// A viewpoint at the centre of every cell of `env`'s grid, in cell order.
fn cell_centres(env: &SharedEnvironment) -> Vec<Vec3> {
    let grid = env.grid();
    (0..grid.cell_count())
        .map(|c| {
            let vp = grid.cell_bounds(c as CellId).center();
            assert_eq!(env.cell_of(vp), c as CellId);
            vp
        })
        .collect()
}

/// The descend gate loses nothing: visiting every cell of the grid in
/// turn (one visitor, so the resident set carries across cells), the merged
/// frame equals the unsharded answer at 1, 4 and 7 shards and at η of 0,
/// 0.002 and 0.05 — a shard enters a subtree only where it has visible
/// work, and every cell fans out to every shard that has some.
///
/// Besides the router's spatial tiles, a dealt plan gives shard 0 only the
/// first object of each leaf — so, as a node's owner is the owner of its
/// first object, shard 0 owns every node — and deals the rest round-robin
/// to the other shards. Shard 0 then must enter a subtree to emit an
/// η-terminated child there even when none of its own objects is visible.
#[test]
fn every_cell_merges_to_the_unsharded_answer() {
    let env = shared_env();
    let centres = cell_centres(&env);
    let leading: HashSet<u64> = tree_positions(&env)
        .into_iter()
        .filter(|&(_, _, index)| index == 0)
        .filter_map(|(key, _, _)| match key {
            ResultKey::Object(id) => Some(id),
            ResultKey::Internal(_) => None,
        })
        .collect();
    let mut internal = 0;
    for shards in [1, 4, 7] {
        let router = ShardRouter::new(&env, shards, RouterConfig::default()).unwrap();
        let dealt = ShardPlan::build(&env, shards, |id, _| {
            if shards == 1 || leading.contains(&id) {
                0
            } else {
                1 + id as usize % (shards - 1)
            }
        })
        .unwrap();
        for eta in [0.0, 0.002, 0.05] {
            let reference = env.fork_with_private_pools();
            let mut ctx = reference.session();
            let mut scratch = SearchScratch::new();
            let mut delta = DeltaSearch::new();
            let mut lane = router.lane();
            let mut ctxs: Vec<_> = (0..shards).map(|_| env.session()).collect();
            let mut frames: Vec<_> = (0..shards).map(|_| ShardFrame::new()).collect();
            let mut dealt_out = QueryResult::default();
            for (cell, &vp) in centres.iter().enumerate() {
                let q = Query {
                    resident: Some(&delta),
                    prefetch: true,
                    ..Query::new(cell as CellId, eta)
                };
                reference.search(&mut ctx, &mut scratch, q).unwrap();
                let want = scratch.result();
                let rs = router.route(&mut lane, vp, eta);
                assert_eq!(
                    lane.merged().entries(),
                    want.entries(),
                    "cell {cell} at η {eta} diverged through {shards} shard(s)"
                );
                assert_eq!(rs.degraded_shards, 0);

                let fanout = dealt.cell_mask(cell as CellId);
                for (s, frame) in frames.iter_mut().enumerate() {
                    frame.clear();
                    if fanout & (1 << s) != 0 {
                        search_shard(&env, &mut ctxs[s], &dealt, s, frame, q).unwrap();
                    }
                }
                merge_frames(&mut frames, &mut dealt_out);
                assert_eq!(
                    dealt_out.entries(),
                    want.entries(),
                    "cell {cell} at η {eta} diverged through {shards} dealt shard(s)"
                );
                internal += want
                    .entries()
                    .iter()
                    .filter(|e| matches!(e.key, ResultKey::Internal(_)))
                    .count();
                delta.apply(want);
            }
        }
    }
    assert!(internal > 0, "some subtrees must η-terminate");
}

/// Every tree position below the root: what an answer entry names there,
/// its parent node's ordinal, and its entry index in that node.
fn tree_positions(env: &SharedEnvironment) -> Vec<(ResultKey, u32, usize)> {
    let mut ctx = env.session();
    let mut out = Vec::new();
    let mut stack = vec![env.tree().root_ordinal()];
    while let Some(ordinal) = stack.pop() {
        let node = env.tree().read_node(&mut ctx.node_cur, ordinal).unwrap();
        for (i, e) in node.entries().enumerate() {
            let key = if e.is_object() {
                ResultKey::Object(e.child)
            } else {
                stack.push(e.child_ordinal);
                ResultKey::Internal(e.child_ordinal)
            };
            out.push((key, ordinal, i));
        }
    }
    out
}

/// Budget stops under the descend gate narrow the coarse fallbacks a shard
/// serves to subtrees where it has visible work, but never leave a gap:
/// replaying budgeted sessions through 4 and 7 shards, every entry of the
/// unsharded *unlimited* answer is in the merged frame itself or under an
/// internal LoD of one of its ancestors.
#[test]
fn budgeted_sharded_frames_cover_every_visible_entry() {
    let env = shared_env();
    let parent: HashMap<ResultKey, u32> = tree_positions(&env)
        .into_iter()
        .map(|(key, p, _)| (key, p))
        .collect();
    let sessions = record_sessions(&env, 3, 30);
    let budget = QueryBudget::sim_ms(BUDGET_MS);
    for shards in [4, 7] {
        let router = ShardRouter::new(&env, shards, RouterConfig::default()).unwrap();
        let reference = env.fork_with_private_pools();
        let mut ctx = reference.session();
        let mut scratch = SearchScratch::new();
        let mut stops = 0;
        for session in &sessions {
            let mut lane = router.lane();
            for (i, &vp) in session.viewpoints.iter().enumerate() {
                let q = Query::new(reference.cell_of(vp), 0.002);
                reference.search(&mut ctx, &mut scratch, q).unwrap();
                router.route_budgeted(&mut lane, vp, 0.002, budget);
                let got = lane.merged();
                stops += got.degrade().budget_stops();
                let served: HashSet<ResultKey> = got.entries().iter().map(|e| e.key).collect();
                for e in scratch.result().entries() {
                    let mut at = e.key;
                    let covered = loop {
                        if served.contains(&at) {
                            break true;
                        }
                        match parent.get(&at) {
                            Some(&p) => at = ResultKey::Internal(p),
                            None => break false,
                        }
                    };
                    assert!(
                        covered,
                        "frame {i}: {:?} uncovered at {shards} shards",
                        e.key
                    );
                }
            }
        }
        assert!(
            stops > 0,
            "the budget must stop descents at {shards} shards"
        );
        assert_eq!(router.totals().degraded_frames, 0);
    }
}

/// Each routed frame reports the nodes and V-pages its answered
/// sub-queries read; at one shard those are the unsharded search's counts,
/// frame by frame.
#[test]
fn single_shard_route_counts_equal_unsharded_stats() {
    let env = shared_env();
    let router = ShardRouter::new(&env, 1, RouterConfig::default()).unwrap();
    let reference = env.fork_with_private_pools();
    let mut ctx = reference.session();
    let mut scratch = SearchScratch::new();
    let mut delta = DeltaSearch::new();
    let mut lane = router.lane();
    for (i, &vp) in record_sessions(&env, 1, 30)[0]
        .viewpoints
        .iter()
        .enumerate()
    {
        let q = Query {
            resident: Some(&delta),
            prefetch: true,
            ..Query::new(reference.cell_of(vp), 0.002)
        };
        let want = reference.search(&mut ctx, &mut scratch, q).unwrap();
        delta.apply(scratch.result());
        let rs = router.route(&mut lane, vp, 0.002);
        assert!(want.nodes_visited > 0);
        assert_eq!(
            (rs.nodes_visited, rs.vpages_fetched),
            (want.nodes_visited, want.vpages_fetched),
            "frame {i}"
        );
    }
}

/// A plan answers only for the tree and DoV table it was built from: a
/// separately built environment of the same scene, or a mutable scene's
/// next epoch, is refused with a typed error, while any fork of the
/// plan's environment is served.
#[test]
fn search_shard_refuses_a_plan_from_another_environment() {
    let refused = |plan: &ShardPlan, other: &SharedEnvironment| {
        let mut ctx = other.session();
        let mut frame = ShardFrame::new();
        let q = Query::new(0, 0.002);
        let err = search_shard(other, &mut ctx, plan, 0, &mut frame, q).unwrap_err();
        assert!(matches!(err, StorageError::InvalidPlan { .. }), "{err}");
        assert!(!err.is_transient());
    };

    let env = shared_env();
    let plan = ShardPlan::build(&env, 4, |id, _| id as usize % 4).unwrap();
    refused(&plan, &shared_env());
    let fork = env.fork_with_private_pools();
    let mut ctx = fork.session();
    let mut frame = ShardFrame::new();
    search_shard(&fork, &mut ctx, &plan, 0, &mut frame, Query::new(0, 0.002)).unwrap();

    let dir = std::env::temp_dir().join(format!("hdov_shard_pin_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let scene = CityConfig::tiny().seed(11).generate();
    let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(4, 4);
    let mut ms = MutableScene::create(
        &dir,
        "pin",
        &scene,
        &grid_cfg,
        HdovBuildConfig::fast_test(),
        StorageScheme::IndexedVertical,
        PoolConfig::default(),
    )
    .unwrap();
    let first = ms.current();
    let plan = ShardPlan::build(&first, 4, |id, _| id as usize % 4).unwrap();
    let handle = ms.handles()[0];
    ms.translate(handle, Vec3::new(1.0, 0.0, 0.0)).unwrap();
    ms.commit().unwrap();
    refused(&plan, &ms.current());
    std::fs::remove_dir_all(&dir).ok();
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
    assert_eq!((t.degraded_frames, t.timeouts, t.breaker_opens), (0, 0, 0));
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
    merge_frames(frames, &mut out);
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
