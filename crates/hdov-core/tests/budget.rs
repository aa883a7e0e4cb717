//! Budgeted-traversal equivalence suite.
//!
//! Properties, on every storage scheme and on both engines:
//!
//! (a) a search under [`QueryBudget::unlimited`] is byte-identical to the
//!     unbudgeted path — same result entries, same simulated cost breakdown,
//!     and an empty degrade report (the budget machinery must be a single
//!     dead branch when disabled);
//! (b) an exhausted budget stops the descent without an error: the answer
//!     still covers the query (internal LoDs stand in for the pruned
//!     subtrees), every stop is recorded as a `BudgetExhausted` degrade
//!     event, and no event is counted as an absorbed read error;
//! (c) budgets are monotone in coverage cost: a generous budget never
//!     records more stops than a tight one on the same query.

use hdov_core::{
    DegradeCause, HdovBuildConfig, HdovEnvironment, PoolConfig, Query, QueryBudget, QueryResult,
    ResultKey, SearchScratch, SearchStats, SessionCtx, SharedEnvironment, StorageScheme,
};
use hdov_scene::{CityConfig, Scene};
use hdov_visibility::{CellGridConfig, CellId};
use proptest::prelude::*;
use std::sync::OnceLock;

fn scene() -> &'static Scene {
    static SCENE: OnceLock<Scene> = OnceLock::new();
    SCENE.get_or_init(|| CityConfig::tiny().seed(23).generate())
}

fn env(scheme: StorageScheme) -> HdovEnvironment {
    let scene = scene();
    let grid_cfg = CellGridConfig::for_scene(scene).with_resolution(3, 3);
    HdovEnvironment::build(scene, &grid_cfg, HdovBuildConfig::fast_test(), scheme).unwrap()
}

fn shared_env(scheme: StorageScheme) -> SharedEnvironment {
    env(scheme).into_shared(PoolConfig::default())
}

/// A served query (batched V-page prefetch) under `budget`, into an owned
/// result.
fn served(
    env: &SharedEnvironment,
    ctx: &mut SessionCtx,
    cell: CellId,
    eta: f64,
    budget: QueryBudget,
) -> (QueryResult, SearchStats) {
    let mut scratch = SearchScratch::new();
    let q = Query {
        budget,
        prefetch: true,
        ..Query::new(cell, eta)
    };
    let stats = env.search(ctx, &mut scratch, q).unwrap();
    (scratch.take_result(), stats)
}

/// Every byte of a result entry that the query contract promises.
fn keyed(r: &QueryResult) -> Vec<(ResultKey, usize, u64, u64, u32, bool)> {
    r.entries()
        .iter()
        .map(|e| {
            (
                e.key,
                e.level,
                e.polygons,
                e.bytes,
                e.dov.to_bits(),
                e.cached,
            )
        })
        .collect()
}

/// The full simulated-cost breakdown, bit-exact (`IoStats` is `PartialEq`
/// over `f64` microseconds, so equality here means identical charge
/// sequences, not just similar totals).
fn costs(s: &SearchStats) -> impl PartialEq + std::fmt::Debug {
    (
        s.nodes_visited,
        s.vpages_fetched,
        s.node_io,
        s.vstore_io,
        s.model_io,
        s.internal_io,
        s.search_time_ms().to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (a) on the single-user `HdovEnvironment`: two freshly built environments, one
    /// queried plain and one under an unlimited budget, agree byte-for-byte
    /// on every cell.
    #[test]
    fn unlimited_budget_is_byte_identical_sequential(
        eta in 0.0005..0.02f64,
        scheme_idx in 0usize..3,
    ) {
        let scheme = StorageScheme::all()[scheme_idx];
        let mut plain = env(scheme);
        let mut budgeted = env(scheme);
        let cells: Vec<CellId> = (0..plain.grid().cell_count() as CellId).collect();

        for &c in &cells {
            let (r0, s0) = plain.query(Query::new(c, eta)).unwrap();
            let unlimited = Query {
                budget: QueryBudget::unlimited(),
                ..Query::new(c, eta)
            };
            let (r1, s1) = budgeted.query(unlimited).unwrap();
            prop_assert_eq!(keyed(&r1), keyed(&r0), "{} cell {}: entries", scheme, c);
            prop_assert_eq!(costs(&s1), costs(&s0), "{} cell {}: costs", scheme, c);
            prop_assert!(!r1.degrade().is_degraded(), "{} cell {}: spurious degrade", scheme, c);
            prop_assert_eq!(r1.degrade().events().len(), 0);
        }
    }

    /// (a) on the shared engine: two private-pool forks (cold pools on both
    /// sides, so pool population order is part of what must match).
    #[test]
    fn unlimited_budget_is_byte_identical_shared(
        eta in 0.0005..0.02f64,
        scheme_idx in 0usize..3,
    ) {
        let scheme = StorageScheme::all()[scheme_idx];
        let shared = shared_env(scheme);
        let plain = shared.fork_with_private_pools();
        let budgeted = shared.fork_with_private_pools();
        let cells: Vec<CellId> = (0..shared.grid().cell_count() as CellId).collect();

        let mut ctx0 = plain.session();
        let mut ctx1 = budgeted.session();
        for &c in &cells {
            let (r0, s0) = plain.query_cell(&mut ctx0, c, eta).unwrap();
            let (r1, s1) = served(&budgeted, &mut ctx1, c, eta, QueryBudget::unlimited());
            prop_assert_eq!(keyed(&r1), keyed(&r0), "{} cell {}: entries", scheme, c);
            prop_assert_eq!(costs(&s1), costs(&s0), "{} cell {}: costs", scheme, c);
            prop_assert!(!r1.degrade().is_degraded());
        }
    }

    /// (b)+(c): a near-zero budget forces stops on any cell whose descent
    /// costs anything; every stop is a well-formed `BudgetExhausted` event,
    /// the query never errors, and loosening the budget never adds stops.
    #[test]
    fn exhausted_budget_degrades_cleanly(
        eta in 0.0005..0.02f64,
        scheme_idx in 0usize..3,
    ) {
        let scheme = StorageScheme::all()[scheme_idx];
        let mut e = env(scheme);
        let cells: Vec<CellId> = (0..e.grid().cell_count() as CellId).collect();

        let mut tight_stops = 0u64;
        let mut loose_stops = 0u64;
        for &c in &cells {
            let tight = Query {
                budget: QueryBudget::sim_ms(0.001),
                ..Query::new(c, eta)
            };
            let (r, _) = e.query(tight).unwrap();
            let d = r.degrade();
            prop_assert_eq!(d.errors_absorbed(), 0, "budget stops are not read errors");
            prop_assert_eq!(d.budget_stops(), d.events().len() as u64);
            for ev in d.events() {
                prop_assert_eq!(ev.cause, DegradeCause::BudgetExhausted);
                prop_assert!(!ev.error.is_empty(), "event lost its detail string");
            }
            prop_assert!(!r.entries().is_empty(), "coverage must survive the stop");
            tight_stops += d.budget_stops();

            let loose = Query {
                budget: QueryBudget::sim_ms(1e9),
                ..Query::new(c, eta)
            };
            let (r, _) = e.query(loose).unwrap();
            loose_stops += r.degrade().budget_stops();
        }
        prop_assert!(tight_stops > 0, "a 1µs budget must stop some descent");
        prop_assert!(loose_stops <= tight_stops, "loosening the budget added stops");
        prop_assert_eq!(loose_stops, 0, "a 1000s budget cannot be exhausted here");
    }

    /// (b) on the shared engine: budget stops stay inside the session that
    /// drew them — a fresh unbudgeted session over the same pools still gets
    /// exact answers (coarse fallbacks must not have poisoned shared state).
    #[test]
    fn shared_budget_stops_do_not_leak_between_sessions(
        eta in 0.0005..0.02f64,
        scheme_idx in 0usize..3,
    ) {
        let scheme = StorageScheme::all()[scheme_idx];
        let shared = shared_env(scheme);
        let cells: Vec<CellId> = (0..shared.grid().cell_count() as CellId).collect();

        let clean = shared.fork_with_private_pools();
        let mut ctx = clean.session();
        let baseline: Vec<_> = cells
            .iter()
            .map(|&c| keyed(&clean.query_cell(&mut ctx, c, eta).unwrap().0))
            .collect();

        let mut starved = shared.session();
        let mut saw_stop = false;
        for &c in &cells {
            let (r, _) = served(&shared, &mut starved, c, eta, QueryBudget::sim_ms(0.001));
            saw_stop |= r.degrade().budget_stops() > 0;
            prop_assert!(!r.entries().is_empty());
        }
        prop_assert!(saw_stop, "a 1µs budget must stop some shared descent");

        let mut ctx = shared.session();
        for (i, &c) in cells.iter().enumerate() {
            let (r, _) = shared.query_cell(&mut ctx, c, eta).unwrap();
            prop_assert!(!r.degrade().is_degraded(), "{}: degrade leaked", scheme);
            prop_assert_eq!(keyed(&r), baseline[i].clone(), "{}: pooled state diverged", scheme);
        }
    }
}
