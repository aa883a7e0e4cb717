//! The description, result and cost types of the HDoV-tree visibility
//! query (paper Fig. 3), and the naïve (cell, list-of-objects) baseline.
//!
//! A [`Query`] says what one traversal answers — cell, threshold, resident
//! set, budget, prefetch — and every traversal takes one:
//! [`SharedEnvironment::search`] (the walk module's depth-first Fig. 3),
//! [`search_shard`](crate::shard::search_shard) (the same walk, filtered to
//! one shard) and [`search_prioritized`](crate::priority::search_prioritized)
//! (best-first). Model retrieval is charged against the object /
//! internal-LoD model files, V-page fetches against the visibility store's
//! files, and node reads against the node file; [`SearchStats`] separates
//! "light-weight" (nodes + V-pages) from "heavy-weight" (models) I/O
//! exactly as the paper's Fig. 8 does.

use crate::budget::QueryBudget;
use crate::build::TerminationHeuristic;
use crate::delta::DeltaSearch;
use crate::node::HdovEntry;
use crate::shared::{SessionCtx, SharedEnvironment, SharedStorage};
use crate::vpage::VEntry;
use crate::walk::Emit;
use hdov_geom::solid_angle::MAX_DOV;
use hdov_scene::ModelStore;
use hdov_storage::{IoStats, Result, StorageError};
use hdov_visibility::CellId;

/// One visibility query: the cell to answer for, the Fig. 3 threshold, and
/// how to run it. Build one with [`Query::new`] and struct-update syntax:
///
/// ```
/// # use hdov_core::{DeltaSearch, Query, QueryBudget};
/// let resident = DeltaSearch::new();
/// let q = Query {
///     resident: Some(&resident),
///     budget: QueryBudget::sim_ms(5.0),
///     ..Query::new(3, 0.002)
/// };
/// assert!(q.resident.is_some() && !q.prefetch);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Query<'a> {
    /// The viewing cell.
    pub cell: CellId,
    /// The DoV threshold `η ≥ 0` of Fig. 3 line 7.
    pub eta: f64,
    /// The walkthrough's resident set (§5.4 delta search): an answer entry
    /// already resident at the same LoD level is returned `cached` and
    /// costs no model I/O. The set is only read; folding the answer into it
    /// ([`DeltaSearch::apply`] or [`merge`](DeltaSearch::merge)) is the
    /// caller's move.
    pub resident: Option<&'a DeltaSearch>,
    /// What the query may spend before it stops descending (DESIGN.md §12).
    pub budget: QueryBudget,
    /// Batch-read the cell's V-pages right after the segment flip (served
    /// sessions); off, V-pages are read where the traversal needs them.
    pub prefetch: bool,
}

impl Query<'_> {
    /// A query for `cell` at threshold `eta`: no resident set, an unlimited
    /// budget, no prefetch.
    pub fn new(cell: CellId, eta: f64) -> Self {
        Query {
            cell,
            eta,
            resident: None,
            budget: QueryBudget::UNLIMITED,
            prefetch: false,
        }
    }

    /// Rejects a query `env` cannot answer — a cell outside the grid, or a
    /// negative or NaN η — with [`StorageError::InvalidPlan`], before
    /// anything is read or charged.
    pub(crate) fn check(&self, env: &SharedEnvironment) -> Result<()> {
        env.vstore.check_cell(self.cell)?;
        check(self.eta >= 0.0, || {
            format!("eta {} is not a non-negative number", self.eta)
        })
    }
}

/// `Ok` when `ok`, else [`StorageError::InvalidPlan`] with `reason`.
pub(crate) fn check(ok: bool, reason: impl FnOnce() -> String) -> Result<()> {
    ok.then_some(())
        .ok_or_else(|| StorageError::InvalidPlan { reason: reason() })
}

/// CPU cost charged per node visited (µs) on top of simulated I/O time.
pub const CPU_PER_NODE_US: f64 = 15.0;
/// CPU cost charged per result entry (µs).
pub const CPU_PER_RESULT_US: f64 = 2.0;

/// What a result entry represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResultKey {
    /// An object model.
    Object(u64),
    /// An internal LoD of the node with this ordinal.
    Internal(u32),
}

/// One retrieved representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultEntry {
    /// What was retrieved.
    pub key: ResultKey,
    /// LoD level fetched (0 = highest detail).
    pub level: usize,
    /// Polygons of the fetched level.
    pub polygons: u64,
    /// Bytes of the fetched level.
    pub bytes: u64,
    /// The driving DoV value.
    pub dov: f32,
    /// True when the model was already resident (delta search) and no model
    /// I/O was performed.
    pub cached: bool,
}

/// Why a subtree was served as an internal LoD instead of being descended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeCause {
    /// A read error retries could not absorb (DESIGN.md §11).
    ReadError,
    /// The query's [`QueryBudget`] ran out before this
    /// subtree's descent (DESIGN.md §12) — the fallback preserves coverage,
    /// not the error path.
    BudgetExhausted,
    /// A shard engine was tripped, timed out, or failed, and the router
    /// served its tiles from the shard's precomputed coarse cover instead
    /// of failing the frame (DESIGN.md §17).
    ShardUnavailable,
}

/// One degraded subtree: the subtree rooted at `ordinal` was not traversed
/// (a read failure, or an exhausted budget) and was served as that node's
/// internal LoD instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradeEvent {
    /// Ordinal of the node whose subtree was served coarse.
    pub ordinal: u32,
    /// Visible objects the fallback entry stands in for (the entry's NVO;
    /// the tree's whole object count for a root fallback).
    pub objects_coarse: u64,
    /// Why the subtree degraded.
    pub cause: DegradeCause,
    /// Display form of the absorbed
    /// [`StorageError`], or a fixed budget
    /// notice — never empty.
    pub error: String,
}

/// How much of a query's answer was served coarse after read failures that
/// retries could not absorb (§ DESIGN.md 11). Empty — and allocation-free —
/// on the fault-free path.
#[derive(Debug, Clone, Default)]
pub struct DegradeReport {
    events: Vec<DegradeEvent>,
}

impl DegradeReport {
    /// True when at least one read error was absorbed.
    pub fn is_degraded(&self) -> bool {
        !self.events.is_empty()
    }

    /// Every absorbed failure, in traversal order.
    pub fn events(&self) -> &[DegradeEvent] {
        &self.events
    }

    /// Read errors the traversal absorbed instead of failing the query
    /// (budget stops are counted separately by
    /// [`budget_stops`](Self::budget_stops)).
    pub fn errors_absorbed(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.cause == DegradeCause::ReadError)
            .count() as u64
    }

    /// Subtrees served as internal LoDs because the query's
    /// [`QueryBudget`] ran out mid-descent.
    pub fn budget_stops(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.cause == DegradeCause::BudgetExhausted)
            .count() as u64
    }

    /// Subtrees served as an ancestor's internal LoD after *read failures*
    /// (one per absorbed error: every absorbed failure produces exactly one
    /// fallback entry). Budget stops are not fallbacks — they are planned
    /// coverage, counted by [`budget_stops`](Self::budget_stops).
    pub fn lod_fallbacks(&self) -> u64 {
        self.errors_absorbed()
    }

    /// Objects represented only by a coarse internal LoD in the answer set.
    pub fn objects_coarse(&self) -> u64 {
        self.events.iter().map(|e| e.objects_coarse).sum()
    }

    /// Lower bound on pages the degraded traversal never read: at least the
    /// one unreadable page behind each absorbed error (the pruned subtree's
    /// remaining pages are unknown without traversing it).
    pub fn pages_skipped(&self) -> u64 {
        self.events.len() as u64
    }
}

/// The answer set of one visibility query.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    entries: Vec<ResultEntry>,
    degrade: DegradeReport,
}

impl QueryResult {
    /// All retrieved representations.
    pub fn entries(&self) -> &[ResultEntry] {
        &self.entries
    }

    /// Total polygons the graphics engine would render.
    pub fn total_polygons(&self) -> u64 {
        self.entries.iter().map(|e| e.polygons).sum()
    }

    /// Total model bytes in the answer set.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Bytes actually fetched this query (excludes cached entries).
    pub fn fetched_bytes(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| !e.cached)
            .map(|e| e.bytes)
            .sum()
    }

    /// Total DoV mass captured by the answer set (objects and internal LoDs).
    pub fn captured_dov(&self) -> f64 {
        self.entries.iter().map(|e| e.dov as f64).sum()
    }

    /// Number of object-level entries.
    pub fn object_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.key, ResultKey::Object(_)))
            .count()
    }

    /// Number of internal-LoD entries.
    pub fn internal_count(&self) -> usize {
        self.entries.len() - self.object_count()
    }

    /// What the query served coarse (or skipped) after absorbed read
    /// failures — empty on a fault-free run.
    pub fn degrade(&self) -> &DegradeReport {
        &self.degrade
    }

    pub(crate) fn push(&mut self, e: ResultEntry) {
        self.entries.push(e);
    }

    pub(crate) fn record_degrade(&mut self, event: DegradeEvent) {
        self.degrade.events.push(event);
    }

    /// Drops all entries, retaining the allocation — scratch buffers
    /// ([`SearchScratch`](crate::shared::SearchScratch)) reuse one result
    /// across queries so steady-state searches allocate nothing.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.degrade.events.clear();
    }

    /// Test-only constructor hook.
    #[doc(hidden)]
    pub fn push_for_test(&mut self, e: ResultEntry) {
        self.push(e);
    }
}

/// Per-query cost breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// Tree nodes read.
    pub nodes_visited: u64,
    /// V-pages fetched (including hidden-placeholder fetches under the
    /// horizontal scheme).
    pub vpages_fetched: u64,
    /// Node-file I/O.
    pub node_io: IoStats,
    /// Visibility-store I/O (V-page-index + V-pages).
    pub vstore_io: IoStats,
    /// Object model I/O.
    pub model_io: IoStats,
    /// Internal-LoD model I/O.
    pub internal_io: IoStats,
}

impl SearchStats {
    /// "Light-weight" I/O: tree nodes + visibility data (paper Fig. 8b).
    pub fn light_io(&self) -> IoStats {
        self.node_io + self.vstore_io
    }

    /// "Heavy-weight" I/O: model data (object + internal LoDs).
    pub fn heavy_io(&self) -> IoStats {
        self.model_io + self.internal_io
    }

    /// Everything (paper Fig. 8a).
    pub fn total_io(&self) -> IoStats {
        self.light_io() + self.heavy_io()
    }

    /// Simulated search time in milliseconds: I/O time plus a small CPU
    /// charge per node and result.
    pub fn search_time_ms(&self) -> f64 {
        (self.total_io().elapsed_us
            + self.nodes_visited as f64 * CPU_PER_NODE_US
            + self.vpages_fetched as f64 * CPU_PER_RESULT_US)
            / 1000.0
    }

    /// Search time excluding model retrieval (paper Fig. 9 reports the
    /// traversal cost only).
    pub fn traversal_time_ms(&self) -> f64 {
        (self.light_io().elapsed_us + self.nodes_visited as f64 * CPU_PER_NODE_US) / 1000.0
    }
}

/// Resolves a blend factor `k ∈ [0, 1]` to a discrete LoD level of `key` in
/// `store` — the paper's Eq. 5/6 interpolation
/// (`k · LoD_highest + (1 − k) · LoD_lowest`), snapped to the level whose
/// polygon count is nearest the interpolated budget.
pub fn select_level(store: &ModelStore, key: u64, k: f64) -> usize {
    store.select_level(key, k)
}

/// The unsharded sink: keeps every entry, needs no positions.
impl Emit for QueryResult {
    type Path = ();

    fn child(&self, _: (), _: usize) {}

    fn push(&mut self, _: (), entry: ResultEntry) {
        QueryResult::push(self, entry);
    }

    fn degrade(&mut self, _: (), event: DegradeEvent) {
        self.record_degrade(event);
    }

    fn mark(&self) -> (usize, usize) {
        (self.entries.len(), self.degrade.events.len())
    }

    fn rollback(&mut self, mark: (usize, usize)) {
        self.entries.truncate(mark.0);
        self.degrade.events.truncate(mark.1);
    }

    fn clear(&mut self) {
        QueryResult::clear(self);
    }

    fn events(&self) -> impl Iterator<Item = &DegradeEvent> {
        self.degrade.events.iter()
    }
}

/// The second condition of Fig. 3 line 7, per the configured heuristic.
pub(crate) fn terminates_with(
    heuristic: TerminationHeuristic,
    fanout: usize,
    internal_store: &ModelStore,
    entry: &HdovEntry,
    ve: &VEntry,
) -> bool {
    match heuristic {
        TerminationHeuristic::Always => true,
        TerminationHeuristic::Eq4 => {
            // h (1 + log_M s) < log_M NVO, with h = subtree height above the
            // leaf level and M the fan-out.
            let m = fanout as f64;
            let log_m = |x: f64| x.ln() / m.ln();
            let h = entry.child_height.saturating_sub(1) as f64;
            let s = (entry.child_s as f64).max(1e-9);
            h * (1.0 + log_m(s)) < log_m(ve.nvo.max(1) as f64)
        }
        TerminationHeuristic::Exact => {
            // Eq. 3: internal LoD polygons < visible descendant polygons.
            let internal = internal_store
                .handle(entry.child_ordinal as u64, 0)
                .polygons as f64;
            internal < ve.nvo as f64 * entry.child_f as f64
        }
    }
}

/// Eq. 6's blend factor for an object entry with DoV `dov`.
pub(crate) fn object_blend(dov: f32) -> f64 {
    (dov as f64 / MAX_DOV).min(1.0)
}

/// The naïve (cell, list-of-objects) baseline of §5.3: "accesses the V-pages
/// of visible leaf nodes only; all the models retrieved are from the object
/// LoDs". Leaf→object lists are in-memory (view-invariant), so the only
/// light-weight I/O is the leaf V-pages. Charged to `ctx`'s cursors.
pub(crate) fn naive_query(
    env: &SharedEnvironment,
    ctx: &mut SessionCtx,
    cell: CellId,
) -> Result<(QueryResult, SearchStats)> {
    let mut storage = SharedStorage::new(env, ctx, false);
    let meters = storage.begin();
    storage.enter_cell(cell)?;

    let mut out = QueryResult::default();
    let mut stats = SearchStats::default();
    let tree = env.tree();
    for (i, &ordinal) in tree.leaf_ordinals().iter().enumerate() {
        let Some(vpage) = storage.vpage(ordinal)? else {
            continue;
        };
        stats.vpages_fetched += 1;
        if !vpage.any_visible() {
            continue;
        }
        for (&id, ve) in tree.leaf_objects(i).iter().zip(&vpage.entries) {
            if ve.dov <= 0.0 {
                continue;
            }
            let key = ResultKey::Object(id);
            out.push(storage.lod(key, object_blend(ve.dov), ve.dov, None, false)?);
        }
    }
    storage.finish(&meters, &mut stats);
    Ok((out, stats))
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    fn io(reads: u64, us: f64) -> IoStats {
        IoStats {
            page_reads: reads,
            page_writes: 0,
            sequential_reads: 0,
            random_reads: reads,
            elapsed_us: us,
        }
    }

    #[test]
    fn stat_partitions_sum_to_total() {
        let s = SearchStats {
            nodes_visited: 4,
            vpages_fetched: 5,
            node_io: io(4, 400.0),
            vstore_io: io(6, 600.0),
            model_io: io(10, 1000.0),
            internal_io: io(2, 200.0),
        };
        assert_eq!(s.light_io().page_reads, 10);
        assert_eq!(s.heavy_io().page_reads, 12);
        assert_eq!(s.total_io().page_reads, 22);
        assert!((s.total_io().elapsed_us - 2200.0).abs() < 1e-9);
        // Time model: I/O + per-node and per-vpage CPU.
        let expect_ms = (2200.0 + 4.0 * CPU_PER_NODE_US + 5.0 * CPU_PER_RESULT_US) / 1000.0;
        assert!((s.search_time_ms() - expect_ms).abs() < 1e-12);
        assert!(s.traversal_time_ms() < s.search_time_ms());
    }

    #[test]
    fn query_result_accessors() {
        let mut r = QueryResult::default();
        r.push_for_test(ResultEntry {
            key: ResultKey::Object(1),
            level: 0,
            polygons: 100,
            bytes: 1200,
            dov: 0.3,
            cached: false,
        });
        r.push_for_test(ResultEntry {
            key: ResultKey::Internal(5),
            level: 1,
            polygons: 40,
            bytes: 500,
            dov: 0.001,
            cached: true,
        });
        assert_eq!(r.total_polygons(), 140);
        assert_eq!(r.total_bytes(), 1700);
        assert_eq!(r.fetched_bytes(), 1200, "cached entries are not fetched");
        assert_eq!(r.object_count(), 1);
        assert_eq!(r.internal_count(), 1);
        assert!((r.captured_dov() - 0.301).abs() < 1e-6);
    }

    #[test]
    fn result_keys_order_deterministically() {
        let mut keys = vec![
            ResultKey::Internal(2),
            ResultKey::Object(1),
            ResultKey::Object(0),
            ResultKey::Internal(0),
        ];
        keys.sort();
        // Objects sort before internals (enum variant order), ids ascending.
        assert_eq!(
            keys,
            vec![
                ResultKey::Object(0),
                ResultKey::Object(1),
                ResultKey::Internal(0),
                ResultKey::Internal(2),
            ]
        );
    }
}
