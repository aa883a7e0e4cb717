//! The HDoV-tree visibility query (paper Fig. 3) on the sequential engine,
//! its result and cost types, and the naïve (cell, list-of-objects)
//! baseline.
//!
//! The traversal itself lives in the walk module, shared with the
//! concurrent and sharded engines; this module supplies the sequential
//! storage adapter. Model retrieval is charged against the object /
//! internal-LoD model files, V-page fetches against the
//! [`VisibilityStore`], and node reads against the node file;
//! [`SearchStats`] separates "light-weight" (nodes + V-pages) from
//! "heavy-weight" (models) I/O exactly as the paper's Fig. 8 does.

use crate::budget::QueryBudget;
use crate::build::{HdovTree, TerminationHeuristic};
use crate::node::{HdovEntry, HdovNode};
use crate::storage::VisibilityStore;
use crate::vpage::{VEntry, VPage};
use crate::walk::{self, Emit, Storage};
use hdov_geom::solid_angle::MAX_DOV;
use hdov_scene::{ModelHandle, ModelStore, Scene};
use hdov_storage::{DiskModel, IoStats, Result, SimulatedDisk, StorageBackend, StoreFile};
use hdov_visibility::CellId;
use std::collections::HashMap;
use std::sync::Arc;

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
    /// The query's [`QueryBudget`] ran out before this subtree's descent
    /// (DESIGN.md §12) — the fallback preserves coverage, not the error path.
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
    /// [`StorageError`](hdov_storage::StorageError), or a fixed budget
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

/// The object-model bank: the scene's LoD geometry on its own metered disk.
pub struct ObjectModels {
    /// Directory of per-object LoD chains.
    pub store: ModelStore,
    /// The metered model file.
    pub disk: SimulatedDisk<StoreFile>,
}

impl ObjectModels {
    /// Lays out every scene object's LoD chain on a fresh simulated disk.
    pub fn build(scene: &Scene, model: DiskModel) -> Result<Self> {
        let mut disk = SimulatedDisk::new(StoreFile::new_mem(), model);
        let chains = scene
            .objects()
            .iter()
            .map(|o| scene.prototypes().chain(o.prototype));
        let store = ModelStore::build(&mut disk, chains)?;
        disk.reset_stats();
        disk.enable_checksums()?;
        Ok(ObjectModels { store, disk })
    }

    /// Relocates the model file onto `backend` as `<prefix>models` (see
    /// [`StorageBackend::freeze`]); the bank becomes read-only.
    pub fn relocate(&mut self, backend: &StorageBackend, prefix: &str) -> Result<()> {
        crate::storage::relocate_disk(&mut self.disk, backend, &format!("{prefix}models"))
    }
}

/// Resolves a blend factor `k ∈ [0, 1]` to a discrete LoD level of `key` in
/// `store` — the paper's Eq. 5/6 interpolation
/// (`k · LoD_highest + (1 − k) · LoD_lowest`), snapped to the level whose
/// polygon count is nearest the interpolated budget.
pub fn select_level(store: &ModelStore, key: u64, k: f64) -> usize {
    store.select_level(key, k)
}

/// Runs the threshold visibility query of Fig. 3.
///
/// `skip` maps already-resident keys to their resident LoD level: matching
/// entries are included in the result with `cached = true` and cost no model
/// I/O (the walkthrough "delta" optimisation, §5.4).
pub fn search(
    tree: &mut HdovTree,
    vstore: &mut dyn VisibilityStore,
    objects: &mut ObjectModels,
    cell: CellId,
    eta: f64,
    skip: Option<&HashMap<ResultKey, usize>>,
) -> Result<(QueryResult, SearchStats)> {
    search_budgeted(
        tree,
        vstore,
        objects,
        cell,
        eta,
        skip,
        QueryBudget::UNLIMITED,
    )
}

/// [`search`] under a [`QueryBudget`]: when the budget exhausts mid-descent
/// the traversal stops descending and serves every remaining subtree as its
/// internal LoD, recorded as [`DegradeCause::BudgetExhausted`] events in the
/// result's [`DegradeReport`]. An unlimited budget is byte-identical to
/// [`search`] (answer, simulated costs, empty degrade report).
pub fn search_budgeted(
    tree: &mut HdovTree,
    vstore: &mut dyn VisibilityStore,
    objects: &mut ObjectModels,
    cell: CellId,
    eta: f64,
    skip: Option<&HashMap<ResultKey, usize>>,
    budget: QueryBudget,
) -> Result<(QueryResult, SearchStats)> {
    let mut out = QueryResult::default();
    let mut storage = SeqStorage {
        tree,
        vstore,
        objects,
    };
    let stats = walk::run(&mut storage, &mut out, cell, eta, skip, budget)?;
    Ok((out, stats))
}

/// The sequential engine's [`Storage`]: the tree's node cache and disks,
/// the store's one-page V-page buffer, and the model bank's disk.
struct SeqStorage<'a> {
    tree: &'a mut HdovTree,
    vstore: &'a mut dyn VisibilityStore,
    objects: &'a mut ObjectModels,
}

impl Storage for SeqStorage<'_> {
    type VPage = VPage;
    /// Node, internal-LoD and model meters (the store's are reset instead).
    type Meters = [IoStats; 3];

    fn begin(&mut self) -> [IoStats; 3] {
        let meters = [
            self.tree.node_io(),
            self.tree.internal_io(),
            self.objects.disk.stats(),
        ];
        self.vstore.reset_stats();
        meters
    }

    fn io_elapsed_us(&self) -> f64 {
        self.tree.node_io().elapsed_us
            + self.tree.internal_io().elapsed_us
            + self.objects.disk.stats().elapsed_us
            + self.vstore.stats().elapsed_us
    }

    fn enter_cell(&mut self, cell: CellId) -> Result<()> {
        self.vstore.enter_cell(cell)
    }

    fn vpage(&mut self, ordinal: u32) -> Result<Option<VPage>> {
        self.vstore.fetch(ordinal)
    }

    fn node(&mut self, ordinal: u32) -> Result<Arc<HdovNode>> {
        self.tree.read_node(ordinal)
    }

    fn object_store(&self) -> &ModelStore {
        &self.objects.store
    }

    fn internal_store(&self) -> &ModelStore {
        self.tree.internal_store()
    }

    fn fetch_object(&mut self, id: u64, level: usize) -> Result<ModelHandle> {
        self.objects.store.fetch(&mut self.objects.disk, id, level)
    }

    fn fetch_internal(&mut self, ordinal: u32, level: usize) -> Result<ModelHandle> {
        self.tree.fetch_internal_lod(ordinal, level)
    }

    fn terminates(&self, entry: &HdovEntry, ve: &VEntry) -> bool {
        terminates_entry(self.tree, entry, ve)
    }

    fn object_count(&self) -> u64 {
        self.tree.object_count()
    }

    fn finish(&self, start: &[IoStats; 3], stats: &mut SearchStats) {
        stats.node_io = self.tree.node_io().since(&start[0]);
        stats.internal_io = self.tree.internal_io().since(&start[1]);
        stats.model_io = self.objects.disk.stats().since(&start[2]);
        stats.vstore_io = self.vstore.stats();
    }
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
/// (Shared with the prioritized traversal in [`crate::priority`].)
pub(crate) fn terminates_entry(tree: &HdovTree, entry: &HdovEntry, ve: &VEntry) -> bool {
    terminates_with(
        tree.heuristic(),
        tree.fanout(),
        tree.internal_store(),
        entry,
        ve,
    )
}

/// [`terminates_entry`] decomposed to its actual inputs, so the shared
/// (concurrent) traversal can evaluate it without an `HdovTree`.
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

/// The naïve (cell, list-of-objects) baseline of §5.3: "accesses the V-pages
/// of visible leaf nodes only; all the models retrieved are from the object
/// LoDs". Leaf→object lists are in-memory (view-invariant), so the only
/// light-weight I/O is the leaf V-pages.
pub fn naive_query(
    tree: &mut HdovTree,
    vstore: &mut dyn VisibilityStore,
    objects: &mut ObjectModels,
    cell: CellId,
) -> Result<(QueryResult, SearchStats)> {
    let model_io0 = objects.disk.stats();
    vstore.reset_stats();
    vstore.enter_cell(cell)?;

    let mut out = QueryResult::default();
    let mut stats = SearchStats::default();
    let leaf_ordinals: Vec<u32> = tree.leaf_ordinals().to_vec();
    for (i, ordinal) in leaf_ordinals.iter().enumerate() {
        let Some(vpage) = vstore.fetch(*ordinal)? else {
            continue;
        };
        stats.vpages_fetched += 1;
        if !vpage.any_visible() {
            continue;
        }
        let ids: Vec<u64> = tree.leaf_objects(i).to_vec();
        for (&id, ve) in ids.iter().zip(&vpage.entries) {
            if ve.dov <= 0.0 {
                continue;
            }
            let k = (ve.dov as f64 / MAX_DOV).min(1.0);
            let level = select_level(&objects.store, id, k);
            let h = objects.store.fetch(&mut objects.disk, id, level)?;
            out.entries.push(ResultEntry {
                key: ResultKey::Object(id),
                level,
                polygons: h.polygons as u64,
                bytes: h.bytes as u64,
                dov: ve.dov,
                cached: false,
            });
        }
    }
    stats.model_io = objects.disk.stats().since(&model_io0);
    stats.vstore_io = vstore.stats();
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
