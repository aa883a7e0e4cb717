//! [`HdovEnvironment`] — the assembled system: tree + storage scheme +
//! models + cell grid, behind a small single-user query API.

use crate::build::{CellVPages, HdovBuildConfig, HdovTree};
use crate::node::HdovNode;
use crate::priority::{search_prioritized, PrioritizedOutcome};
use crate::search::{naive_query, Query, QueryResult, SearchStats};
use crate::shared::{
    PoolConfig, SearchScratch, SessionCtx, SharedEnvironment, SharedModels, SharedTree,
    SharedVStore,
};
use crate::storage::StorageScheme;
use crate::vpage::VPageCodec;
use hdov_geom::{Frustum, Vec3};
use hdov_scene::Scene;
use hdov_storage::{FaultPlan, Result, SharedFaultyFile, StorageBackend};
use hdov_visibility::{CellGrid, CellGridConfig, CellId, DovTable};
use std::sync::Arc;

/// Single-session pool geometry `(capacity_pages, shards)` of the node,
/// internal-LoD, object-model and V-page-index files: they keep nothing,
/// so every read is a charged miss — the paper's cache-less simulated
/// disk ("none of the two systems caches the tree nodes", §5.4).
pub(crate) const UNBUFFERED: (usize, usize) = (0, 1);

/// Single-session pool geometry of the V-page file: the one disk page last
/// read, as any paging client holds while copying records out.
pub(crate) const VPAGE_BUFFER: (usize, usize) = (1, 1);

/// A complete, queryable HDoV-tree deployment for one user.
///
/// Owns a frozen [`SharedEnvironment`] — node file, visibility store, object
/// and internal-LoD model banks, cell grid and (for fidelity metrics) the
/// ground-truth DoV table — and the one [`SessionCtx`] that queries it. The
/// pools keep nothing but the last V-page disk page read (the
/// single-session layout, DESIGN.md §3), and the session's cursors start
/// where the build left each disk's head, so every query is charged exactly
/// as the paper's single-disk setup would charge it. V-pages are read where
/// the traversal needs them (no batched prefetch).
pub struct HdovEnvironment {
    env: SharedEnvironment,
    ctx: SessionCtx,
    /// Whether [`enable_node_cache`](Self::enable_node_cache) is in force.
    node_cache: bool,
    /// Injectors armed by [`arm_faults`](Self::arm_faults).
    faults: Vec<Arc<SharedFaultyFile>>,
}

impl HdovEnvironment {
    /// Builds the full environment for `scene`.
    pub fn build(
        scene: &Scene,
        grid_cfg: &CellGridConfig,
        cfg: HdovBuildConfig,
        scheme: StorageScheme,
    ) -> Result<Self> {
        let grid = grid_cfg.build();
        let table = DovTable::compute(scene, &grid, &cfg.dov, cfg.threads);
        Self::build_with_table(scene, Arc::new(grid), cfg, scheme, Arc::new(table))
    }

    /// Builds the environment reusing a precomputed [`DovTable`] (avoids
    /// re-sampling when several systems share one scene). The grid and table
    /// are taken as [`Arc`]s so many systems can share one copy.
    pub fn build_with_table(
        scene: &Scene,
        grid: Arc<CellGrid>,
        cfg: HdovBuildConfig,
        scheme: StorageScheme,
        table: Arc<DovTable>,
    ) -> Result<Self> {
        let (tree, cells) = HdovTree::build_with_table(scene, &cfg, &table)?;
        Self::assemble(scene, tree, &cells, &cfg, scheme, grid, table)
    }

    /// Builds the environment over an existing R-tree backbone whose leaf
    /// payloads resolve through `remap` to dense ids of `scene` — the
    /// mutable write path's per-epoch derived rebuild (see
    /// [`HdovTree::build_from_backbone`]).
    pub fn build_from_backbone<F: hdov_storage::PagedFile>(
        scene: &Scene,
        grid: Arc<CellGrid>,
        cfg: HdovBuildConfig,
        scheme: StorageScheme,
        table: Arc<DovTable>,
        rtree: &mut hdov_rtree::RTree<F>,
        remap: &dyn Fn(u64) -> u64,
    ) -> Result<Self> {
        let (tree, cells) = HdovTree::build_from_backbone(scene, &cfg, &table, rtree, remap)?;
        Self::assemble(scene, tree, &cells, &cfg, scheme, grid, table)
    }

    /// Lays out the visibility store and model bank, then freezes
    /// everything behind the single-session layout.
    fn assemble(
        scene: &Scene,
        tree: HdovTree,
        cells: &CellVPages,
        cfg: &HdovBuildConfig,
        scheme: StorageScheme,
        grid: Arc<CellGrid>,
        table: Arc<DovTable>,
    ) -> Result<Self> {
        let (vstore, [index_cur, vpage_cur]) =
            scheme.build(tree.entry_counts(), cells, cfg.disk, cfg.codec)?;
        let (models, model_cur) = SharedModels::build(scene, cfg.disk)?;
        let (tree, [node_cur, internal_cur]) = SharedTree::freeze(tree);
        let mut ctx = SessionCtx::new();
        ctx.node_cur = node_cur;
        ctx.internal_cur = internal_cur;
        ctx.model_cur = model_cur;
        ctx.index_cur = index_cur;
        ctx.vpage_cur = vpage_cur;
        let env = SharedEnvironment {
            tree,
            vstore,
            models,
            grid,
            table,
            scheme,
        };
        Ok(HdovEnvironment {
            env,
            ctx,
            node_cache: false,
            faults: Vec::new(),
        })
    }

    /// The viewing cell containing (or nearest to) `viewpoint`.
    pub fn cell_of(&self, viewpoint: Vec3) -> CellId {
        self.env.cell_of(viewpoint)
    }

    /// Runs query `q` (Fig. 3) and returns its answer and cost breakdown.
    /// A caller with a viewpoint asks for
    /// `Query::new(env.cell_of(viewpoint), eta)`; with a
    /// [`resident`](Query::resident) set, models resident at the same LoD
    /// level are reused without model I/O (fold the answer back in with
    /// [`DeltaSearch::apply`](crate::DeltaSearch::apply)).
    ///
    /// Fails with [`StorageError::InvalidPlan`](hdov_storage::StorageError)
    /// on a cell outside the grid or a negative or NaN η.
    pub fn query(&mut self, q: Query<'_>) -> Result<(QueryResult, SearchStats)> {
        let mut scratch = SearchScratch::new();
        let stats = self.env.search(&mut self.ctx, &mut scratch, q)?;
        Ok((scratch.take_result(), stats))
    }

    /// The naïve (cell, list-of-objects) baseline at `viewpoint`.
    pub fn query_naive(&mut self, viewpoint: Vec3) -> Result<(QueryResult, SearchStats)> {
        let cell = self.cell_of(viewpoint);
        naive_query(&self.env, &mut self.ctx, cell)
    }

    /// Frustum-prioritized query `q`, stopped early by its budget — see
    /// [`search_prioritized`].
    pub fn query_prioritized(
        &mut self,
        q: Query<'_>,
        frustum: &Frustum,
    ) -> Result<(PrioritizedOutcome, SearchStats)> {
        search_prioritized(&self.env, &mut self.ctx, q, frustum)
    }

    /// Arms seeded fault injection on every file of the environment — node
    /// pages, internal LoDs, object models, and the visibility store's
    /// files (chaos testing). The pools start cold, so every read draws
    /// from the fault stream; reads flow through each pool's retry policy,
    /// and unreadable subtrees degrade to internal LoDs (see
    /// [`QueryResult::degrade`]).
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        self.env = self.env.fork_with_private_pools();
        self.faults = self.env.arm_faults(plan);
    }

    /// Disarms fault injection everywhere (subsequent reads are clean).
    pub fn disarm_faults(&mut self) {
        for f in self.faults.drain(..) {
            f.disarm();
        }
    }

    /// Relocates every file of the environment — node pages, internal
    /// LoDs, object models, and the visibility store's files — onto
    /// `backend` (see [`hdov_storage::StorageBackend::freeze`]). Store
    /// names are prefixed with the scheme label so several schemes can
    /// share one directory. Answers and simulated I/O costs are
    /// byte-identical across backends; only the physical residence of the
    /// pages changes.
    pub fn relocate(&mut self, backend: &StorageBackend) -> Result<()> {
        self.env = self.env.relocated(backend)?;
        Ok(())
    }

    /// The ground-truth total DoV of a cell (denominator of fidelity
    /// metrics).
    pub fn cell_total_dov(&self, cell: CellId) -> f64 {
        self.env.table.total_dov(cell)
    }

    /// Number of visible objects in a cell (`N_vobj`).
    pub fn cell_visible_objects(&self, cell: CellId) -> usize {
        self.env.table.visible_count(cell)
    }

    /// Reads node `ordinal` outside any query, charged to the session's
    /// node cursor like a query's read (so later queries see the head where
    /// this read left it).
    pub fn read_node(&mut self, ordinal: u32) -> Result<Arc<HdovNode>> {
        self.env.tree.read_node(&mut self.ctx.node_cur, ordinal)
    }

    /// Renders the *instantiated* tree of one cell as indented text — the
    /// paper's Fig. 1 made inspectable: the same topology, with each entry's
    /// view-variant `(DoV, NVO)` for that cell. Hidden subtrees print as
    /// `(hidden)` and are not descended into. Reads are charged to the
    /// session like a query's.
    pub fn dump_cell(&mut self, cell: CellId) -> Result<String> {
        self.env.vstore.enter_cell(&mut self.ctx, cell)?;
        let mut out = String::new();
        out.push_str(&format!(
            "cell {cell}: {} visible objects, total DoV {:.4}\n",
            self.env.table.visible_count(cell),
            self.env.table.total_dov(cell)
        ));
        self.dump_node(0, 0, &mut out)?;
        Ok(out)
    }

    fn dump_node(&mut self, ordinal: u32, depth: usize, out: &mut String) -> Result<()> {
        use std::fmt::Write as _;
        let indent = "  ".repeat(depth);
        let Some(vpage) = self.env.vstore.fetch(&mut self.ctx, ordinal)? else {
            let _ = writeln!(out, "{indent}node {ordinal} (hidden)");
            return Ok(());
        };
        let node = self.read_node(ordinal)?;
        let _ = writeln!(
            out,
            "{indent}node {ordinal} [{}] dov={:.4} nvo={}",
            if node.is_leaf { "leaf" } else { "internal" },
            vpage.node_dov(),
            vpage.node_nvo()
        );
        for (e, ve) in node.entries.iter().zip(&vpage.entries) {
            if !ve.visible() {
                continue;
            }
            if e.is_object() {
                let _ = writeln!(out, "{indent}  object {} dov={:.4}", e.child, ve.dov);
            } else {
                self.dump_node(e.child_ordinal, depth + 1, out)?;
            }
        }
        Ok(())
    }

    /// Enables an LRU node buffer pool holding up to `capacity` nodes (one
    /// page each, one lock stripe). Disabled by default to match the
    /// paper's cache-less evaluation setup; enable it to measure what a
    /// buffer pool buys (see the `ablation_cache` bench).
    pub fn enable_node_cache(&mut self, capacity: usize) {
        self.set_node_pool(capacity);
        self.node_cache = true;
    }

    /// Drops the node buffer pool.
    pub fn disable_node_cache(&mut self) {
        self.set_node_pool(UNBUFFERED.0);
        self.node_cache = false;
    }

    /// `(hits, misses)` of the node buffer pool, if enabled.
    pub fn node_cache_stats(&self) -> Option<(u64, u64)> {
        self.node_cache.then(|| self.env.tree.nodes.hit_stats())
    }

    fn set_node_pool(&mut self, capacity: usize) {
        let nodes = &mut self.env.tree.nodes;
        *nodes = nodes.resized(capacity, 1, true);
    }

    /// The precomputed DoV table (ground truth for metrics).
    pub fn dov_table(&self) -> &DovTable {
        &self.env.table
    }

    /// A shared handle to the DoV table — systems needing their own copy of
    /// the ground truth clone the `Arc`, not the table.
    pub fn dov_table_shared(&self) -> Arc<DovTable> {
        Arc::clone(&self.env.table)
    }

    /// The cell grid.
    pub fn grid(&self) -> &CellGrid {
        &self.env.grid
    }

    /// A shared handle to the cell grid.
    pub fn grid_shared(&self) -> Arc<CellGrid> {
        Arc::clone(&self.env.grid)
    }

    /// The view-invariant tree.
    pub fn tree(&self) -> &SharedTree {
        &self.env.tree
    }

    /// The active storage scheme.
    pub fn scheme(&self) -> StorageScheme {
        self.env.scheme
    }

    /// The V-page codec the visibility store was built with.
    pub fn codec(&self) -> VPageCodec {
        self.env.vstore.vpages().codec()
    }

    /// The visibility store (for storage-size accounting).
    pub fn vstore(&self) -> &SharedVStore {
        &self.env.vstore
    }

    /// Hands the environment over to concurrent serving: the same frozen
    /// files behind cold pools of `pool` geometry — see [`crate::shared`].
    /// Pages are shared, not copied, and the checksum tables are reused.
    pub fn into_shared(self, pool: PoolConfig) -> SharedEnvironment {
        self.env.with_pools(pool)
    }
}
