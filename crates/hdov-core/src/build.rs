//! Building an HDoV-tree from a scene (paper §5.1).
//!
//! "Generating the HDoV-tree requires a few steps. Firstly, an R-tree spatial
//! index is created to organize the object models [Ang–Tan linear split]. To
//! generate internal LoDs, descendants of each internal node are found. For
//! leaf nodes, the internal LoDs are generated by aggregating the object
//! models and running a polygon simplification software. Internal LoDs of
//! nodes at higher levels are then generated in a bottom-up order. A
//! conservative visibility algorithm is applied on pre-determined cells...
//! DoV values of objects and nodes are then stored in V-pages."

use crate::node::{HdovEntry, HdovNode, MAX_ENTRIES};
use crate::vpage::{VEntry, VPage};
use hdov_mesh::{simplify, LodChain, TriMesh};
use hdov_rtree::{bulk, ChildRef, RTree, SplitMethod};
use hdov_scene::{ModelStore, Scene};
use hdov_storage::{DiskModel, MemPagedFile, PageId, PagedFile, Result, SimulatedDisk, StoreFile};
use hdov_visibility::{CellGrid, CellId, DovConfig, DovTable};

/// How the traversal decides that a barely-visible subtree's internal LoD is
/// worth using (the second condition on line 7 of Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TerminationHeuristic {
    /// The paper's Eq. 4: `h (1 + log_M s) < log_M NVO`.
    #[default]
    Eq4,
    /// The underlying Eq. 3 evaluated exactly:
    /// `npoly(internal LoD) < NVO · f`.
    Exact,
    /// Always terminate when `DoV ≤ η` (no polygon-count guard).
    Always,
}

/// Build-time configuration.
#[derive(Debug, Clone)]
pub struct HdovBuildConfig {
    /// Split algorithm for Guttman insertion.
    pub split: SplitMethod,
    /// Build the backbone with STR bulk loading instead of insertion.
    pub bulk_load: bool,
    /// Bulk-load fill factor.
    pub fill: f64,
    /// Fan-out cap `M` (≤ [`MAX_ENTRIES`]). The default (8) keeps scaled
    /// datasets hierarchical, mirroring the paper's multi-level trees.
    pub fanout: usize,
    /// Levels per internal-LoD chain.
    pub internal_lod_levels: usize,
    /// Polygon ratio between internal-LoD levels.
    pub internal_lod_ratio: f64,
    /// Target `s = npoly(node) / Σ npoly(children)` for internal LoDs.
    pub internal_s: f64,
    /// Hard cap on internal-LoD polygons per node.
    pub max_internal_polys: usize,
    /// DoV estimator settings.
    pub dov: DovConfig,
    /// Traversal termination heuristic.
    pub heuristic: TerminationHeuristic,
    /// Worker threads for DoV precomputation (0 = all cores).
    pub threads: usize,
    /// Disk cost model applied to every file of the environment.
    pub disk: DiskModel,
    /// Wire format for V-page records in the visibility store (see
    /// [`VPageCodec`](crate::vpage::VPageCodec)). Answers are byte-identical
    /// across codecs; only footprint and simulated I/O differ.
    pub codec: crate::vpage::VPageCodec,
}

impl Default for HdovBuildConfig {
    fn default() -> Self {
        HdovBuildConfig {
            split: SplitMethod::AngTanLinear,
            bulk_load: false,
            fill: 0.7,
            fanout: 8,
            internal_lod_levels: 3,
            internal_lod_ratio: 0.25,
            internal_s: 0.25,
            max_internal_polys: 4096,
            dov: DovConfig::default(),
            heuristic: TerminationHeuristic::default(),
            threads: 0,
            disk: DiskModel::PAPER_ERA,
            codec: crate::vpage::VPageCodec::default(),
        }
    }
}

impl HdovBuildConfig {
    /// A cheap configuration for unit tests (coarse DoV sampling).
    pub fn fast_test() -> Self {
        HdovBuildConfig {
            dov: DovConfig::fast_test(),
            fanout: 8,
            max_internal_polys: 512,
            ..Default::default()
        }
    }
}

/// Per-cell sparse visibility data: for each cell, the visible nodes'
/// `(ordinal, VPage)` pairs in DFS order — the input to
/// [`StorageScheme::build`](crate::StorageScheme::build).
pub type CellVPages = Vec<Vec<(u32, VPage)>>;

/// The view-invariant part of the HDoV-tree as built: node pages,
/// internal-LoD store, and tree metadata. View-variant data goes to a
/// [`SharedVStore`](crate::SharedVStore); queries read the tree once it is
/// frozen into a [`SharedTree`](crate::shared::SharedTree).
pub struct HdovTree {
    node_disk: SimulatedDisk<StoreFile>,
    internal_disk: SimulatedDisk<StoreFile>,
    internal_store: ModelStore,
    n_nodes: u32,
    height: u32,
    object_count: u64,
    fanout: usize,
    heuristic: TerminationHeuristic,
    entry_counts: Vec<u16>,
    leaf_ordinals: Vec<u32>,
    /// Object ids per leaf, parallel to `leaf_ordinals` — the naïve
    /// (cell, list-of-objects) baseline's in-memory list.
    leaf_objects: Vec<Vec<u64>>,
}

/// Intermediate lifted node used during construction.
struct Lifted {
    ordinal: u32,
    is_leaf: bool,
    entries: Vec<HdovEntry>,
    /// Child ordinals (internal) — parallel to `entries`.
    children: Vec<u32>,
    /// Object ids (leaf) — parallel to `entries`.
    objects: Vec<u64>,
    leaf_descendants: u32,
    height: u32,
    /// Σ full-detail polygons of descendant objects.
    desc_polys: u64,
    /// Number of descendant objects.
    desc_objects: u64,
}

impl HdovTree {
    /// Builds the view-invariant tree plus the per-cell visibility data
    /// needed by [`StorageScheme::build`](crate::StorageScheme::build).
    ///
    /// Returns `(tree, per_cell_vpages)` where `per_cell_vpages[c]` is the
    /// sparse, DFS-ordered `(ordinal, VPage)` list of cell `c`.
    pub fn build(
        scene: &Scene,
        grid: &CellGrid,
        cfg: &HdovBuildConfig,
    ) -> Result<(Self, CellVPages)> {
        let table = DovTable::compute(scene, grid, &cfg.dov, cfg.threads);
        Self::build_with_table(scene, cfg, &table)
    }

    /// [`build`](Self::build) with a precomputed DoV table (step 6 reuses it
    /// instead of re-sampling).
    pub fn build_with_table(
        scene: &Scene,
        cfg: &HdovBuildConfig,
        table: &DovTable,
    ) -> Result<(Self, CellVPages)> {
        // Step 1: the R-tree backbone.
        let items: Vec<_> = scene.objects().iter().map(|o| (o.mbr, o.id)).collect();
        let mut rtree = if cfg.bulk_load {
            bulk::bulk_load_with_fanout(MemPagedFile::new(), items, cfg.fill, cfg.fanout)?
        } else {
            let mut t = RTree::with_fanout(MemPagedFile::new(), cfg.split, cfg.fanout)?;
            for (mbr, id) in items {
                t.insert(mbr, id)?;
            }
            t
        };
        Self::build_from_backbone(scene, cfg, table, &mut rtree, &|id| id)
    }

    /// Steps 2–6 of the build over an existing R-tree backbone: lift the
    /// topology, generate internal LoDs, write node pages, and aggregate
    /// the DoV table into per-cell V-pages.
    ///
    /// This is how the mutable write path re-derives the tree after a
    /// commit without rebuilding (or even owning) the backbone: the
    /// backbone persists across epochs with *stable* object payloads, and
    /// `remap` translates each leaf payload to the dense id the (current
    /// epoch's) `scene` uses. [`build_with_table`](Self::build_with_table)
    /// is exactly this with an identity remap over a freshly inserted
    /// backbone.
    pub fn build_from_backbone<F: PagedFile>(
        scene: &Scene,
        cfg: &HdovBuildConfig,
        table: &DovTable,
        rtree: &mut RTree<F>,
        remap: &dyn Fn(u64) -> u64,
    ) -> Result<(Self, CellVPages)> {
        assert!(
            cfg.fanout >= 4 && cfg.fanout <= MAX_ENTRIES,
            "fan-out out of range"
        );
        let height = rtree.stats().height;

        // Step 2: lift the topology, assigning DFS preorder ordinals.
        let mut lifted: Vec<Lifted> = Vec::new();
        let mut next_ordinal = 0u32;
        let root_page = rtree.root();
        lift(
            rtree,
            root_page,
            scene,
            remap,
            &mut next_ordinal,
            &mut lifted,
        )?;
        lifted.sort_by_key(|l| l.ordinal);
        let n_nodes = lifted.len() as u32;

        // Step 3: internal LoDs, bottom-up (children have larger ordinals in
        // preorder, so iterate in reverse ordinal order).
        let mut chains: Vec<Option<LodChain>> = (0..n_nodes).map(|_| None).collect();
        for idx in (0..lifted.len()).rev() {
            let chain = build_internal_chain(&lifted[idx], scene, &chains, cfg);
            chains[idx] = Some(chain);
        }
        let chains: Vec<LodChain> = chains
            .into_iter()
            .map(|c| c.expect("chain built"))
            .collect();

        // Fill per-entry child metadata now that chains exist.
        for i in 0..lifted.len() {
            if lifted[i].is_leaf {
                continue;
            }
            let children = lifted[i].children.clone();
            for (e_idx, child_ord) in children.iter().enumerate() {
                let (ordinal, height, s, f) = {
                    let child = &lifted[*child_ord as usize];
                    let child_chain = &chains[*child_ord as usize];
                    let child_rep_sum = child_children_rep_polys(child, scene, |c| {
                        chains[c as usize].highest().polygons as u64
                    });
                    let s = if child_rep_sum > 0 {
                        child_chain.highest().polygons as f32 / child_rep_sum as f32
                    } else {
                        1.0
                    };
                    let f = if child.desc_objects > 0 {
                        child.desc_polys as f32 / child.desc_objects as f32
                    } else {
                        0.0
                    };
                    (child.ordinal, child.height, s, f)
                };
                let e = &mut lifted[i].entries[e_idx];
                e.child_ordinal = ordinal;
                e.child_height = height;
                e.child_s = s;
                e.child_f = f;
            }
        }

        // Step 4: write node pages (page id = ordinal).
        let mut node_disk = SimulatedDisk::new(StoreFile::new_mem(), cfg.disk);
        let mut entry_counts = Vec::with_capacity(lifted.len());
        let mut leaf_ordinals = Vec::new();
        let mut leaf_objects = Vec::new();
        for l in &lifted {
            let node = HdovNode {
                ordinal: l.ordinal,
                is_leaf: l.is_leaf,
                leaf_descendants: l.leaf_descendants,
                height: l.height,
                entries: l.entries.clone(),
            };
            let page = node_disk.allocate_page()?;
            debug_assert_eq!(page.0, l.ordinal as u64);
            node_disk.write_page(page, &node.encode())?;
            entry_counts.push(l.entries.len() as u16);
            if l.is_leaf {
                leaf_ordinals.push(l.ordinal);
                leaf_objects.push(l.objects.clone());
            }
        }
        node_disk.reset_stats();
        node_disk.enable_checksums()?;

        // Step 5: internal-LoD model store (key = ordinal).
        let mut internal_disk = SimulatedDisk::new(StoreFile::new_mem(), cfg.disk);
        let internal_store = ModelStore::build(&mut internal_disk, chains.iter())?;
        internal_disk.reset_stats();
        internal_disk.enable_checksums()?;

        // Step 6: per-cell bottom-up aggregation of the DoV table.
        let cells = aggregate_cells(&lifted, table);

        let tree = HdovTree {
            node_disk,
            internal_disk,
            internal_store,
            n_nodes,
            height,
            object_count: scene.len() as u64,
            fanout: cfg.fanout,
            heuristic: cfg.heuristic,
            entry_counts,
            leaf_ordinals,
            leaf_objects,
        };
        Ok((tree, cells))
    }

    /// Number of nodes (`N_node`).
    pub fn node_count(&self) -> u32 {
        self.n_nodes
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of indexed objects.
    pub fn object_count(&self) -> u64 {
        self.object_count
    }

    /// Fan-out cap `M` (used by Eq. 4).
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The configured termination heuristic.
    pub fn heuristic(&self) -> TerminationHeuristic {
        self.heuristic
    }

    /// The root ordinal (always 0: DFS preorder).
    pub fn root_ordinal(&self) -> u32 {
        0
    }

    /// Entry count per node, by ordinal.
    pub fn entry_counts(&self) -> &[u16] {
        &self.entry_counts
    }

    /// Ordinals of all leaf nodes (used by the naïve baseline).
    pub fn leaf_ordinals(&self) -> &[u32] {
        &self.leaf_ordinals
    }

    /// Object ids of the `i`-th leaf (parallel to
    /// [`leaf_ordinals`](Self::leaf_ordinals)).
    pub fn leaf_objects(&self, i: usize) -> &[u64] {
        &self.leaf_objects[i]
    }

    /// The internal-LoD store (key = node ordinal).
    pub fn internal_store(&self) -> &ModelStore {
        &self.internal_store
    }

    /// Decomposes the tree for freezing into a
    /// [`SharedTree`](crate::shared::SharedTree).
    pub(crate) fn into_parts(self) -> TreeParts {
        TreeParts {
            node_disk: self.node_disk,
            internal_disk: self.internal_disk,
            internal_store: self.internal_store,
            n_nodes: self.n_nodes,
            height: self.height,
            object_count: self.object_count,
            fanout: self.fanout,
            heuristic: self.heuristic,
            entry_counts: self.entry_counts,
            leaf_ordinals: self.leaf_ordinals,
            leaf_objects: self.leaf_objects,
        }
    }
}

/// The fields of an [`HdovTree`] needed to build its frozen counterpart.
pub(crate) struct TreeParts {
    pub node_disk: SimulatedDisk<StoreFile>,
    pub internal_disk: SimulatedDisk<StoreFile>,
    pub internal_store: ModelStore,
    pub n_nodes: u32,
    pub height: u32,
    pub object_count: u64,
    pub fanout: usize,
    pub heuristic: TerminationHeuristic,
    pub entry_counts: Vec<u16>,
    pub leaf_ordinals: Vec<u32>,
    pub leaf_objects: Vec<Vec<u64>>,
}

/// DFS preorder lift of the R-tree into `Lifted` records. Leaf payloads go
/// through `remap` to become dense scene ids (identity for freshly built
/// backbones; handle→dense for the mutable path's persistent backbone).
fn lift<F: PagedFile>(
    rtree: &mut RTree<F>,
    page: PageId,
    scene: &Scene,
    remap: &dyn Fn(u64) -> u64,
    next_ordinal: &mut u32,
    out: &mut Vec<Lifted>,
) -> Result<u32> {
    let node = rtree.read_node(page)?;
    let ordinal = *next_ordinal;
    *next_ordinal += 1;
    let slot = out.len();
    out.push(Lifted {
        ordinal,
        is_leaf: node.is_leaf,
        entries: Vec::new(),
        children: Vec::new(),
        objects: Vec::new(),
        leaf_descendants: 0,
        height: 1,
        desc_polys: 0,
        desc_objects: 0,
    });

    let mut entries = Vec::with_capacity(node.entries.len());
    let mut children = Vec::new();
    let mut objects = Vec::new();
    let (mut m, mut h, mut polys, mut objs) = (0u32, 1u32, 0u64, 0u64);
    if node.is_leaf {
        m = 1;
        for e in &node.entries {
            let id = remap(e.child.as_object().expect("leaf entry"));
            let f = scene.chain_of(id).highest().polygons as f32;
            entries.push(HdovEntry::object(e.mbr, id, f));
            objects.push(id);
            polys += f as u64;
            objs += 1;
        }
    } else {
        for e in &node.entries {
            let child_page = match e.child {
                ChildRef::Node(p) => p,
                ChildRef::Object(_) => unreachable!("object in internal node"),
            };
            let child_slot = lift(rtree, child_page, scene, remap, next_ordinal, out)?;
            let child = &out[child_slot as usize];
            m += child.leaf_descendants;
            h = h.max(child.height + 1);
            polys += child.desc_polys;
            objs += child.desc_objects;
            children.push(child.ordinal);
            // Metadata (s, f) is filled after internal LoDs exist.
            entries.push(HdovEntry {
                mbr: e.mbr,
                child: child.ordinal as u64,
                child_ordinal: child.ordinal,
                child_height: 0,
                child_s: 1.0,
                child_f: 0.0,
            });
        }
    }
    let l = &mut out[slot];
    l.entries = entries;
    l.children = children;
    l.objects = objects;
    l.leaf_descendants = m;
    l.height = h;
    l.desc_polys = polys;
    l.desc_objects = objs;
    Ok(slot as u32)
}

/// Σ representative polygons of a node's children (object full detail for
/// leaves; children's internal-LoD full detail otherwise) — the denominator
/// of `s` in Eq. 3. `child_chain_polys(ordinal)` resolves a child node's
/// internal-LoD full-detail polygon count.
fn child_children_rep_polys(
    node: &Lifted,
    scene: &Scene,
    child_chain_polys: impl Fn(u32) -> u64,
) -> u64 {
    if node.is_leaf {
        node.objects
            .iter()
            .map(|&id| scene.chain_of(id).highest().polygons as u64)
            .sum()
    } else {
        node.children.iter().map(|&c| child_chain_polys(c)).sum()
    }
}

/// Builds one node's internal-LoD chain by aggregating coarse child geometry
/// and simplifying to the `s`-budget (the paper's "aggregate + qslim" step).
fn build_internal_chain(
    node: &Lifted,
    scene: &Scene,
    chains: &[Option<LodChain>],
    cfg: &HdovBuildConfig,
) -> LodChain {
    let mut aggregate = TriMesh::new();
    if node.is_leaf {
        for &id in &node.objects {
            // Coarsest object LoD keeps aggregation cheap; the internal LoD
            // is by definition coarser than its members.
            let chain = scene.chain_of(id);
            aggregate.append(&scene.world_mesh(id, chain.len() - 1));
        }
    } else {
        for &c in &node.children {
            let child_chain = chains[c as usize].as_ref().expect("bottom-up order");
            aggregate.append(&child_chain.lowest().mesh);
        }
    }
    let rep_sum = child_children_rep_polys(node, scene, |c| {
        chains[c as usize]
            .as_ref()
            .expect("bottom-up order guarantees child chains exist")
            .highest()
            .polygons as u64
    });
    let budget = ((rep_sum as f64 * cfg.internal_s) as usize)
        .min(cfg.max_internal_polys)
        .max(4);
    let top = if aggregate.triangle_count() > budget {
        simplify(&aggregate, budget)
    } else {
        aggregate
    };
    LodChain::build(top, cfg.internal_lod_levels, cfg.internal_lod_ratio)
}

/// Per-cell bottom-up aggregation of object DoVs into node V-pages.
///
/// Node DoV = Σ child DoVs (paper §3.2 property 2); NVO = number of visible
/// descendant objects. Only visible nodes get a V-page; lists are sorted by
/// ordinal, which is DFS preorder — the clustering order of §4.2.
fn aggregate_cells(lifted: &[Lifted], table: &DovTable) -> CellVPages {
    let mut cells = Vec::with_capacity(table.cell_count());
    for cell in 0..table.cell_count() as CellId {
        // (dov, nvo) per node, computed in reverse ordinal order (children
        // before parents in preorder).
        let mut node_dov = vec![0.0f64; lifted.len()];
        let mut node_nvo = vec![0u32; lifted.len()];
        let mut vpages: Vec<(u32, VPage)> = Vec::new();
        for idx in (0..lifted.len()).rev() {
            let l = &lifted[idx];
            let mut entries = Vec::with_capacity(l.entries.len());
            let (mut dov_sum, mut nvo_sum) = (0.0f64, 0u32);
            if l.is_leaf {
                for &obj in &l.objects {
                    let d = table.dov(cell, obj as u32);
                    let nvo = u32::from(d > 0.0);
                    entries.push(VEntry { dov: d, nvo });
                    dov_sum += d as f64;
                    nvo_sum += nvo;
                }
            } else {
                for &c in &l.children {
                    let d = node_dov[c as usize];
                    let n = node_nvo[c as usize];
                    entries.push(VEntry {
                        dov: d as f32,
                        nvo: n,
                    });
                    dov_sum += d;
                    nvo_sum += n;
                }
            }
            node_dov[idx] = dov_sum;
            node_nvo[idx] = nvo_sum;
            if dov_sum > 0.0 {
                vpages.push((l.ordinal, VPage::new(entries)));
            }
        }
        vpages.sort_by_key(|&(o, _)| o);
        cells.push(vpages);
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdov_scene::CityConfig;
    use hdov_visibility::CellGridConfig;

    /// Node `ordinal`, decoded straight off the tree's node file.
    fn read_node(tree: &mut HdovTree, ordinal: u32) -> HdovNode {
        let mut page = hdov_storage::Page::zeroed();
        tree.node_disk
            .read_page(PageId(ordinal as u64), &mut page)
            .unwrap();
        HdovNode::decode(page.bytes()).unwrap()
    }

    fn build_tiny() -> (Scene, CellGrid, HdovTree, CellVPages) {
        let scene = CityConfig::tiny().seed(2).generate();
        let grid = CellGridConfig::for_scene(&scene)
            .with_resolution(3, 3)
            .build();
        let (tree, cells) = HdovTree::build(&scene, &grid, &HdovBuildConfig::fast_test()).unwrap();
        (scene, grid, tree, cells)
    }

    #[test]
    fn builds_hierarchical_tree() {
        let (scene, _, mut tree, _) = build_tiny();
        assert!(tree.height() >= 2, "height {}", tree.height());
        assert_eq!(tree.object_count(), scene.len() as u64);
        assert!(tree.node_count() > 1);
        let root = read_node(&mut tree, 0);
        assert_eq!(root.ordinal, 0);
        assert!(!root.entries.is_empty());
    }

    #[test]
    fn ordinals_are_dense_dfs_preorder() {
        let (_, _, mut tree, _) = build_tiny();
        for ord in 0..tree.node_count() {
            let node = read_node(&mut tree, ord);
            assert_eq!(node.ordinal, ord);
            if !node.is_leaf {
                // Preorder: first child is ordinal + 1.
                assert_eq!(node.entries[0].child_ordinal, ord + 1);
                for e in &node.entries {
                    assert!(e.child_ordinal > ord);
                    assert!(e.child_ordinal < tree.node_count());
                }
            }
        }
    }

    #[test]
    fn every_node_has_internal_lod_chain() {
        let (_, _, tree, _) = build_tiny();
        assert_eq!(tree.internal_store().len(), tree.node_count() as usize);
        for ord in 0..tree.node_count() as u64 {
            let h = tree.internal_store().handle(ord, 0);
            assert!(h.polygons >= 4, "node {ord} internal LoD too small");
        }
    }

    #[test]
    fn internal_lod_is_coarser_than_descendants() {
        let (scene, _, mut tree, _) = build_tiny();
        for ord in 0..tree.node_count() {
            let node = read_node(&mut tree, ord);
            if !node.is_leaf {
                continue;
            }
            let full: u64 = node
                .entries
                .iter()
                .map(|e| scene.chain_of(e.child).highest().polygons as u64)
                .sum();
            let internal = tree.internal_store().handle(ord as u64, 0).polygons as u64;
            assert!(
                internal < full,
                "leaf {ord}: internal {internal} !< full {full}"
            );
        }
    }

    #[test]
    fn vpages_respect_sum_property() {
        // DoV of an internal entry == sum of the child node's entries.
        let (_, _, mut tree, cells) = build_tiny();
        for cell in &cells {
            let lookup: std::collections::HashMap<u32, &VPage> =
                cell.iter().map(|(o, v)| (*o, v)).collect();
            for (ordinal, vpage) in cell {
                let node = read_node(&mut tree, *ordinal);
                if node.is_leaf {
                    continue;
                }
                for (e, ve) in node.entries.iter().zip(&vpage.entries) {
                    match lookup.get(&e.child_ordinal) {
                        Some(child_vp) => {
                            let child_sum = child_vp.node_dov();
                            assert!(
                                (ve.dov as f64 - child_sum).abs() < 1e-4,
                                "entry dov {} vs child sum {}",
                                ve.dov,
                                child_sum
                            );
                            assert_eq!(ve.nvo as u64, child_vp.node_nvo());
                        }
                        None => {
                            assert_eq!(ve.dov, 0.0, "visible entry but child has no V-page");
                            assert_eq!(ve.nvo, 0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn visible_node_has_visible_ancestors() {
        // Paper property 3, upward: every visible node's parent is visible,
        // hence present in the sparse list.
        let (_, _, mut tree, cells) = build_tiny();
        // parent map
        let mut parent = vec![u32::MAX; tree.node_count() as usize];
        for ord in 0..tree.node_count() {
            let node = read_node(&mut tree, ord);
            if !node.is_leaf {
                for e in &node.entries {
                    parent[e.child_ordinal as usize] = ord;
                }
            }
        }
        for cell in &cells {
            let present: std::collections::HashSet<u32> = cell.iter().map(|&(o, _)| o).collect();
            for &(o, _) in cell {
                let p = parent[o as usize];
                if p != u32::MAX {
                    assert!(present.contains(&p), "node {o} visible but parent {p} not");
                }
            }
        }
    }

    #[test]
    fn cells_sorted_by_ordinal() {
        let (_, _, _, cells) = build_tiny();
        for cell in &cells {
            assert!(cell.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn bulk_and_insert_backbones_both_work() {
        let scene = CityConfig::tiny().seed(9).generate();
        let grid = CellGridConfig::for_scene(&scene)
            .with_resolution(2, 2)
            .build();
        let mut cfg = HdovBuildConfig::fast_test();
        cfg.bulk_load = true;
        let (tree_bulk, _) = HdovTree::build(&scene, &grid, &cfg).unwrap();
        cfg.bulk_load = false;
        let (tree_ins, _) = HdovTree::build(&scene, &grid, &cfg).unwrap();
        assert_eq!(tree_bulk.object_count(), tree_ins.object_count());
        // Backbones differ but stay in the same ballpark on a tiny scene.
        assert!(tree_bulk.node_count() as f64 <= 1.5 * tree_ins.node_count() as f64);
    }

    #[test]
    fn entry_metadata_populated() {
        let (_, _, mut tree, _) = build_tiny();
        let mut saw_internal_entry = false;
        for ord in 0..tree.node_count() {
            let node = read_node(&mut tree, ord);
            for e in &node.entries {
                if e.is_object() {
                    assert!(e.child_f > 0.0);
                } else {
                    saw_internal_entry = true;
                    assert!(e.child_height >= 1);
                    assert!(e.child_s > 0.0, "s must be positive");
                    assert!(e.child_f > 0.0);
                }
            }
        }
        assert!(saw_internal_entry);
    }
}
