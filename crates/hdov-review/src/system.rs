//! The REVIEW system: window queries + complement search.

use hdov_geom::{Aabb, Vec3};
use hdov_rtree::{RTree, SplitMethod};
use hdov_scene::{ModelStore, Scene};
use hdov_storage::{DiskModel, IoStats, MemPagedFile, Result, SimulatedDisk};
use std::collections::HashMap;

/// The R-tree split algorithm of both baselines (REVIEW and the
/// LoD-R-tree), whose trees are built by insertion.
pub const SPLIT: SplitMethod = SplitMethod::AngTanLinear;

/// REVIEW configuration.
#[derive(Debug, Clone)]
pub struct ReviewConfig {
    /// Side length of the spatial query box in metres (the paper evaluates
    /// 200 m and 400 m).
    pub box_size: f64,
    /// R-tree fan-out (match the HDoV-tree's for a fair comparison).
    pub fanout: usize,
    /// Disk cost model.
    pub disk: DiskModel,
}

impl Default for ReviewConfig {
    fn default() -> Self {
        ReviewConfig {
            box_size: 400.0,
            fanout: 8,
            disk: DiskModel::PAPER_ERA,
        }
    }
}

/// One retrieved object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReviewEntry {
    /// Object id.
    pub object: u64,
    /// LoD level fetched (distance-based).
    pub level: usize,
    /// Polygons at that level.
    pub polygons: u64,
    /// Bytes at that level.
    pub bytes: u64,
    /// True when reused from the resident set (complement search).
    pub cached: bool,
}

/// Result of one REVIEW query.
#[derive(Debug, Clone, Default)]
pub struct ReviewResult {
    entries: Vec<ReviewEntry>,
}

impl ReviewResult {
    /// Builds a result from entries (used by the sibling baselines).
    pub fn from_entries(entries: Vec<ReviewEntry>) -> Self {
        ReviewResult { entries }
    }

    /// Retrieved objects.
    pub fn entries(&self) -> &[ReviewEntry] {
        &self.entries
    }

    /// Total polygons to render.
    pub fn total_polygons(&self) -> u64 {
        self.entries.iter().map(|e| e.polygons).sum()
    }

    /// Total bytes in the answer set.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Bytes fetched this query (complement search skips resident models).
    pub fn fetched_bytes(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| !e.cached)
            .map(|e| e.bytes)
            .sum()
    }

    /// The retrieved object ids.
    pub fn object_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|e| e.object)
    }
}

/// Per-query cost breakdown (same shape as the HDoV search stats).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReviewStats {
    /// R-tree nodes read.
    pub nodes_visited: u64,
    /// R-tree node I/O.
    pub node_io: IoStats,
    /// Object model I/O.
    pub model_io: IoStats,
}

impl ReviewStats {
    /// Light-weight I/O (tree nodes; REVIEW has no V-pages).
    pub fn light_io(&self) -> IoStats {
        self.node_io
    }

    /// Heavy-weight (model) I/O.
    pub fn heavy_io(&self) -> IoStats {
        self.model_io
    }

    /// Everything.
    pub fn total_io(&self) -> IoStats {
        self.node_io + self.model_io
    }

    /// Simulated search time in milliseconds (same CPU model as the
    /// HDoV-tree search for comparability).
    pub fn search_time_ms(&self) -> f64 {
        (self.total_io().elapsed_us + self.nodes_visited as f64 * 15.0) / 1000.0
    }
}

/// The REVIEW walkthrough system.
pub struct ReviewSystem {
    rtree: RTree<SimulatedDisk<MemPagedFile>>,
    store: ModelStore,
    model_disk: SimulatedDisk<MemPagedFile>,
    cfg: ReviewConfig,
    /// Complement-search resident set: object → (level, bytes).
    resident: HashMap<u64, (usize, u64)>,
    resident_bytes: u64,
    peak_bytes: u64,
}

impl ReviewSystem {
    /// Builds REVIEW over `scene`.
    pub fn build(scene: &Scene, cfg: ReviewConfig) -> Result<Self> {
        let items: Vec<_> = scene.objects().iter().map(|o| (o.mbr, o.id)).collect();
        let node_disk = SimulatedDisk::new(MemPagedFile::new(), cfg.disk);
        let mut rtree = RTree::with_fanout(node_disk, SPLIT, cfg.fanout)?;
        for (mbr, id) in items {
            rtree.insert(mbr, id)?;
        }
        rtree.file_mut().reset_stats();

        let mut model_disk = SimulatedDisk::new(MemPagedFile::new(), cfg.disk);
        let chains = scene
            .objects()
            .iter()
            .map(|o| scene.prototypes().chain(o.prototype));
        let store = ModelStore::build(&mut model_disk, chains)?;
        model_disk.reset_stats();

        Ok(ReviewSystem {
            rtree,
            store,
            model_disk,
            cfg,
            resident: HashMap::new(),
            resident_bytes: 0,
            peak_bytes: 0,
        })
    }

    /// The spatial query box for `viewpoint`: a `box_size`-sided square
    /// footprint centred on the viewer, full height (city objects stand on
    /// the ground, so tall objects inside the footprint are captured).
    pub fn query_box(&self, viewpoint: Vec3) -> Aabb {
        let half = self.cfg.box_size / 2.0;
        Aabb::new(
            Vec3::new(viewpoint.x - half, viewpoint.y - half, -1e3),
            Vec3::new(viewpoint.x + half, viewpoint.y + half, 1e4),
        )
    }

    /// Distance-based LoD blend factor: full detail at the viewer, coarsest
    /// at the box boundary.
    fn lod_k(&self, viewpoint: Vec3, mbr: &Aabb) -> f64 {
        let d = mbr.distance_to_point(viewpoint);
        (1.0 - d / (self.cfg.box_size * 0.5)).clamp(0.0, 1.0)
    }

    /// Runs a window query with complement search: objects already resident
    /// at the selected LoD level cost no model I/O; objects that left the box
    /// are evicted.
    pub fn query(&mut self, viewpoint: Vec3) -> Result<(ReviewResult, ReviewStats)> {
        let node_io0 = self.rtree.file().stats();
        let model_io0 = self.model_disk.stats();
        let qbox = self.query_box(viewpoint);
        let hits = self.rtree.window_query(&qbox)?;

        let mut result = ReviewResult::default();
        let mut next_resident = HashMap::with_capacity(hits.len());
        for (id, mbr) in hits {
            let k = self.lod_k(viewpoint, &mbr);
            let level = self.store.select_level(id, k);
            let cached = self.resident.get(&id).is_some_and(|&(l, _)| l == level);
            let h = if cached {
                self.store.handle(id, level)
            } else {
                self.store.fetch(&mut self.model_disk, id, level)?
            };
            next_resident.insert(id, (level, h.bytes as u64));
            result.entries.push(ReviewEntry {
                object: id,
                level,
                polygons: h.polygons as u64,
                bytes: h.bytes as u64,
                cached,
            });
        }
        self.resident = next_resident;
        self.resident_bytes = self.resident.values().map(|&(_, b)| b).sum();
        self.peak_bytes = self.peak_bytes.max(self.resident_bytes);

        let node_io = self.rtree.file().stats().since(&node_io0);
        let model_io = self.model_disk.stats().since(&model_io0);
        let nodes_visited = node_io.page_reads;
        Ok((
            result,
            ReviewStats {
                nodes_visited,
                node_io,
                model_io,
            },
        ))
    }

    /// Clears the complement-search resident set.
    pub fn clear_resident(&mut self) {
        self.resident.clear();
        self.resident_bytes = 0;
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Peak resident bytes over the session.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// The configured query box size.
    pub fn box_size(&self) -> f64 {
        self.cfg.box_size
    }

    /// R-tree statistics.
    pub fn tree_stats(&self) -> hdov_rtree::TreeStats {
        self.rtree.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdov_scene::CityConfig;

    fn build() -> (hdov_scene::Scene, ReviewSystem) {
        let scene = CityConfig::tiny().seed(6).generate();
        let sys = ReviewSystem::build(
            &scene,
            ReviewConfig {
                box_size: 100.0,
                fanout: 8,
                ..Default::default()
            },
        )
        .unwrap();
        (scene, sys)
    }

    #[test]
    fn retrieves_exactly_box_contents() {
        let (scene, mut sys) = build();
        let vp = scene.bounds().center();
        let (r, _) = sys.query(vp).unwrap();
        let mut got: Vec<u64> = r.object_ids().collect();
        got.sort_unstable();
        let mut expect = scene.brute_force_window(&sys.query_box(vp));
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert!(!got.is_empty());
    }

    #[test]
    fn misses_objects_beyond_box() {
        // The structural weakness the paper demonstrates in Fig. 11.
        let (scene, mut sys) = build();
        let vp = scene.viewpoint_region().min; // corner
        let (r, _) = sys.query(vp).unwrap();
        assert!(
            r.entries().len() < scene.len(),
            "a 100m box cannot cover the whole city"
        );
    }

    #[test]
    fn nearer_objects_get_finer_lods() {
        let (scene, mut sys) = build();
        let vp = scene.bounds().center();
        let (r, _) = sys.query(vp).unwrap();
        // Find the nearest and farthest retrieved objects with multi-level
        // chains; nearest level must be ≤ farthest level.
        let with_dist: Vec<(f64, usize)> = r
            .entries()
            .iter()
            .map(|e| (scene.object(e.object).mbr.distance_to_point(vp), e.level))
            .collect();
        let near = with_dist
            .iter()
            .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
            .unwrap();
        let far = with_dist
            .iter()
            .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
            .unwrap();
        assert!(near.1 <= far.1, "near {near:?} coarser than far {far:?}");
    }

    #[test]
    fn complement_search_skips_resident() {
        let (scene, mut sys) = build();
        let vp = scene.bounds().center();
        let (r1, s1) = sys.query(vp).unwrap();
        assert!(s1.model_io.page_reads > 0);
        assert!(r1.entries().iter().all(|e| !e.cached));
        let (r2, s2) = sys.query(vp).unwrap();
        assert!(r2.entries().iter().all(|e| e.cached));
        assert_eq!(s2.model_io.page_reads, 0);
        assert_eq!(r2.fetched_bytes(), 0);
        // Tree I/O still happens (no node caching, as in the paper's setup).
        assert!(s2.node_io.page_reads > 0);
    }

    #[test]
    fn eviction_outside_box() {
        let (scene, mut sys) = build();
        let a = scene.viewpoint_region().min;
        let b = scene.viewpoint_region().max;
        sys.query(a).unwrap();
        let before = sys.resident_bytes();
        assert!(before > 0);
        let (r2, _) = sys.query(b).unwrap();
        // Opposite corner of a tiny city may share some objects; resident
        // set must equal the new result exactly.
        assert_eq!(
            sys.resident_bytes(),
            r2.total_bytes(),
            "resident set must track the active box"
        );
        assert!(sys.peak_bytes() >= sys.resident_bytes());
    }

    #[test]
    fn clear_resident_forces_refetch() {
        let (scene, mut sys) = build();
        let vp = scene.bounds().center();
        sys.query(vp).unwrap();
        sys.clear_resident();
        assert_eq!(sys.resident_bytes(), 0);
        let (_, s) = sys.query(vp).unwrap();
        assert!(s.model_io.page_reads > 0);
    }

    #[test]
    fn larger_box_costs_more() {
        let scene = CityConfig::small().seed(6).generate();
        let mut small = ReviewSystem::build(
            &scene,
            ReviewConfig {
                box_size: 80.0,
                fanout: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let mut large = ReviewSystem::build(
            &scene,
            ReviewConfig {
                box_size: 400.0,
                fanout: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let vp = scene.bounds().center();
        let (rs, ss) = small.query(vp).unwrap();
        let (rl, sl) = large.query(vp).unwrap();
        assert!(rl.entries().len() > rs.entries().len());
        assert!(sl.total_io().page_reads > ss.total_io().page_reads);
    }
}
