//! The LoD-R-tree baseline (Kofler, Gervautz, Gruber 2000 — the paper's
//! related work \[8\]).
//!
//! "The LoD-R-tree combines the R-tree index with a hierarchy of
//! multi-representations of the three-dimensional data. This data structure
//! considers only the spatial proximity of objects and does not incorporate
//! any visibility data. To minimize the amount of data to be fetched from
//! disk, the search method converts the viewing-frustum into a few
//! rectangular query boxes (instead of one single large query box), and
//! retrieves only objects within these boxes. Thus, the structure leads to
//! high frame rates as long as the user stays within the viewing-frustum.
//! However, its performance degenerates significantly as the user view
//! changes." (paper §2)
//!
//! This implementation issues [`BANDS`] query boxes marching along the view
//! direction — near boxes narrow and high-detail, far boxes wide and coarse —
//! with a complement-search resident set. The view-dependence weakness is
//! real here: turning the camera swings the boxes and triggers refetch
//! storms, which the `ablation_baselines` bench measures.

use crate::system::{ReviewEntry, ReviewResult, ReviewStats, SPLIT};
use hdov_geom::{Aabb, Vec3};
use hdov_rtree::RTree;
use hdov_scene::{ModelStore, Scene};
use hdov_storage::{DiskModel, MemPagedFile, Result, SimulatedDisk};
use std::collections::HashMap;

/// Number of distance bands (each its own query box and LoD level).
pub const BANDS: usize = 3;

/// LoD-R-tree configuration.
#[derive(Debug, Clone)]
pub struct LodRTreeConfig {
    /// Total view range covered by the query boxes (metres).
    pub view_range: f64,
    /// R-tree fan-out.
    pub fanout: usize,
    /// Disk cost model.
    pub disk: DiskModel,
}

impl Default for LodRTreeConfig {
    fn default() -> Self {
        LodRTreeConfig {
            view_range: 400.0,
            fanout: 8,
            disk: DiskModel::PAPER_ERA,
        }
    }
}

/// The LoD-R-tree system: view-directed band queries over an R-tree.
pub struct LodRTreeSystem {
    rtree: RTree<SimulatedDisk<MemPagedFile>>,
    store: ModelStore,
    model_disk: SimulatedDisk<MemPagedFile>,
    cfg: LodRTreeConfig,
    resident: HashMap<u64, (usize, u64)>,
    resident_bytes: u64,
    peak_bytes: u64,
}

impl LodRTreeSystem {
    /// Builds the system over `scene`.
    pub fn build(scene: &Scene, cfg: LodRTreeConfig) -> Result<Self> {
        assert!(cfg.view_range > 0.0, "view range must be positive");
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

        Ok(LodRTreeSystem {
            rtree,
            store,
            model_disk,
            cfg,
            resident: HashMap::new(),
            resident_bytes: 0,
            peak_bytes: 0,
        })
    }

    /// The band query boxes for a viewer at `viewpoint` looking along `dir`
    /// (z ignored): band `i` covers distances `[i, i+1] · range/BANDS` in
    /// front of the viewer, widening with distance like a frustum footprint.
    pub fn band_boxes(&self, viewpoint: Vec3, dir: Vec3) -> Vec<Aabb> {
        let d = Vec3::new(dir.x, dir.y, 0.0)
            .try_normalize()
            .unwrap_or(Vec3::X);
        let side = Vec3::new(-d.y, d.x, 0.0);
        let step = self.cfg.view_range / BANDS as f64;
        (0..BANDS)
            .map(|i| {
                let near = i as f64 * step;
                let far = near + step;
                // Frustum-like widening: half-width grows with distance.
                let half_w = 20.0 + far * 0.6;
                let mut bb = Aabb::EMPTY;
                for (along, w) in [(near, 20.0 + near * 0.6), (far, half_w)] {
                    let c = viewpoint + d * along;
                    bb = bb.union_point(c + side * w).union_point(c - side * w);
                }
                Aabb::new(
                    Vec3::new(bb.min.x, bb.min.y, -1e3),
                    Vec3::new(bb.max.x, bb.max.y, 1e4),
                )
            })
            .collect()
    }

    /// Runs the banded query with complement search. Objects get the LoD
    /// level of the *nearest* band containing them (0 = finest).
    pub fn query(&mut self, viewpoint: Vec3, dir: Vec3) -> Result<(ReviewResult, ReviewStats)> {
        let node_io0 = self.rtree.file().stats();
        let model_io0 = self.model_disk.stats();

        // Gather per-band hits; nearest band wins.
        let mut band_of: HashMap<u64, usize> = HashMap::new();
        for (band, bb) in self.band_boxes(viewpoint, dir).iter().enumerate() {
            for (id, _) in self.rtree.window_query(bb)? {
                band_of.entry(id).or_insert(band);
            }
        }

        let mut result_entries = Vec::with_capacity(band_of.len());
        let mut next_resident = HashMap::with_capacity(band_of.len());
        let mut ids: Vec<_> = band_of.into_iter().collect();
        ids.sort_unstable();
        for (id, band) in ids {
            // Band → blend factor: nearest band full detail, farthest coarsest.
            let k = 1.0 - band as f64 / (BANDS - 1) as f64;
            let level = self.store.select_level(id, k);
            let cached = self.resident.get(&id).is_some_and(|&(l, _)| l == level);
            let h = if cached {
                self.store.handle(id, level)
            } else {
                self.store.fetch(&mut self.model_disk, id, level)?
            };
            next_resident.insert(id, (level, h.bytes as u64));
            result_entries.push(ReviewEntry {
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
        Ok((
            ReviewResult::from_entries(result_entries),
            ReviewStats {
                nodes_visited: node_io.page_reads,
                node_io,
                model_io,
            },
        ))
    }

    /// Clears the resident set.
    pub fn clear_resident(&mut self) {
        self.resident.clear();
        self.resident_bytes = 0;
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Peak resident bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// The configured view range.
    pub fn view_range(&self) -> f64 {
        self.cfg.view_range
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdov_scene::CityConfig;

    fn build(scene: &Scene) -> LodRTreeSystem {
        LodRTreeSystem::build(
            scene,
            LodRTreeConfig {
                view_range: 200.0,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn bands_march_along_view_direction() {
        let scene = CityConfig::tiny().seed(1).generate();
        let sys = build(&scene);
        let vp = scene.viewpoint_region().center();
        let boxes = sys.band_boxes(vp, Vec3::X);
        assert_eq!(boxes.len(), 3);
        for (i, bb) in boxes.iter().enumerate() {
            // Band i starts roughly i * range/bands in front of the viewer.
            assert!(
                bb.min.x >= vp.x + i as f64 * (200.0 / 3.0) - 1e-6,
                "band {i}"
            );
            assert!(bb.contains_point(Vec3::new(vp.x + (i as f64 + 0.5) * 200.0 / 3.0, vp.y, 1.0)));
        }
        // Far bands are wider.
        assert!(boxes[2].extent().y > boxes[0].extent().y);
    }

    #[test]
    fn nearer_bands_get_finer_lods() {
        let scene = CityConfig::small().seed(1).generate();
        let mut sys = build(&scene);
        let vp = scene.viewpoint_region().center();
        let (r, _) = sys.query(vp, Vec3::X).unwrap();
        assert!(!r.entries().is_empty());
        // Every retrieved object sits in some band box.
        let boxes = sys.band_boxes(vp, Vec3::X);
        for e in r.entries() {
            let mbr = scene.object(e.object).mbr;
            assert!(
                boxes.iter().any(|b| b.intersects(&mbr)),
                "object {}",
                e.object
            );
        }
        // There exist both fine and coarse levels when bands are populated.
        let levels: std::collections::HashSet<usize> =
            r.entries().iter().map(|e| e.level).collect();
        assert!(levels.len() >= 2, "levels {levels:?}");
    }

    #[test]
    fn objects_behind_viewer_not_loaded() {
        let scene = CityConfig::small().seed(1).generate();
        let mut sys = build(&scene);
        let vp = scene.viewpoint_region().center();
        let (r, _) = sys.query(vp, Vec3::X).unwrap();
        for e in r.entries() {
            let c = scene.object(e.object).mbr.center();
            // Nothing far behind the viewer (allowing the box's side width).
            assert!(c.x > vp.x - 150.0, "object {} at {c} is behind", e.object);
        }
    }

    #[test]
    fn turning_the_view_causes_refetch_storm() {
        let scene = CityConfig::small().seed(1).generate();
        let mut sys = build(&scene);
        let vp = scene.viewpoint_region().center();
        sys.query(vp, Vec3::X).unwrap();
        // Same position, same heading: everything cached.
        let (_, same) = sys.query(vp, Vec3::X).unwrap();
        assert_eq!(same.model_io.page_reads, 0);
        // Same position, opposite heading: the boxes swung away.
        let (_, turned) = sys.query(vp, -Vec3::X).unwrap();
        assert!(
            turned.model_io.page_reads > 0,
            "a 180-degree turn must refetch"
        );
    }

    #[test]
    fn complement_search_and_memory_accounting() {
        let scene = CityConfig::tiny().seed(2).generate();
        let mut sys = build(&scene);
        let vp = scene.viewpoint_region().center();
        let (r1, _) = sys.query(vp, Vec3::Y).unwrap();
        assert_eq!(sys.resident_bytes(), r1.total_bytes());
        assert!(sys.peak_bytes() >= sys.resident_bytes());
        sys.clear_resident();
        assert_eq!(sys.resident_bytes(), 0);
    }
}
