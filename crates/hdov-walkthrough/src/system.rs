//! The two walkthrough systems behind one trait.

use crate::frame::{FrameModel, FrameRecord};
use hdov_core::{DeltaSearch, HdovEnvironment, Query, ResultKey};
use hdov_geom::Vec3;
use hdov_review::{FidelityReport, ReviewSystem};
use hdov_storage::Result;
use hdov_visibility::{CellGrid, DovTable};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A walkthrough-capable system: renders a frame at each viewpoint of a
/// session, reporting costs and fidelity.
pub trait WalkthroughSystem {
    /// Human-readable name for reports.
    fn name(&self) -> String;

    /// Processes one frame at `viewpoint`.
    fn frame(&mut self, viewpoint: Vec3, model: &FrameModel) -> Result<FrameRecord>;

    /// Clears per-session state (resident sets); peak-memory tracking
    /// continues across resets unless noted.
    fn reset(&mut self);

    /// Peak resident model bytes observed so far.
    fn peak_memory_bytes(&self) -> u64;
}

/// Object id → ordinals of its ancestor nodes, leaf first (view-invariant).
/// Reads every node once through the environment's session, so the node
/// file's head ends where a scan leaves it.
pub(crate) fn ancestor_map(env: &mut HdovEnvironment) -> Result<HashMap<u64, Vec<u32>>> {
    let mut parent: HashMap<u32, u32> = HashMap::new();
    let mut leaf_of: HashMap<u64, u32> = HashMap::new();
    for ord in 0..env.tree().node_count() {
        let node = env.read_node(ord)?;
        for e in &node.entries {
            if e.is_object() {
                leaf_of.insert(e.child, ord);
            } else {
                parent.insert(e.child_ordinal, ord);
            }
        }
    }
    let mut ancestors = HashMap::with_capacity(leaf_of.len());
    for (&obj, &leaf) in &leaf_of {
        let mut chain = vec![leaf];
        let mut cur = leaf;
        while let Some(&p) = parent.get(&cur) {
            chain.push(p);
            cur = p;
        }
        ancestors.insert(obj, chain);
    }
    Ok(ancestors)
}

/// VISUAL: the HDoV-tree system with delta search (paper §5.4).
pub struct VisualSystem {
    env: HdovEnvironment,
    delta: DeltaSearch,
    eta: f64,
    /// object id → ordinals of its ancestor nodes (for fidelity: an object
    /// is represented if an ancestor's internal LoD is in the answer set).
    ancestors: HashMap<u64, Vec<u32>>,
}

impl VisualSystem {
    /// Wraps an environment with threshold `eta`.
    pub fn new(mut env: HdovEnvironment, eta: f64) -> Result<Self> {
        let ancestors = ancestor_map(&mut env)?;
        Ok(VisualSystem {
            env,
            delta: DeltaSearch::new(),
            eta,
            ancestors,
        })
    }

    /// The DoV threshold in use.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Changes the threshold (takes effect next frame).
    pub fn set_eta(&mut self, eta: f64) {
        self.eta = eta;
    }

    /// The wrapped environment.
    pub fn env(&self) -> &HdovEnvironment {
        &self.env
    }
}

impl WalkthroughSystem for VisualSystem {
    fn name(&self) -> String {
        format!("VISUAL(eta={})", self.eta)
    }

    fn frame(&mut self, viewpoint: Vec3, model: &FrameModel) -> Result<FrameRecord> {
        let cell = self.env.cell_of(viewpoint);
        let q = Query {
            resident: Some(&self.delta),
            ..Query::new(cell, self.eta)
        };
        let (result, stats) = self.env.query(q)?;
        self.delta.apply(&result);

        // Fidelity: direct objects + internal-LoD-covered subtrees.
        let mut direct: HashSet<u64> = HashSet::new();
        let mut internals: HashSet<u32> = HashSet::new();
        for e in result.entries() {
            match e.key {
                ResultKey::Object(id) => {
                    direct.insert(id);
                }
                ResultKey::Internal(o) => {
                    internals.insert(o);
                }
            }
        }
        let ancestors = &self.ancestors;
        let fidelity = FidelityReport::evaluate(self.env.dov_table(), cell, |obj| {
            let id = obj as u64;
            direct.contains(&id)
                || ancestors
                    .get(&id)
                    .is_some_and(|chain| chain.iter().any(|a| internals.contains(a)))
        });

        let search_ms = stats.search_time_ms();
        let polygons = result.total_polygons();
        Ok(FrameRecord {
            search_ms,
            frame_ms: model.frame_time_ms(search_ms, polygons),
            polygons,
            fetched_bytes: result.fetched_bytes(),
            page_reads: stats.total_io().page_reads,
            dov_coverage: fidelity.dov_coverage,
            missed_objects: fidelity.missed_objects,
            resident_bytes: self.delta.resident_bytes(),
        })
    }

    fn reset(&mut self) {
        self.delta.clear();
    }

    fn peak_memory_bytes(&self) -> u64 {
        self.delta.peak_bytes()
    }
}

/// REVIEW wrapped for walkthroughs, with ground-truth fidelity evaluation.
pub struct ReviewWalkthrough {
    sys: ReviewSystem,
    table: Arc<DovTable>,
    grid: Arc<CellGrid>,
}

impl ReviewWalkthrough {
    /// Wraps a REVIEW system; `table`/`grid` provide the fidelity ground
    /// truth (shared with the VISUAL environment so both systems are judged
    /// against the same reference without duplicating it).
    pub fn new(sys: ReviewSystem, table: Arc<DovTable>, grid: Arc<CellGrid>) -> Self {
        ReviewWalkthrough { sys, table, grid }
    }

    /// The wrapped system.
    pub fn system(&self) -> &ReviewSystem {
        &self.sys
    }
}

impl WalkthroughSystem for ReviewWalkthrough {
    fn name(&self) -> String {
        format!("REVIEW(box={}m)", self.sys.box_size())
    }

    fn frame(&mut self, viewpoint: Vec3, model: &FrameModel) -> Result<FrameRecord> {
        let cell = self.grid.clamped_cell_of(viewpoint);
        let (result, stats) = self.sys.query(viewpoint)?;
        let retrieved: HashSet<u64> = result.object_ids().collect();
        let fidelity = FidelityReport::for_object_set(&self.table, cell, &retrieved);
        let search_ms = stats.search_time_ms();
        let polygons = result.total_polygons();
        Ok(FrameRecord {
            search_ms,
            frame_ms: model.frame_time_ms(search_ms, polygons),
            polygons,
            fetched_bytes: result.fetched_bytes(),
            page_reads: stats.total_io().page_reads,
            dov_coverage: fidelity.dov_coverage,
            missed_objects: fidelity.missed_objects,
            resident_bytes: self.sys.resident_bytes(),
        })
    }

    fn reset(&mut self) {
        self.sys.clear_resident();
    }

    fn peak_memory_bytes(&self) -> u64 {
        self.sys.peak_bytes()
    }
}

/// The LoD-R-tree baseline (related work \[8\]) wrapped for walkthroughs: the
/// view direction is derived from motion, so turning sessions expose its
/// view-dependence (the paper: "its performance degenerates significantly
/// as the user view changes").
pub struct LodRTreeWalkthrough {
    sys: hdov_review::LodRTreeSystem,
    table: Arc<DovTable>,
    grid: Arc<CellGrid>,
    last_pos: Option<Vec3>,
}

impl LodRTreeWalkthrough {
    /// Wraps a LoD-R-tree system with the shared fidelity ground truth.
    pub fn new(
        sys: hdov_review::LodRTreeSystem,
        table: Arc<DovTable>,
        grid: Arc<CellGrid>,
    ) -> Self {
        LodRTreeWalkthrough {
            sys,
            table,
            grid,
            last_pos: None,
        }
    }

    /// The wrapped system.
    pub fn system(&self) -> &hdov_review::LodRTreeSystem {
        &self.sys
    }
}

impl WalkthroughSystem for LodRTreeWalkthrough {
    fn name(&self) -> String {
        format!("LoD-R-tree(range={}m)", self.sys.view_range())
    }

    fn frame(&mut self, viewpoint: Vec3, model: &FrameModel) -> Result<FrameRecord> {
        let dir = self
            .last_pos
            .and_then(|prev| (viewpoint - prev).try_normalize())
            .unwrap_or(Vec3::X);
        self.last_pos = Some(viewpoint);
        let cell = self.grid.clamped_cell_of(viewpoint);
        let (result, stats) = self.sys.query(viewpoint, dir)?;
        let retrieved: HashSet<u64> = result.object_ids().collect();
        let fidelity = FidelityReport::for_object_set(&self.table, cell, &retrieved);
        let search_ms = stats.search_time_ms();
        let polygons = result.total_polygons();
        Ok(FrameRecord {
            search_ms,
            frame_ms: model.frame_time_ms(search_ms, polygons),
            polygons,
            fetched_bytes: result.fetched_bytes(),
            page_reads: stats.total_io().page_reads,
            dov_coverage: fidelity.dov_coverage,
            missed_objects: fidelity.missed_objects,
            resident_bytes: self.sys.resident_bytes(),
        })
    }

    fn reset(&mut self) {
        self.sys.clear_resident();
        self.last_pos = None;
    }

    fn peak_memory_bytes(&self) -> u64 {
        self.sys.peak_bytes()
    }
}

#[cfg(test)]
mod naming_tests {
    use super::*;
    use hdov_core::{HdovBuildConfig, HdovEnvironment, StorageScheme};
    use hdov_scene::CityConfig;
    use hdov_visibility::CellGridConfig;

    #[test]
    fn system_names_identify_configuration() {
        let scene = CityConfig::tiny().seed(30).generate();
        let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(2, 2);
        let env = HdovEnvironment::build(
            &scene,
            &grid_cfg,
            HdovBuildConfig::fast_test(),
            StorageScheme::IndexedVertical,
        )
        .unwrap();
        let visual = VisualSystem::new(env, 0.0025).unwrap();
        assert_eq!(visual.name(), "VISUAL(eta=0.0025)");
        assert_eq!(visual.eta(), 0.0025);

        let review = hdov_review::ReviewSystem::build(
            &scene,
            hdov_review::ReviewConfig {
                box_size: 150.0,
                fanout: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let rw = ReviewWalkthrough::new(
            review,
            visual.env().dov_table_shared(),
            visual.env().grid_shared(),
        );
        assert_eq!(rw.name(), "REVIEW(box=150m)");

        let lodr = hdov_review::LodRTreeSystem::build(
            &scene,
            hdov_review::LodRTreeConfig {
                view_range: 250.0,
                ..Default::default()
            },
        )
        .unwrap();
        let lw = LodRTreeWalkthrough::new(
            lodr,
            visual.env().dov_table_shared(),
            visual.env().grid_shared(),
        );
        assert_eq!(lw.name(), "LoD-R-tree(range=250m)");
    }

    #[test]
    fn set_eta_changes_reported_name_and_behaviour() {
        let scene = CityConfig::tiny().seed(31).generate();
        let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(2, 2);
        let env = HdovEnvironment::build(
            &scene,
            &grid_cfg,
            HdovBuildConfig::fast_test(),
            StorageScheme::IndexedVertical,
        )
        .unwrap();
        let mut visual = VisualSystem::new(env, 0.0).unwrap();
        visual.set_eta(0.02);
        assert_eq!(visual.eta(), 0.02);
        assert!(visual.name().contains("0.02"));
    }
}
