//! A streaming VISUAL variant: frustum-prioritized, frame-budgeted loading.
//!
//! [`StreamingVisualSystem`] gives every frame a fixed *loading budget*
//! (simulated milliseconds). The prioritized traversal spends it on the most
//! visually important missing content (in-frustum, near first); whatever
//! misses the deadline stays resident work for following frames via the
//! merged delta set. The result: a bounded per-frame cost — the spikes of
//! Fig. 10 get clipped — at the price of briefly reduced coverage right
//! after large viewpoint jumps.

use crate::frame::{FrameModel, FrameRecord};
use crate::system::WalkthroughSystem;
use hdov_core::{DeltaSearch, HdovEnvironment, Query, QueryBudget, ResultKey};
use hdov_geom::{Frustum, Vec3};
use hdov_review::FidelityReport;
use hdov_storage::{Result, StorageError};
use std::collections::{HashMap, HashSet};

/// VISUAL with a per-frame loading budget and a camera heading.
pub struct StreamingVisualSystem {
    env: HdovEnvironment,
    delta: DeltaSearch,
    eta: f64,
    /// Simulated milliseconds of loading allowed per frame.
    pub budget_ms: f64,
    /// Camera parameters used to derive per-frame frusta.
    pub fov_y: f64,
    /// Width/height ratio of the derived frusta.
    pub aspect: f64,
    last_pos: Option<Vec3>,
    ancestors: HashMap<u64, Vec<u32>>,
    truncated_frames: u64,
}

impl StreamingVisualSystem {
    /// Wraps an environment. `budget_ms` bounds each frame's loading time;
    /// a budget that is not a positive number is rejected with
    /// [`StorageError::InvalidPlan`].
    ///
    /// Streaming mode enables a node buffer pool sized to the whole tree:
    /// best-first traversal reads node pages in priority order (scattered,
    /// one seek each), which would otherwise burn the budget on re-reading
    /// the same upper levels every frame. (The paper's cache-less rule
    /// applies to its §5.4 head-to-head, not to this extension.)
    pub fn new(mut env: HdovEnvironment, eta: f64, budget_ms: f64) -> Result<Self> {
        if budget_ms.is_nan() || budget_ms <= 0.0 {
            let reason = format!("frame budget {budget_ms} ms is not positive");
            return Err(StorageError::InvalidPlan { reason });
        }
        let n = env.tree().node_count() as usize;
        env.enable_node_cache(n.max(1));
        let ancestors = crate::system::ancestor_map(&mut env)?;
        Ok(StreamingVisualSystem {
            env,
            delta: DeltaSearch::new(),
            eta,
            budget_ms,
            fov_y: 1.2,
            aspect: 1.6,
            last_pos: None,
            ancestors,
            truncated_frames: 0,
        })
    }

    /// Number of frames whose loading was cut off by the budget so far.
    pub fn truncated_frames(&self) -> u64 {
        self.truncated_frames
    }

    /// The wrapped environment.
    pub fn env(&self) -> &HdovEnvironment {
        &self.env
    }

    fn frustum_for(&self, viewpoint: Vec3) -> Frustum {
        // Heading: direction of travel, defaulting to +x on the first frame.
        let dir = self
            .last_pos
            .and_then(|prev| (viewpoint - prev).try_normalize())
            .unwrap_or(Vec3::X);
        let dir = if dir.z.abs() > 0.99 { Vec3::X } else { dir };
        Frustum::new(
            viewpoint,
            dir,
            Vec3::Z,
            self.fov_y,
            self.aspect,
            0.5,
            5_000.0,
        )
    }
}

impl WalkthroughSystem for StreamingVisualSystem {
    fn name(&self) -> String {
        format!(
            "VISUAL-streaming(eta={}, budget={}ms)",
            self.eta, self.budget_ms
        )
    }

    fn frame(&mut self, viewpoint: Vec3, model: &FrameModel) -> Result<FrameRecord> {
        let frustum = self.frustum_for(viewpoint);
        self.last_pos = Some(viewpoint);
        let cell = self.env.cell_of(viewpoint);
        let q = Query {
            resident: Some(&self.delta),
            budget: QueryBudget::sim_ms(self.budget_ms),
            ..Query::new(cell, self.eta)
        };
        let (outcome, stats) = self.env.query_prioritized(q, &frustum)?;
        if outcome.completed {
            self.delta.apply(&outcome.result);
        } else {
            // A truncated frame must not evict content that simply didn't
            // get re-confirmed before the deadline: merge instead.
            self.delta.merge(&outcome.result);
            self.truncated_frames += 1;
        }

        // Fidelity is judged against everything *resident* (on screen) —
        // a truncated frame keeps showing content loaded by earlier frames.
        let mut direct: HashSet<u64> = HashSet::new();
        let mut internals: HashSet<u32> = HashSet::new();
        for key in self.delta.resident_keys() {
            match key {
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
        let polygons = outcome.result.total_polygons();
        Ok(FrameRecord {
            search_ms,
            frame_ms: model.frame_time_ms(search_ms, polygons),
            polygons,
            fetched_bytes: outcome.result.fetched_bytes(),
            page_reads: stats.total_io().page_reads,
            dov_coverage: fidelity.dov_coverage,
            missed_objects: fidelity.missed_objects,
            resident_bytes: self.delta.resident_bytes(),
        })
    }

    fn reset(&mut self) {
        self.delta.clear();
        self.last_pos = None;
        self.truncated_frames = 0;
    }

    fn peak_memory_bytes(&self) -> u64 {
        self.delta.peak_bytes()
    }
}
