//! Per-cell degree-of-visibility tables.
//!
//! For every cell, the estimator takes a few sample viewpoints, casts a fixed
//! bundle of uniformly distributed rays from each, and credits each ray to
//! the first object it hits. `DoV(p, X)` is then the fraction of rays whose
//! first hit is `X` — exactly the paper's "solid angle of the visible part"
//! (§3.1) evaluated by Monte Carlo — and the region DoV of a cell is the
//! maximum over its sample viewpoints (Eq. 2).
//!
//! Rays are cast against the objects' bounding boxes through one [`Bvh`]
//! with the ground plane at `z = 0`; [`DovTable::compute`] and
//! [`DovTable::recompute_cells`] build it the same way, so a repatched cell
//! is bit-identical to a freshly computed one.

use crate::bvh::{Bvh, Hit};
use crate::cell::{CellGrid, CellId};
use hdov_geom::sampling;
use hdov_geom::{Ray, SlabRay, Vec3};
use hdov_scene::Scene;

/// Estimator parameters.
#[derive(Debug, Clone, Copy)]
pub struct DovConfig {
    /// Rays cast per sample viewpoint (DoV resolution is `1 / rays`).
    pub rays_per_viewpoint: usize,
    /// Sample viewpoints per cell (centre, corners, then jitter).
    pub viewpoints_per_cell: usize,
    /// Seed for jittered viewpoints and ray-set rotation.
    pub seed: u64,
}

impl Default for DovConfig {
    fn default() -> Self {
        DovConfig {
            rays_per_viewpoint: 4096,
            viewpoints_per_cell: 5,
            seed: 0,
        }
    }
}

impl DovConfig {
    /// A cheap configuration for unit tests.
    pub fn fast_test() -> Self {
        DovConfig {
            rays_per_viewpoint: 512,
            viewpoints_per_cell: 3,
            seed: 0,
        }
    }
}

/// The caster every estimate uses: a BVH over the objects' bounding boxes
/// with the city ground plane at `z = 0`.
fn box_caster(scene: &Scene) -> Bvh {
    Bvh::build(scene.objects().iter().map(|o| o.mbr).collect(), Some(0.0))
}

/// Sparse per-cell DoV data: for each cell, the visible objects and their
/// DoV values, sorted by object id.
#[derive(Debug, Clone)]
pub struct DovTable {
    cells: Vec<Vec<(u32, f32)>>,
    rays_per_viewpoint: usize,
}

impl DovTable {
    /// Computes the table for `scene` over `grid`.
    ///
    /// Work is distributed over `threads` scoped worker threads (pass 0 to
    /// use the available parallelism). Cells are handed out one at a time
    /// from an atomic work queue rather than pre-partitioned: per-cell cost
    /// varies by orders of magnitude (a cell facing dense geometry traces
    /// far deeper than an empty one), so a static chunk split leaves workers
    /// idle behind the unlucky chunk. The result is independent of thread
    /// count and claim order — each cell's estimate depends only on the cell
    /// id and `cfg`.
    pub fn compute(scene: &Scene, grid: &CellGrid, cfg: &DovConfig, threads: usize) -> DovTable {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let bvh = box_caster(scene);
        let n_cells = grid.cell_count();
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            threads
        };
        let workers = threads.clamp(1, n_cells.max(1));

        // One worker's output: (cell index, that cell's (object, DoV) list).
        type WorkerCells = Vec<(usize, Vec<(u32, f32)>)>;

        let next = AtomicUsize::new(0);
        let mut per_worker: Vec<WorkerCells> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let cell = next.fetch_add(1, Ordering::Relaxed);
                            if cell >= n_cells {
                                break done;
                            }
                            done.push((cell, compute_cell(&bvh, grid, cell as CellId, cfg)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("DoV worker panicked"))
                .collect()
        });

        let mut cells: Vec<Vec<(u32, f32)>> = vec![Vec::new(); n_cells];
        for (cell, data) in per_worker.drain(..).flatten() {
            cells[cell] = data;
        }

        DovTable {
            cells,
            rays_per_viewpoint: cfg.rays_per_viewpoint,
        }
    }

    /// Assembles a table from per-cell `(object, DoV)` lists — the durable
    /// write path reconstructs tables from its own storage this way.
    ///
    /// Each list must be strictly sorted by object id with DoVs in `(0, 1]`
    /// and `rays_per_viewpoint` positive (the invariants
    /// [`decode`](Self::decode) enforces); returns `None` otherwise.
    pub fn from_parts(cells: Vec<Vec<(u32, f32)>>, rays_per_viewpoint: usize) -> Option<DovTable> {
        if rays_per_viewpoint == 0 {
            return None;
        }
        for cell in &cells {
            if cell.windows(2).any(|w| w[0].0 >= w[1].0) {
                return None;
            }
            if cell.iter().any(|&(_, d)| !(d > 0.0 && d <= 1.0)) {
                return None;
            }
        }
        Some(DovTable {
            cells,
            rays_per_viewpoint,
        })
    }

    /// The `(object, DoV)` list of `cell`, sorted by object id. Only objects
    /// with `DoV > 0` appear.
    pub fn cell(&self, cell: CellId) -> &[(u32, f32)] {
        &self.cells[cell as usize]
    }

    /// DoV of `object` in `cell` (0 when hidden).
    pub fn dov(&self, cell: CellId, object: u32) -> f32 {
        let list = self.cell(cell);
        match list.binary_search_by_key(&object, |&(o, _)| o) {
            Ok(i) => list[i].1,
            Err(_) => 0.0,
        }
    }

    /// Number of visible objects in `cell` (the paper's `N_vobj`).
    pub fn visible_count(&self, cell: CellId) -> usize {
        self.cells[cell as usize].len()
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Mean `N_vobj` over all cells.
    pub fn avg_visible(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells.iter().map(|c| c.len() as f64).sum::<f64>() / self.cells.len() as f64
    }

    /// The smallest non-zero DoV the estimator can resolve.
    pub fn resolution(&self) -> f64 {
        1.0 / self.rays_per_viewpoint as f64
    }

    /// Rays cast per sample viewpoint when this table was estimated.
    pub fn rays_per_viewpoint(&self) -> usize {
        self.rays_per_viewpoint
    }

    /// Total DoV mass of a cell (≤ 1 by construction: first-hit rays
    /// partition the sphere).
    pub fn total_dov(&self, cell: CellId) -> f64 {
        self.cell(cell).iter().map(|&(_, d)| d as f64).sum()
    }

    /// Cells whose visibility data can be affected by adding, removing, or
    /// moving objects: a cell is affected when any changed object was
    /// visible from it, or when one of its own sample rays — the viewpoints
    /// and ray sets [`compute`](Self::compute) casts under `cfg`, which must
    /// be the table's configuration — passes through a changed region.
    ///
    /// Exact for the estimator: a cell's Monte-Carlo estimate changes only
    /// when some ray's first hit changes, and a first hit can change only
    /// along a ray that passes through a changed region (revealed or hidden
    /// geometry lies behind, or is, a changed object). The regions are
    /// inflated by [`EPSILON`](hdov_geom::EPSILON) so a ray grazing a box
    /// edge counts as a hit.
    ///
    /// * `changed_objects` — ids whose previous visibility forces a
    ///   recompute wherever they appeared,
    /// * `changed_regions` — old *and* new bounding boxes of every edit.
    pub fn affected_cells(
        &self,
        grid: &CellGrid,
        cfg: &DovConfig,
        changed_objects: &[u32],
        changed_regions: &[hdov_geom::Aabb],
    ) -> Vec<CellId> {
        let regions: Vec<_> = changed_regions
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| r.inflate(hdov_geom::EPSILON))
            .collect();
        (0..self.cells.len() as CellId)
            .filter(|&cell| {
                changed_objects.iter().any(|&obj| self.dov(cell, obj) > 0.0)
                    || sample_rays(grid, cell, *cfg).any(|(vp, dirs)| {
                        dirs.iter().any(|&d| {
                            let ray = SlabRay::new(&Ray::new(vp, d));
                            regions.iter().any(|r| r.slab_hit(&ray).is_some())
                        })
                    })
            })
            .collect()
    }

    /// Recomputes the listed cells in place against the (edited) `scene` —
    /// the incremental companion to [`compute`](Self::compute). Cells not
    /// listed keep their existing data.
    ///
    /// Typical flow after a scene edit:
    /// `let dirty = table.affected_cells(...); table.recompute_cells(&new_scene, &grid, &cfg, &dirty);`
    /// — the mutable write path (`hdov_core::MutableScene::commit`) runs
    /// exactly this, then republishes the environment from the patched
    /// table.
    pub fn recompute_cells(
        &mut self,
        scene: &Scene,
        grid: &CellGrid,
        cfg: &DovConfig,
        cells: &[CellId],
    ) {
        assert_eq!(
            self.rays_per_viewpoint, cfg.rays_per_viewpoint,
            "recompute must use the table's original ray count"
        );
        let caster = box_caster(scene);
        for &cell in cells {
            self.cells[cell as usize] = compute_cell(&caster, grid, cell, cfg);
        }
    }

    /// Serializes the table (little-endian, versioned). DoV precomputation
    /// is the expensive offline step — the paper reports ~1 s per cell — so
    /// persisting the result makes environment rebuilds instant.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.cells.len() * 8);
        out.extend_from_slice(b"DOVT");
        out.extend_from_slice(&1u32.to_le_bytes()); // version
        out.extend_from_slice(&(self.rays_per_viewpoint as u64).to_le_bytes());
        out.extend_from_slice(&(self.cells.len() as u64).to_le_bytes());
        for cell in &self.cells {
            out.extend_from_slice(&(cell.len() as u32).to_le_bytes());
            for &(obj, dov) in cell {
                out.extend_from_slice(&obj.to_le_bytes());
                out.extend_from_slice(&dov.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a table written by [`encode`](Self::encode).
    ///
    /// Returns `None` on any structural mismatch (bad magic/version,
    /// truncation, unsorted cells).
    pub fn decode(bytes: &[u8]) -> Option<DovTable> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = bytes.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        };
        if take(&mut pos, 4)? != b"DOVT" {
            return None;
        }
        let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
        if version != 1 {
            return None;
        }
        let rays = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?) as usize;
        let n_cells = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?) as usize;
        // Never allocate from an unvalidated count: each cell costs at
        // least 4 bytes, each entry 8.
        if n_cells.checked_mul(4)? > bytes.len() - pos {
            return None;
        }
        let mut cells = Vec::with_capacity(n_cells);
        for _ in 0..n_cells {
            let n = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
            if n.checked_mul(8)? > bytes.len() - pos {
                return None;
            }
            let mut cell = Vec::with_capacity(n);
            for _ in 0..n {
                let obj = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
                let dov = f32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
                if !(0.0..=1.0).contains(&dov) {
                    return None;
                }
                cell.push((obj, dov));
            }
            if cell.windows(2).any(|w| w[0].0 >= w[1].0) {
                return None; // must be strictly sorted by object id
            }
            cells.push(cell);
        }
        if pos != bytes.len() || rays == 0 {
            return None;
        }
        Some(DovTable {
            cells,
            rays_per_viewpoint: rays,
        })
    }
}

/// The estimator's sample rays of `cell` under `cfg`: each sample viewpoint
/// with its ray directions.
pub(crate) fn sample_rays(
    grid: &CellGrid,
    cell: CellId,
    cfg: DovConfig,
) -> impl Iterator<Item = (Vec3, Vec<Vec3>)> {
    let viewpoints = grid.sample_viewpoints(cell, cfg.viewpoints_per_cell, cfg.seed);
    viewpoints.into_iter().enumerate().map(move |(vi, vp)| {
        // A distinct ray set per viewpoint decorrelates the MC error.
        let seed = cfg.seed ^ ((cell as u64) << 20) ^ vi as u64;
        (vp, sampling::random_sphere(cfg.rays_per_viewpoint, seed))
    })
}

fn compute_cell(bvh: &Bvh, grid: &CellGrid, cell: CellId, cfg: &DovConfig) -> Vec<(u32, f32)> {
    let mut max_dov: std::collections::HashMap<u32, f32> = std::collections::HashMap::new();
    let mut hits: Vec<u32> = Vec::new();
    for (vp, dirs) in sample_rays(grid, cell, *cfg) {
        hits.clear();
        for d in &dirs {
            if let Hit::Object { index, .. } = bvh.first_hit(&Ray::new(vp, *d)) {
                hits.push(index);
            }
        }
        hits.sort_unstable();
        let mut i = 0;
        while i < hits.len() {
            let obj = hits[i];
            let mut j = i;
            while j < hits.len() && hits[j] == obj {
                j += 1;
            }
            let dov = (j - i) as f32 / cfg.rays_per_viewpoint as f32;
            let e = max_dov.entry(obj).or_insert(0.0);
            if dov > *e {
                *e = dov;
            }
            i = j;
        }
    }
    let mut out: Vec<(u32, f32)> = max_dov.into_iter().collect();
    out.sort_unstable_by_key(|&(o, _)| o);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellGridConfig;
    use hdov_scene::CityConfig;

    fn tiny_table() -> (hdov_scene::Scene, CellGrid, DovTable) {
        let scene = CityConfig::tiny().seed(3).generate();
        let grid = CellGridConfig::for_scene(&scene)
            .with_resolution(4, 4)
            .build();
        let table = DovTable::compute(&scene, &grid, &DovConfig::fast_test(), 2);
        (scene, grid, table)
    }

    #[test]
    fn table_covers_all_cells() {
        let (_, grid, table) = tiny_table();
        assert_eq!(table.cell_count(), grid.cell_count());
    }

    #[test]
    fn dov_values_in_range_and_sum_bounded() {
        let (_, _, table) = tiny_table();
        let mut any_visible = false;
        for cell in 0..table.cell_count() as CellId {
            let total = table.total_dov(cell);
            // Max over viewpoints can push the sum slightly over the
            // single-viewpoint bound of 1; it stays ≤ #viewpoints.
            assert!(total <= 3.0 + 1e-6, "cell {cell} total {total}");
            for &(_, d) in table.cell(cell) {
                assert!(d > 0.0 && d <= 1.0);
                any_visible = true;
            }
        }
        assert!(any_visible, "no object visible from any cell");
    }

    #[test]
    fn lists_sorted_and_lookup_consistent() {
        let (_, _, table) = tiny_table();
        for cell in 0..table.cell_count() as CellId {
            let list = table.cell(cell);
            assert!(list.windows(2).all(|w| w[0].0 < w[1].0));
            for &(obj, d) in list {
                assert_eq!(table.dov(cell, obj), d);
            }
        }
        assert_eq!(table.dov(0, 9999), 0.0);
    }

    #[test]
    fn near_objects_have_higher_dov_than_far() {
        let (scene, grid, table) = tiny_table();
        // For each cell, the max-DoV object should be nearer than the
        // median visible object, on average.
        let mut checked = 0;
        for cell in 0..table.cell_count() as CellId {
            let list = table.cell(cell);
            if list.len() < 4 {
                continue;
            }
            let center = grid.cell_bounds(cell).center();
            let best = list.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
            let best_dist = scene.object(best.0 as u64).mbr.distance_to_point(center);
            let mean_dist: f64 = list
                .iter()
                .map(|&(o, _)| scene.object(o as u64).mbr.distance_to_point(center))
                .sum::<f64>()
                / list.len() as f64;
            if best_dist < mean_dist {
                checked += 1;
            }
        }
        assert!(
            checked >= table.cell_count() / 2,
            "only {checked} cells sane"
        );
    }

    #[test]
    fn visible_fraction_is_partial() {
        // Occlusion must hide a decent share of the city from street level.
        let (scene, _, table) = tiny_table();
        let avg = table.avg_visible();
        assert!(avg > 1.0, "avg visible {avg}");
        assert!(
            avg < scene.len() as f64,
            "every object visible from every cell — no occlusion?"
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let scene = CityConfig::tiny().seed(5).generate();
        let grid = CellGridConfig::for_scene(&scene)
            .with_resolution(3, 3)
            .build();
        let a = DovTable::compute(&scene, &grid, &DovConfig::fast_test(), 1);
        let b = DovTable::compute(&scene, &grid, &DovConfig::fast_test(), 4);
        for c in 0..a.cell_count() as CellId {
            assert_eq!(a.cell(c), b.cell(c), "cell {c} differs");
        }
    }

    #[test]
    fn resolution_reported() {
        let (_, _, table) = tiny_table();
        assert!((table.resolution() - 1.0 / 512.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::cell::CellGridConfig;
    use hdov_scene::CityConfig;

    fn table() -> DovTable {
        let scene = CityConfig::tiny().seed(13).generate();
        let grid = CellGridConfig::for_scene(&scene)
            .with_resolution(3, 3)
            .build();
        DovTable::compute(&scene, &grid, &DovConfig::fast_test(), 2)
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = table();
        let bytes = t.encode();
        let d = DovTable::decode(&bytes).expect("decode");
        assert_eq!(d.cell_count(), t.cell_count());
        assert!((d.resolution() - t.resolution()).abs() < 1e-12);
        for c in 0..t.cell_count() as CellId {
            assert_eq!(d.cell(c), t.cell(c));
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let t = table();
        let bytes = t.encode();
        assert!(
            DovTable::decode(&bytes[..bytes.len() - 1]).is_none(),
            "truncated"
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(DovTable::decode(&bad_magic).is_none(), "magic");
        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        assert!(DovTable::decode(&bad_version).is_none(), "version");
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(DovTable::decode(&extra).is_none(), "trailing bytes");
        assert!(DovTable::decode(&[]).is_none(), "empty");
    }

    #[test]
    fn decode_rejects_out_of_range_dov() {
        let t = table();
        let mut bytes = t.encode();
        // Find the first DoV float (after header + first cell count) and
        // poke it to 2.0.
        let first_dov_at = 4 + 4 + 8 + 8 + 4 + 4;
        bytes[first_dov_at..first_dov_at + 4].copy_from_slice(&2.0f32.to_le_bytes());
        assert!(DovTable::decode(&bytes).is_none());
    }
}

#[cfg(test)]
mod solid_angle_tests {
    use super::*;
    use crate::cell::CellGridConfig;
    use hdov_geom::solid_angle::steradians_to_dov;
    use hdov_geom::{Aabb, Vec3};
    use hdov_mesh::generate;

    /// One box in an otherwise empty world, seen from a viewpoint on the
    /// axis of its near face: only that face is visible, so the estimate
    /// must match the closed-form solid angle of a rectangle with half-sides
    /// `a`, `b` at distance `d`, `4·asin(ab / √((a² + d²)(b² + d²)))`.
    #[test]
    fn box_face_dov_matches_the_rectangle_solid_angle() {
        let (a, b, d) = (4.0, 6.0, 12.0);
        let eye = Vec3::new(0.0, 0.0, 10.0);
        let face = Vec3::new(d, a, b);
        let mesh = generate::box_mesh(
            eye + Vec3::new(d, -a, -b),
            eye + face + Vec3::new(5.0, 0.0, 0.0),
        );
        let scene = Scene::from_meshes(vec![mesh], 1, 0.5).unwrap();
        let half = Vec3::new(1.0, 1.0, 0.5);
        let grid = CellGrid::new(CellGridConfig {
            region: Aabb::new(eye - half, eye + half),
            nx: 1,
            ny: 1,
        });
        let cfg = DovConfig {
            rays_per_viewpoint: 16384,
            viewpoints_per_cell: 1,
            seed: 3,
        };
        let table = DovTable::compute(&scene, &grid, &cfg, 1);
        let omega = 4.0 * (a * b / ((a * a + d * d) * (b * b + d * d)).sqrt()).asin();
        let exact = steradians_to_dov(omega);
        let got = table.dov(0, 0) as f64;
        assert!(
            (got - exact).abs() < 0.01,
            "estimate {got} vs exact {exact}"
        );
    }
}
