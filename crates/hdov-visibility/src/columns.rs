//! A first-hit ray caster over object bounding boxes.
//!
//! The city is 2.5-D: boxes stand on a ground plane. [`ColumnGrid`] cuts
//! the boxes' x–y footprint into square columns and lists, in each column,
//! the boxes whose footprint overlaps it. A ray walks the columns in order
//! of entry `t` with a 2-D DDA (Amanatides–Woo), the way a line of sight
//! walks a grid terrain, and tests only the boxes listed where it passes.
//! This is the core primitive of the DoV estimator, and its only caster. A
//! ground plane at `z = 0` terminates downward rays so they cannot pass
//! underneath the city.
//!
//! [`ColumnGrid::first_hit`] returns the lexicographic minimum of
//! `(t, rank)` over the boxes the ray hits, where a box's *rank* is its
//! position in a fixed order of the boxes (a right-half-first median split);
//! the ground plane wins a tie with any box. The rule makes the answer
//! independent of the walk order: a brute-force scan in rank order (the
//! test oracle below) returns the same hits, bit for bit.

use hdov_geom::{Aabb, Ray, SlabRay};

/// How far each box's footprint is padded when it is listed in columns, so
/// that a rounding error at a column edge or corner cannot drop a box from
/// the column a ray is walking when it hits the box. Rounding moves a point
/// of a city-sized scene by about `1e-12`.
const PAD: f64 = 1e-6;

/// A box as a column lists it.
#[derive(Debug, Clone, Copy)]
struct Item {
    bounds: Aabb,
    rank: u32,
    /// Index into the box array passed at construction.
    index: u32,
}

/// A uniform 2-D grid of square columns over the boxes' x–y footprint.
#[derive(Debug)]
pub struct ColumnGrid {
    /// The union of the listed boxes: every hit lies inside it.
    bounds: Aabb,
    /// x and y of the grid's lower corner.
    corner: [f64; 2],
    side: f64,
    /// Columns along x and y; column `(i, j)` is number `j · cols[0] + i`.
    cols: [usize; 2],
    /// Column `c` lists `items[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    items: Vec<Item>,
    /// The highest box top per column (`−∞` for an empty column).
    tops: Vec<f64>,
    ground_z: Option<f64>,
}

/// A first-hit result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Hit {
    /// The ray first hits the primitive with this index, at parameter `t`.
    Object {
        /// Index into the box array passed at construction.
        index: u32,
        /// Hit distance along the (unit) ray.
        t: f64,
    },
    /// The ray hits the ground plane first.
    Ground {
        /// Hit distance.
        t: f64,
    },
    /// The ray escapes to the sky.
    Miss,
}

/// The best hit so far, ordered by `(t, rank)`.
struct Best {
    t: f64,
    /// 0 until a box is hit: no rank is below 0, so a box level with the
    /// ground (or with `t = ∞`) never takes the hit.
    rank: u32,
    index: Option<u32>,
}

impl Best {
    fn new(ground_t: Option<f64>) -> Self {
        Best {
            t: ground_t.unwrap_or(f64::INFINITY),
            rank: 0,
            index: None,
        }
    }

    /// Whether a hit at `(t, rank)` beats the best.
    #[inline]
    fn beaten_by(&self, t: f64, rank: u32) -> bool {
        t < self.t || (t == self.t && rank < self.rank)
    }

    fn into_hit(self, ground_t: Option<f64>) -> Hit {
        match (self.index, ground_t) {
            (Some(index), _) => Hit::Object { index, t: self.t },
            (None, Some(t)) => Hit::Ground { t },
            (None, None) => Hit::Miss,
        }
    }
}

/// A box is listed unless it is empty ([`Aabb::EMPTY`]) or has a NaN
/// bound; a slab test never hits an empty box.
fn is_live(b: &Aabb) -> bool {
    b.min.x <= b.max.x && b.min.y <= b.max.y && b.min.z <= b.max.z
}

/// The union of the live boxes.
fn live_bounds(boxes: &[Aabb]) -> Aabb {
    boxes
        .iter()
        .filter(|b| is_live(b))
        .fold(Aabb::EMPTY, |a, b| a.union(b))
}

impl ColumnGrid {
    /// Builds the grid over `boxes`. Pass `ground_z = Some(0.0)` to model
    /// the city ground plane.
    ///
    /// The column side is `√(footprint area / live boxes)`, about one box
    /// per column. It is never below the footprint's longer side over the
    /// box count, which bounds the grid at about three columns per box for
    /// a long, thin footprint, and is 1 when the footprint has no extent.
    pub fn build(boxes: &[Aabb], ground_z: Option<f64>) -> Self {
        let footprint = live_bounds(boxes).extent();
        let n = boxes.iter().filter(|b| is_live(b)).count().max(1) as f64;
        let side = (footprint.x * footprint.y / n)
            .sqrt()
            .max(footprint.x.max(footprint.y) / n);
        let side = if side > 0.0 { side } else { 1.0 };
        Self::with_side(boxes, ground_z, side)
    }

    /// Builds the grid with columns of the given side.
    fn with_side(boxes: &[Aabb], ground_z: Option<f64>, side: f64) -> Self {
        assert!(u32::try_from(boxes.len()).is_ok(), "caster over 2^32 boxes");
        assert!(side > 0.0 && side.is_finite(), "column side {side}");
        let order = rank_order(boxes);
        let mut rank = vec![0u32; boxes.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        let bounds = live_bounds(boxes);
        let mut grid = ColumnGrid {
            bounds,
            corner: [0.0; 2],
            side,
            cols: [1, 1],
            offsets: vec![0, 0],
            items: Vec::new(),
            tops: vec![f64::NEG_INFINITY],
            ground_z,
        };
        if bounds.is_empty() {
            return grid;
        }
        assert!(
            bounds.min.is_finite() && bounds.max.is_finite(),
            "caster over unbounded boxes"
        );
        for a in 0..2 {
            grid.corner[a] = bounds.min[a] - PAD;
            let span = bounds.max[a] + PAD - grid.corner[a];
            grid.cols[a] = ((span / side).ceil() as usize).max(1);
        }
        let n_cols = grid.cols[0] * grid.cols[1];

        // The columns each live box's padded footprint overlaps.
        let spans: Vec<(u32, [usize; 4])> = (0..boxes.len() as u32)
            .filter(|&i| is_live(&boxes[i as usize]))
            .map(|i| {
                let b = &boxes[i as usize];
                let x = [
                    grid.column_of(0, b.min.x - PAD),
                    grid.column_of(0, b.max.x + PAD),
                ];
                let y = [
                    grid.column_of(1, b.min.y - PAD),
                    grid.column_of(1, b.max.y + PAD),
                ];
                (i, [x[0], x[1], y[0], y[1]])
            })
            .collect();
        let nx = grid.cols[0];
        let columns = |&(_, [x0, x1, y0, y1]): &(u32, [usize; 4])| {
            (y0..=y1).flat_map(move |j| (x0..=x1).map(move |i| j * nx + i))
        };

        // Compressed rows: count, prefix-sum, then fill.
        let mut counts = vec![0usize; n_cols + 1];
        for span in &spans {
            for c in columns(span) {
                counts[c + 1] += 1;
            }
        }
        for c in 0..n_cols {
            counts[c + 1] += counts[c];
        }
        assert!(u32::try_from(counts[n_cols]).is_ok(), "2^32 column entries");
        let mut fill = counts.clone();
        let placeholder = Item {
            bounds: Aabb::EMPTY,
            rank: 0,
            index: 0,
        };
        grid.items = vec![placeholder; counts[n_cols]];
        grid.tops = vec![f64::NEG_INFINITY; n_cols];
        for span in &spans {
            let i = span.0 as usize;
            for c in columns(span) {
                grid.items[fill[c]] = Item {
                    bounds: boxes[i],
                    rank: rank[i],
                    index: i as u32,
                };
                fill[c] += 1;
                grid.tops[c] = grid.tops[c].max(boxes[i].max.z);
            }
        }
        grid.offsets = counts.into_iter().map(|c| c as u32).collect();
        grid
    }

    /// The column along `axis` (0 = x, 1 = y) that holds coordinate `v`,
    /// clamped to the grid.
    #[inline]
    fn column_of(&self, axis: usize, v: f64) -> usize {
        let k = ((v - self.corner[axis]) / self.side).floor();
        // `as` saturates: a NaN or negative `k` maps to 0.
        (k as usize).min(self.cols[axis] - 1)
    }

    /// The `t` at which a ray leaves column `k` along `axis`, heading up the
    /// axis when `inv > 0` and down it otherwise.
    #[inline]
    fn crossing(&self, axis: usize, k: usize, origin: f64, inv: f64) -> f64 {
        let edge = k + usize::from(inv > 0.0);
        (self.corner[axis] + edge as f64 * self.side - origin) * inv
    }

    /// Whether every box in column `c` lies below the ray while it is over
    /// the column, from `entry` to `exit`. A box below the ray there can
    /// still be hit, but only over another column that lists it too.
    ///
    /// The box tests round monotonically in the bounds, so the comparison
    /// is exact: a falling ray enters any box in the column no earlier than
    /// it falls to the column's top, and a rising ray leaves every box there
    /// no later than it rises past it.
    #[inline]
    fn column_below(&self, c: usize, slab: &SlabRay, entry: f64, exit: f64) -> bool {
        let top = self.tops[c];
        let (oz, inv_z) = (slab.origin()[2], slab.inv()[2]);
        if slab.parallel()[2] {
            return oz > top;
        }
        let t_top = (top - oz) * inv_z;
        if inv_z < 0.0 {
            t_top > exit
        } else {
            t_top < entry
        }
    }

    /// Where `ray` meets the ground plane, if one is configured and the
    /// ray heads down to it from above.
    fn ground_t(&self, ray: &Ray) -> Option<f64> {
        let gz = self.ground_z?;
        (ray.dir.z < -1e-12 && ray.origin.z > gz).then(|| (gz - ray.origin.z) / ray.dir.z)
    }

    /// Casts `ray` (unit direction) and returns the first thing hit.
    ///
    /// A primitive hit at `t = 0` (ray origin inside a box) is reported like
    /// any other hit. Equal-`t` boxes resolve to the lowest rank, and the
    /// ground beats a box at the same `t` (see the module docs).
    pub fn first_hit(&self, ray: &Ray) -> Hit {
        let ground_t = self.ground_t(ray);
        let mut best = Best::new(ground_t);
        let slab = SlabRay::new(ray);
        // Every box the ray hits, it hits inside the union of the boxes:
        // clipping there stops rising rays at the scene top and falling
        // ones at its floor.
        if let Some((t_in, t_out)) = self.bounds.slab_span(&slab) {
            self.walk(ray, &slab, t_in, t_out, &mut best);
        }
        best.into_hit(ground_t)
    }

    /// Walks the columns under `ray` from `t_in` in order of entry `t`,
    /// testing every listed box, until the next column is entered after
    /// `t_out`, after the best hit, or off the grid.
    fn walk(&self, ray: &Ray, slab: &SlabRay, t_in: f64, t_out: f64, best: &mut Best) {
        let (origin, inv, parallel) = (slab.origin(), slab.inv(), slab.parallel());
        let dir = [ray.dir.x, ray.dir.y];
        let mut col = [0usize; 2];
        // Where the ray leaves the current column along x and y; a parallel
        // axis (as the slab test judges it) is never stepped along.
        let mut next = [f64::INFINITY; 2];
        for a in 0..2 {
            if parallel[a] {
                col[a] = self.column_of(a, origin[a]);
            } else {
                col[a] = self.column_of(a, origin[a] + dir[a] * t_in);
                next[a] = self.crossing(a, col[a], origin[a], inv[a]);
            }
        }
        let mut entry = t_in;
        loop {
            let c = col[1] * self.cols[0] + col[0];
            let exit = next[0].min(next[1]).min(t_out);
            if !self.column_below(c, slab, entry, exit) {
                let items = &self.items[self.offsets[c] as usize..self.offsets[c + 1] as usize];
                for item in items {
                    if let Some(t) = item.bounds.slab_hit(slab) {
                        if best.beaten_by(t, item.rank) {
                            *best = Best {
                                t,
                                rank: item.rank,
                                index: Some(item.index),
                            };
                        }
                    }
                }
            }
            let a = usize::from(next[1] < next[0]);
            let t = next[a];
            // The slack covers rounding in the crossing times.
            let limit = best.t * (1.0 + 1e-9) + 1e-9;
            if !(t.is_finite() && t <= t_out && t <= limit) {
                break;
            }
            if inv[a] > 0.0 {
                col[a] += 1;
                if col[a] == self.cols[a] {
                    break;
                }
            } else {
                if col[a] == 0 {
                    break;
                }
                col[a] -= 1;
            }
            next[a] = self.crossing(a, col[a], origin[a], inv[a]);
            entry = entry.max(t);
        }
    }
}

/// Box indices in rank order: a right-half-first depth-first walk of a
/// median split on the longest centroid axis, with leaves of up to four
/// boxes. The rank breaks ties between boxes hit at the same `t`. It is
/// the leaf order of the median-split BVH that cast DoV rays before this
/// grid, so ties resolve as they did there and pinned DoV tables keep
/// their bits.
fn rank_order(boxes: &[Aabb]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..boxes.len() as u32).collect();
    split(boxes, &mut order);
    order
}

/// Orders `order` (one subtree's boxes) into rank order in place.
fn split(boxes: &[Aabb], order: &mut [u32]) {
    const LEAF_SIZE: usize = 4;
    if order.len() <= LEAF_SIZE {
        return;
    }
    // Longest axis of the centroid bounds.
    let cbounds = order.iter().fold(Aabb::EMPTY, |a, &i| {
        a.union_point(boxes[i as usize].center())
    });
    let e = cbounds.extent();
    let axis = if e.x >= e.y && e.x >= e.z {
        0
    } else if e.y >= e.z {
        1
    } else {
        2
    };
    let lower = order.len() / 2;
    order.select_nth_unstable_by(lower, |&a, &b| {
        // total_cmp: degenerate boxes can have NaN centers, and a partial
        // comparator would break the partition invariant (or panic).
        boxes[a as usize].center()[axis].total_cmp(&boxes[b as usize].center()[axis])
    });
    // The upper (right) half ranks first. Rotating keeps each half's
    // internal order, so the recursive splits are those of an in-place
    // layout.
    order.rotate_left(lower);
    let (right, left) = order.split_at_mut(order.len() - lower);
    split(boxes, right);
    split(boxes, left);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdov_geom::Vec3;

    fn row_of_boxes(n: usize) -> Vec<Aabb> {
        (0..n)
            .map(|i| {
                let x = 10.0 + i as f64 * 10.0;
                Aabb::new(Vec3::new(x, -1.0, 0.0), Vec3::new(x + 2.0, 1.0, 5.0))
            })
            .collect()
    }

    #[test]
    fn hits_nearest_in_row() {
        let grid = ColumnGrid::build(&row_of_boxes(10), None);
        let ray = Ray::new(Vec3::new(0.0, 0.0, 1.0), Vec3::X);
        match grid.first_hit(&ray) {
            Hit::Object { index, t } => {
                assert_eq!(index, 0);
                assert!((t - 10.0).abs() < 1e-9);
            }
            other => panic!("expected object hit, got {other:?}"),
        }
    }

    #[test]
    fn occluded_boxes_not_reported() {
        let grid = ColumnGrid::build(&row_of_boxes(10), None);
        // From between box 4 and 5, looking forward: must see box 5, not 6+.
        let ray = Ray::new(Vec3::new(55.0, 0.0, 1.0), Vec3::X);
        match grid.first_hit(&ray) {
            Hit::Object { index, .. } => assert_eq!(index, 5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn miss_and_ground() {
        let grid = ColumnGrid::build(&row_of_boxes(3), Some(0.0));
        // Upward ray misses everything.
        assert_eq!(
            grid.first_hit(&Ray::new(Vec3::new(0.0, 0.0, 1.0), Vec3::Z)),
            Hit::Miss
        );
        // Downward ray hits the ground.
        match grid.first_hit(&Ray::new(Vec3::new(0.0, 50.0, 2.0), -Vec3::Z)) {
            Hit::Ground { t } => assert!((t - 2.0).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn degenerate_nan_box_is_never_hit() {
        // An empty box (a geometry-less object) has a NaN centre
        // (∞ + −∞), which makes every axis comparison unordered. The
        // median partition must stay total (total_cmp) so the rank order
        // neither panics nor misplaces the finite boxes, and the grid lists
        // no empty box.
        let mut boxes = row_of_boxes(9);
        assert!(Aabb::EMPTY.center().x.is_nan());
        boxes.insert(4, Aabb::EMPTY);
        let grid = ColumnGrid::build(&boxes, None);
        assert!(grid.items.iter().all(|item| item.index != 4));
        // Every finite box is still found first-hit from its own row slot.
        for (i, x) in (0..9).map(|i| (i, 10.0 + i as f64 * 10.0)) {
            let ray = Ray::new(Vec3::new(x - 1.0, 0.0, 1.0), Vec3::X);
            match grid.first_hit(&ray) {
                Hit::Object { index, t } => {
                    let want = if i < 4 { i } else { i + 1 } as u32;
                    assert_eq!(index, want, "box at x = {x}");
                    assert!((t - 1.0).abs() < 1e-9);
                }
                other => panic!("box at x = {x}: {other:?}"),
            }
        }
    }

    #[test]
    fn ground_occludes_distant_box() {
        // A shallow downward ray towards a distant box must stop at ground.
        let grid = ColumnGrid::build(&row_of_boxes(10), Some(0.0));
        let dir = Vec3::new(1.0, 0.0, -0.05).normalize_or_zero();
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.2), dir);
        // Ground hit at x = 4 (before the first box at x = 10).
        assert!(matches!(grid.first_hit(&ray), Hit::Ground { .. }));
    }

    #[test]
    fn without_ground_the_same_ray_hits_box() {
        let grid = ColumnGrid::build(&row_of_boxes(10), None);
        let dir = Vec3::new(1.0, 0.0, -0.05).normalize_or_zero();
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.2), dir);
        // No ground: the ray dips below z=0 but boxes start at z=0; it
        // misses all of them and escapes.
        assert_eq!(grid.first_hit(&ray), Hit::Miss);
    }

    #[test]
    fn origin_inside_box_reports_that_box() {
        let grid = ColumnGrid::build(&row_of_boxes(10), Some(0.0));
        let ray = Ray::new(Vec3::new(11.0, 0.0, 1.0), Vec3::X);
        match grid.first_hit(&ray) {
            Hit::Object { index, t } => {
                assert_eq!(index, 0);
                assert_eq!(t, 0.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equal_t_resolves_to_the_lowest_rank() {
        // Five copies of one box and a copy of its front face, so every
        // ray into the front face ties between six primitives.
        let b = Aabb::new(Vec3::new(10.0, 0.0, 0.0), Vec3::new(12.0, 4.0, 4.0));
        let face = Aabb::new(Vec3::new(10.0, 0.0, 0.0), Vec3::new(10.0, 4.0, 4.0));
        let mut boxes = vec![b; 5];
        boxes.push(face);
        boxes.extend(row_of_boxes(6));
        let order = rank_order(&boxes);
        let grid = ColumnGrid::build(&boxes, None);
        let ray = Ray::new(Vec3::new(0.0, 2.0, 2.0), Vec3::X);
        let lowest = *order.iter().find(|&&i| i < 6).unwrap();
        match grid.first_hit(&ray) {
            Hit::Object { index, t } => {
                assert_eq!(t, 10.0);
                assert_eq!(index, lowest);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ground_wins_a_tie_with_a_box() {
        // A ray that meets the ground exactly at a box's bottom edge.
        let boxes = vec![Aabb::new(
            Vec3::new(10.0, -1.0, 0.0),
            Vec3::new(12.0, 1.0, 5.0),
        )];
        let ray = Ray::new(Vec3::new(5.0, 0.0, 5.0), Vec3::new(1.0, 0.0, -1.0));
        assert_eq!(boxes[0].ray_hit(&ray), Some(5.0));
        let grid = ColumnGrid::build(&boxes, Some(0.0));
        assert_eq!(grid.first_hit(&ray), Hit::Ground { t: 5.0 });
        let no_ground = ColumnGrid::build(&boxes, None);
        assert_eq!(no_ground.first_hit(&ray), Hit::Object { index: 0, t: 5.0 });
    }

    #[test]
    fn rank_order_is_a_right_half_first_median_split() {
        // Ten boxes in a row along x: the upper five rank first, and within
        // each half the upper two or three; leaves of up to four keep their
        // order.
        let order = rank_order(&row_of_boxes(10));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert!(order[..5].iter().all(|&i| i >= 5), "{order:?}");
        assert!(order[5..].iter().all(|&i| i < 5), "{order:?}");
    }

    #[test]
    fn side_rule_gives_about_one_box_per_column() {
        // A 10×10 lattice of 5 m boxes at a 10 m pitch: 95 m × 95 m of
        // footprint over 100 boxes is a 9.5 m side, and the padding makes
        // that 11 columns a side.
        let boxes: Vec<Aabb> = (0..100)
            .map(|k| {
                let p = Vec3::new((k % 10) as f64 * 10.0, (k / 10) as f64 * 10.0, 0.0);
                Aabb::new(p, p + Vec3::new(5.0, 5.0, 8.0))
            })
            .collect();
        let grid = ColumnGrid::build(&boxes, Some(0.0));
        assert_eq!(grid.side, 9.5);
        assert_eq!(grid.cols, [11, 11]);
        // Each row and column of boxes fits one column but the last, which
        // reaches 0.2 µm into the padding column: 11 × 11 entries.
        assert_eq!(grid.items.len(), 121);
        // One box, no boxes, and footprints without area or extent all get
        // a finite, positive side.
        let post = Aabb::new(Vec3::new(3.0, 4.0, 0.0), Vec3::new(3.0, 4.0, 9.0));
        let wall = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(40.0, 0.0, 9.0));
        for boxes in [
            vec![],
            vec![boxes[0]],
            vec![post],
            vec![post; 3],
            vec![wall],
        ] {
            let grid = ColumnGrid::build(&boxes, Some(0.0));
            assert!(grid.side > 0.0 && grid.side.is_finite(), "{boxes:?}");
            assert!(grid.tops.len() <= 3 * boxes.len() + 2, "{boxes:?}");
        }
    }
}

/// The exactness oracle: the caster's answer by brute force, kept for
/// tests only.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Every box in rank order, tested with the slab test as it was written
    /// before [`SlabRay`] (a swap into entry/exit order) and kept on a
    /// strict `t <` update starting from the ground. The first box in rank
    /// order at the lowest `t` wins, and the ground wins a tie.
    pub(crate) struct Scan {
        /// `(box, index)` in rank order.
        boxes: Vec<(Aabb, u32)>,
        ground_z: Option<f64>,
    }

    impl Scan {
        pub(crate) fn new(boxes: &[Aabb], ground_z: Option<f64>) -> Self {
            let boxes = rank_order(boxes)
                .into_iter()
                .map(|i| (boxes[i as usize], i))
                .collect();
            Scan { boxes, ground_z }
        }

        pub(crate) fn first_hit(&self, ray: &Ray) -> Hit {
            let dir = [ray.dir.x, ray.dir.y, ray.dir.z];
            let inv = dir.map(|d| 1.0 / d);
            let mut best_t = f64::INFINITY;
            let mut best = None;
            let mut ground_t = None;
            if let Some(gz) = self.ground_z {
                if ray.dir.z < -1e-12 && ray.origin.z > gz {
                    let t = (gz - ray.origin.z) / ray.dir.z;
                    ground_t = Some(t);
                    best_t = t;
                }
            }
            for &(b, index) in &self.boxes {
                if let Some(t) = swap_form_hit(&b, ray, &dir, &inv) {
                    if t < best_t {
                        best_t = t;
                        best = Some(index);
                    }
                }
            }
            match (best, ground_t) {
                (Some(index), _) => Hit::Object { index, t: best_t },
                (None, Some(t)) => Hit::Ground { t },
                (None, None) => Hit::Miss,
            }
        }
    }

    /// One reciprocal per axis (`inv`, shared by every box), then a swap
    /// into entry/exit order.
    fn swap_form_hit(b: &Aabb, ray: &Ray, dir: &[f64; 3], inv: &[f64; 3]) -> Option<f64> {
        let mut t_min: f64 = 0.0;
        let mut t_max: f64 = f64::INFINITY;
        for axis in 0..3 {
            let origin = ray.origin[axis];
            let (lo, hi) = (b.min[axis], b.max[axis]);
            if dir[axis].abs() < hdov_geom::EPSILON {
                if origin < lo || origin > hi {
                    return None;
                }
            } else {
                let mut t0 = (lo - origin) * inv[axis];
                let mut t1 = (hi - origin) * inv[axis];
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                t_min = t_min.max(t0);
                t_max = t_max.min(t1);
                if t_min > t_max {
                    return None;
                }
            }
        }
        Some(t_min)
    }

    /// Asserts that `grid` returns the oracle's hit, `t` to the bit.
    pub(crate) fn assert_same(grid: &ColumnGrid, scan: &Scan, ray: &Ray) -> Hit {
        let (got, want) = (grid.first_hit(ray), scan.first_hit(ray));
        let key = |h: Hit| match h {
            Hit::Object { index, t } => (0, index, t.to_bits()),
            Hit::Ground { t } => (1, 0, t.to_bits()),
            Hit::Miss => (2, 0, 0),
        };
        assert_eq!(
            key(got),
            key(want),
            "{ray:?} (side {}): got {got:?}, want {want:?}",
            grid.side
        );
        got
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::oracle::{assert_same, Scan};
    use super::*;
    use crate::dov::sample_rays;
    use crate::{CellGridConfig, DovConfig};
    use hdov_geom::Vec3;
    use hdov_scene::CityConfig;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    /// Grids over `boxes` with the derived side and with sides from 3 m to
    /// wider than the scene.
    fn grids(boxes: &[Aabb], ground: Option<f64>) -> Vec<ColumnGrid> {
        let mut grids = vec![ColumnGrid::build(boxes, ground)];
        for side in [3.0, 7.5, 25.0, 1e4] {
            grids.push(ColumnGrid::with_side(boxes, ground, side));
        }
        grids
    }

    /// Checks every grid against the oracle on `ray`; returns the hit.
    fn check_all(grids: &[ColumnGrid], scan: &Scan, ray: &Ray) -> Hit {
        let want = scan.first_hit(ray);
        for grid in grids {
            assert_eq!(assert_same(grid, scan, ray), want);
        }
        want
    }

    #[test]
    fn random_rays_match_the_oracle() {
        let mut next = lcg(7);
        let boxes: Vec<Aabb> = (0..300)
            .map(|_| {
                let p = Vec3::new(next() * 100.0, next() * 100.0, 0.0);
                Aabb::new(
                    p,
                    p + Vec3::new(1.0 + next() * 8.0, 1.0 + next() * 8.0, next() * 30.0),
                )
            })
            .collect();
        for ground in [None, Some(0.0)] {
            let grids = grids(&boxes, ground);
            let scan = Scan::new(&boxes, ground);
            let mut hits = 0;
            for _ in 0..5_000 {
                let origin = Vec3::new(next() * 110.0 - 5.0, next() * 110.0 - 5.0, next() * 25.0);
                let Some(dir) = Vec3::new(next() - 0.5, next() - 0.5, next() - 0.5).try_normalize()
                else {
                    continue;
                };
                hits += usize::from(matches!(
                    check_all(&grids, &scan, &Ray::new(origin, dir)),
                    Hit::Object { .. }
                ));
            }
            assert!(hits > 1_000, "only {hits} hits");
        }
    }

    #[test]
    fn constructed_ties_match_the_oracle() {
        let mut boxes = Vec::new();
        // Duplicates: four copies of one box.
        let dup = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(10.0, 10.0, 10.0));
        boxes.extend([dup; 4]);
        // Abutting coplanar facades: a street front of unit-spaced boxes
        // sharing side faces and one front plane `y = 20`, across several
        // columns and both halves of several rank splits.
        for i in 0..24 {
            let x = i as f64 * 5.0;
            let h = 4.0 + (i % 3) as f64 * 4.0;
            boxes.push(Aabb::new(
                Vec3::new(x, 20.0, 0.0),
                Vec3::new(x + 5.0, 28.0, h),
            ));
        }
        // Nested boxes around (60, 60, 5): origins inside several.
        for k in 0..5 {
            let r = 2.0 + k as f64;
            boxes.push(Aabb::new(
                Vec3::new(60.0 - r, 60.0 - r, 0.0),
                Vec3::new(60.0 + r, 60.0 + r, 5.0 + r),
            ));
        }
        let with_ground = grids(&boxes, Some(0.0));
        let no_ground = grids(&boxes, None);
        let (scan, scan_no_ground) = (Scan::new(&boxes, Some(0.0)), Scan::new(&boxes, None));

        let mut rays = Vec::new();
        let mut next = lcg(11);
        // Into the facade plane, hitting shared edges exactly, from
        // straight on and at angles.
        for i in 0..=24 {
            let x = i as f64 * 5.0;
            for (dx, dz) in [
                (0.0, 0.0),
                (1e-12, 0.0),
                (-1e-10, 1e-13),
                (0.5, 0.25),
                (-1.0, 0.0),
            ] {
                rays.push(Ray::new(Vec3::new(x, 10.0, 4.0), Vec3::new(dx, 1.0, dz)));
                rays.push(Ray::new(
                    Vec3::new(x - dx * 10.0, 10.0, 8.0),
                    Vec3::new(dx, 1.0, dz),
                ));
            }
            // Along the front plane, grazing every facade's front face.
            rays.push(Ray::new(Vec3::new(-5.0, 20.0, 2.0), Vec3::X));
            rays.push(Ray::new(
                Vec3::new(x, 20.0, 4.0),
                Vec3::new(1.0, 0.0, 1e-12),
            ));
            // Down onto corners and top edges.
            rays.push(Ray::new(Vec3::new(x, 20.0, 40.0), -Vec3::Z));
            rays.push(Ray::new(
                Vec3::new(x - 3.0, 17.0, 11.0),
                Vec3::new(1.0, 1.0, -1.0),
            ));
        }
        // Duplicates from outside, through edges and corners, and from inside.
        for (o, d) in [
            (Vec3::new(-5.0, 5.0, 5.0), Vec3::X),
            (Vec3::new(-5.0, 0.0, 5.0), Vec3::X),
            (Vec3::new(-5.0, -5.0, 15.0), Vec3::new(1.0, 1.0, -1.0)),
            (Vec3::new(-5.0, 10.0, 10.0), Vec3::X),
            (Vec3::new(5.0, 5.0, 5.0), Vec3::new(0.3, 0.2, 0.1)),
            (Vec3::new(10.0, 10.0, 10.0), -Vec3::Z),
        ] {
            rays.push(Ray::new(o, d));
        }
        // Origins inside one or several of the nested boxes (t = 0).
        for _ in 0..200 {
            let o = Vec3::new(55.0 + next() * 10.0, 55.0 + next() * 10.0, next() * 12.0);
            let d = Vec3::new(next() - 0.5, next() - 0.5, next() - 0.5);
            rays.push(Ray::new(o, d));
        }
        // Down onto the ground at a box's base edge: box t equals ground t.
        for i in 0..24 {
            let x = i as f64 * 5.0;
            rays.push(Ray::new(
                Vec3::new(x + 2.5, 13.0, 7.0),
                Vec3::new(0.0, 1.0, -1.0),
            ));
            rays.push(Ray::new(
                Vec3::new(x - 4.0, 15.0, 4.0),
                Vec3::new(1.0, 1.25, -1.0),
            ));
        }

        let (mut zero_t, mut ground_ties) = (0, 0);
        for ray in &rays {
            for reversed in [*ray, Ray::new(ray.origin, -ray.dir)] {
                let hit = check_all(&with_ground, &scan, &reversed);
                check_all(&no_ground, &scan_no_ground, &reversed);
                zero_t += usize::from(matches!(hit, Hit::Object { t, .. } if t == 0.0));
                if let Hit::Ground { t } = hit {
                    ground_ties +=
                        usize::from(boxes.iter().any(|b| b.ray_hit(&reversed) == Some(t)));
                }
            }
        }
        assert!(zero_t > 100, "only {zero_t} rays start inside a box");
        assert!(ground_ties >= 24, "only {ground_ties} ground/box ties");
    }

    #[test]
    fn empty_and_one_box_scenes_match_the_oracle() {
        let mut next = lcg(3);
        let leaf: Vec<Aabb> = (0..4)
            .map(|i| {
                let x = i as f64 * 3.0;
                Aabb::new(
                    Vec3::new(x, 0.0, 0.0),
                    Vec3::new(x + 3.0, 2.0, 2.0 + i as f64),
                )
            })
            .collect();
        // A footprint without area: a post (no x–y extent) and a wall
        // (no y extent).
        let post = Aabb::new(Vec3::new(4.0, 1.0, 0.0), Vec3::new(4.0, 1.0, 3.0));
        let wall = Aabb::new(Vec3::new(0.0, 1.0, 0.0), Vec3::new(12.0, 1.0, 3.0));
        for boxes in [vec![], leaf[..1].to_vec(), leaf, vec![post], vec![wall]] {
            for ground in [None, Some(0.0)] {
                let grids = grids(&boxes, ground);
                let scan = Scan::new(&boxes, ground);
                for _ in 0..2_000 {
                    let o = Vec3::new(next() * 16.0 - 2.0, next() * 6.0 - 2.0, next() * 6.0);
                    let d = Vec3::new(next() - 0.5, next() - 0.5, next() - 0.5);
                    check_all(&grids, &scan, &Ray::new(o, d));
                    // Rays through the post or along the wall, some
                    // axis-parallel.
                    let d = [Vec3::X, Vec3::Y, -Vec3::Z, d][(next() * 4.0) as usize];
                    check_all(
                        &grids,
                        &scan,
                        &Ray::new(Vec3::new(4.0, 1.0, next() * 4.0), d),
                    );
                    check_all(&grids, &scan, &Ray::new(Vec3::new(-1.0, 1.0, 1.5), Vec3::X));
                }
            }
        }
    }

    /// A random 2.5-D city of about `n` boxes over a 120 m square: a
    /// lattice of abutting blocks (shared faces and coplanar fronts), free
    /// boxes of any size, towers, duplicates, and a few boxes floating
    /// above the ground.
    fn random_city(next: &mut impl FnMut() -> f64, n: usize) -> Vec<Aabb> {
        let mut boxes = Vec::new();
        let pitch = 5.0 + (next() * 10.0).floor();
        while boxes.len() < n {
            let kind = next();
            let (p, extent) = if kind < 0.4 {
                // A lattice block: grid-aligned, abutting its neighbours.
                let (i, j) = ((next() * 24.0).floor(), (next() * 24.0).floor());
                let p = Vec3::new(i * pitch, j * pitch, 0.0);
                (p, Vec3::new(pitch, pitch, (next() * 20.0).ceil()))
            } else if kind < 0.8 {
                let p = Vec3::new(next() * 120.0, next() * 120.0, 0.0);
                (p, Vec3::new(next() * 15.0, next() * 15.0, next() * 30.0))
            } else if kind < 0.9 {
                // A tower.
                let p = Vec3::new(next() * 120.0, next() * 120.0, 0.0);
                let h = 40.0 + next() * 60.0;
                (p, Vec3::new(2.0 + next() * 4.0, 2.0 + next() * 4.0, h))
            } else if kind < 0.95 && !boxes.is_empty() {
                // A duplicate of an earlier box.
                let b: Aabb = boxes[(next() * boxes.len() as f64) as usize];
                (b.min, b.extent())
            } else {
                // Floating above the ground.
                let p = Vec3::new(next() * 120.0, next() * 120.0, 5.0 + next() * 20.0);
                (p, Vec3::new(next() * 10.0, next() * 10.0, next() * 10.0))
            };
            boxes.push(Aabb::new(p, p + extent));
        }
        boxes
    }

    /// One adversarial ray over `boxes`.
    fn adversarial_ray(next: &mut impl FnMut() -> f64, boxes: &[Aabb]) -> Ray {
        let pick = |next: &mut dyn FnMut() -> f64| boxes[(next() * boxes.len() as f64) as usize];
        let corner = |next: &mut dyn FnMut() -> f64, b: Aabb| {
            Vec3::new(
                if next() < 0.5 { b.min.x } else { b.max.x },
                if next() < 0.5 { b.min.y } else { b.max.y },
                if next() < 0.5 { b.min.z } else { b.max.z },
            )
        };
        let origin = match (next() * 4.0) as usize {
            // Anywhere over the city, street level to above the towers.
            0 => Vec3::new(next() * 130.0 - 5.0, next() * 130.0 - 5.0, next() * 60.0),
            // On a box face.
            1 => {
                let b = pick(next);
                let mut p = Vec3::new(
                    b.min.x + next() * (b.max.x - b.min.x),
                    b.min.y + next() * (b.max.y - b.min.y),
                    b.min.z + next() * (b.max.z - b.min.z),
                );
                let axis = (next() * 3.0) as usize;
                let v = if next() < 0.5 {
                    b.min[axis]
                } else {
                    b.max[axis]
                };
                match axis {
                    0 => p.x = v,
                    1 => p.y = v,
                    _ => p.z = v,
                }
                p
            }
            // On a box corner.
            2 => {
                let b = pick(next);
                corner(next, b)
            }
            // Outside the footprint.
            _ => {
                let (a, r) = (next() * std::f64::consts::TAU, 130.0 + next() * 100.0);
                Vec3::new(60.0 + a.cos() * r, 60.0 + a.sin() * r, next() * 120.0)
            }
        };
        let mut dir = if next() < 0.3 {
            // Aimed at a box corner.
            let b = pick(next);
            corner(next, b) - origin
        } else {
            Vec3::new(next() - 0.5, next() - 0.5, next() - 0.5)
        };
        // Exact-zero and 1e-10 components (below the parallel threshold).
        for axis in 0..3 {
            let v = match (next() * 8.0) as usize {
                0 => 0.0,
                1 => 1e-10,
                2 => -1e-10,
                _ => continue,
            };
            match axis {
                0 => dir.x = v,
                1 => dir.y = v,
                _ => dir.z = v,
            }
        }
        Ray::new(origin, dir.try_normalize().unwrap_or(dir))
    }

    /// `rays` adversarial rays over each of `cities` random cities, every
    /// grid against the oracle; cities are spread over scoped threads.
    fn adversarial_sweep(cities: u64, rays: usize) {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let next_city = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let city = next_city.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if city >= cities {
                        break;
                    }
                    let mut next = lcg(1000 + city);
                    let n = 50 + (next() * 350.0) as usize;
                    let boxes = random_city(&mut next, n);
                    for ground in [Some(0.0), None] {
                        let grids = grids(&boxes, ground);
                        let scan = Scan::new(&boxes, ground);
                        for _ in 0..rays / 2 {
                            check_all(&grids, &scan, &adversarial_ray(&mut next, &boxes));
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn adversarial_rays_match_the_oracle() {
        adversarial_sweep(4, 2_000);
    }

    /// 40 cities, 4 M rays: run it in release,
    /// `cargo test --release -p hdov-visibility -- --ignored`.
    #[test]
    #[ignore]
    fn many_adversarial_rays_match_the_oracle() {
        adversarial_sweep(40, 100_000);
    }

    /// Every sample ray the estimator casts for `cells`×`cells` cells of
    /// `city` under `cfg`, through the grid the estimator builds; cells are
    /// spread over scoped threads.
    fn sweep_city(city: CityConfig, cells: usize, cfg: DovConfig) {
        let scene = city.generate();
        let grid = CellGridConfig::for_scene(&scene)
            .with_resolution(cells, cells)
            .build();
        let boxes: Vec<Aabb> = scene.objects().iter().map(|o| o.mbr).collect();
        let caster = ColumnGrid::build(&boxes, Some(0.0));
        let scan = Scan::new(&boxes, Some(0.0));
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let next_cell = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let cell = next_cell.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if cell >= grid.cell_count() {
                        break;
                    }
                    for (vp, dirs) in sample_rays(&grid, cell as crate::CellId, cfg) {
                        for d in dirs {
                            assert_same(&caster, &scan, &Ray::new(vp, d));
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn small_city_sample_rays_match_the_oracle() {
        let cfg = DovConfig {
            rays_per_viewpoint: 1024,
            viewpoints_per_cell: 3,
            ..Default::default()
        };
        sweep_city(CityConfig::small(), 8, cfg);
    }

    /// The mid city at the paper's sampling: 2.6 M rays, so run it in
    /// release: `cargo test --release -p hdov-visibility -- --ignored`.
    #[test]
    #[ignore]
    fn mid_city_sample_rays_match_the_oracle() {
        let cfg = DovConfig {
            rays_per_viewpoint: 2048,
            viewpoints_per_cell: 5,
            ..Default::default()
        };
        sweep_city(CityConfig::default_paper(), 16, cfg);
    }
}
