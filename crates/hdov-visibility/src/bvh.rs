//! A first-hit ray caster over object bounding boxes.
//!
//! An in-memory BVH (median split on the longest centroid axis) answers
//! "which object does this ray see first?" in `O(log n)` — the core
//! primitive of the DoV estimator. A ground plane at `z = 0` terminates
//! downward rays so they cannot pass underneath the city.
//!
//! [`Bvh::first_hit`] walks nearest child first and returns the
//! lexicographic minimum of `(t, rank)` over the boxes the ray hits, where a
//! primitive's *rank* is its position in a right-child-first depth-first
//! walk of the tree; the ground plane wins a tie with any box. The rule
//! makes the answer independent of the walk order, so a faster walk returns
//! bit-identical hits.

use hdov_geom::{Aabb, Ray, SlabRay};

/// A tree node. Every node's primitives are the contiguous run
/// `order[start..end]`, and `order` is laid out in rank order, so `start`
/// is the lowest rank under the node.
#[derive(Debug)]
struct BvhNode {
    bounds: Aabb,
    start: u32,
    end: u32,
    /// An inner node's children are `nodes[c]` and `nodes[c + 1]`: the
    /// right child (upper half of the split, ranked first), then the left.
    /// `None` for a leaf.
    children: Option<u32>,
}

/// A static bounding-volume hierarchy over axis-aligned boxes.
#[derive(Debug)]
pub struct Bvh {
    nodes: Vec<BvhNode>,
    /// Primitive indices in rank order.
    order: Vec<u32>,
    boxes: Vec<Aabb>,
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

const LEAF_SIZE: usize = 4;

/// Traversal stack slots. A walk holds at most one pending sibling per
/// level plus the two children just pushed, so `depth + 2` slots suffice.
/// The median split halves every node, so a tree over fewer than `2^32`
/// primitives in leaves of up to four is at most 30 deep (`build` asserts
/// the bound).
const STACK: usize = 32;

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

    /// Whether a hit at `(t, rank)` beats the best. For a node entered at
    /// `t` whose lowest rank is `rank` this is the exact pruning test: a
    /// box is entered no earlier than any box containing it, so no
    /// primitive below a node that fails can beat the best either.
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

/// A fixed-size depth-first stack of `(node, entry t)`.
struct Stack {
    items: [(u32, f64); STACK],
    len: usize,
}

impl Stack {
    fn new() -> Self {
        Stack {
            items: [(0, 0.0); STACK],
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, node: u32, t: f64) {
        self.items[self.len] = (node, t);
        self.len += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<(u32, f64)> {
        self.len = self.len.checked_sub(1)?;
        Some(self.items[self.len])
    }
}

impl Bvh {
    /// Builds a BVH over `boxes`. Pass `ground_z = Some(0.0)` to model the
    /// city ground plane.
    pub fn build(boxes: Vec<Aabb>, ground_z: Option<f64>) -> Self {
        assert!(u32::try_from(boxes.len()).is_ok(), "BVH over 2^32 boxes");
        let mut order: Vec<u32> = (0..boxes.len() as u32).collect();
        let mut nodes = Vec::with_capacity(boxes.len().max(1) * 2);
        nodes.push(LEAF_SLOT);
        nodes[0] = build_rec(&boxes, &mut order, 0, boxes.len(), &mut nodes, 0);
        Bvh {
            nodes,
            order,
            boxes,
            ground_z,
        }
    }

    /// Number of primitives.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// True if the BVH indexes no primitives.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Where `ray` meets the ground plane, if one is configured and the
    /// ray heads down to it from above.
    fn ground_t(&self, ray: &Ray) -> Option<f64> {
        let gz = self.ground_z?;
        (ray.dir.z < -1e-12 && ray.origin.z > gz).then(|| (gz - ray.origin.z) / ray.dir.z)
    }

    /// Visits every primitive whose leaf box the ray can reach, passing the
    /// primitive index and its box-entry parameter, in right-child-first
    /// depth-first order. The callback may use a shrinking upper bound of
    /// its own; traversal prunes only against box entry distances.
    fn for_each_candidate(&self, ray: &SlabRay, mut visit: impl FnMut(u32, f64)) {
        let mut stack = Stack::new();
        stack.push(0, 0.0);
        while let Some((ni, _)) = stack.pop() {
            let node = &self.nodes[ni as usize];
            if node.bounds.slab_hit(ray).is_none() {
                continue;
            }
            match node.children {
                None => {
                    for &prim in &self.order[node.start as usize..node.end as usize] {
                        if let Some(t) = self.boxes[prim as usize].slab_hit(ray) {
                            visit(prim, t);
                        }
                    }
                }
                Some(right) => {
                    stack.push(right + 1, 0.0);
                    stack.push(right, 0.0);
                }
            }
        }
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
        let mut stack = Stack::new();
        if let Some(t) = self.nodes[0].bounds.slab_hit(&slab) {
            stack.push(0, t);
        }
        // Entry `t` of node `ni` when it could still beat the best.
        let enter = |ni: u32, best: &Best| {
            let node = &self.nodes[ni as usize];
            node.bounds
                .slab_hit(&slab)
                .filter(|&t| best.beaten_by(t, node.start))
        };
        while let Some((ni, entry)) = stack.pop() {
            let node = &self.nodes[ni as usize];
            if !best.beaten_by(entry, node.start) {
                continue;
            }
            match node.children {
                None => {
                    for rank in node.start..node.end {
                        let prim = self.order[rank as usize];
                        if let Some(t) = self.boxes[prim as usize].slab_hit(&slab) {
                            if best.beaten_by(t, rank) {
                                best = Best {
                                    t,
                                    rank,
                                    index: Some(prim),
                                };
                            }
                        }
                    }
                }
                // Push the farther child first so the nearer one is walked
                // first; on a tie the right child, which ranks first.
                Some(right) => match (enter(right + 1, &best), enter(right, &best)) {
                    (Some(tl), Some(tr)) if tl < tr => {
                        stack.push(right, tr);
                        stack.push(right + 1, tl);
                    }
                    (Some(tl), Some(tr)) => {
                        stack.push(right + 1, tl);
                        stack.push(right, tr);
                    }
                    (Some(t), None) => stack.push(right + 1, t),
                    (None, Some(t)) => stack.push(right, t),
                    (None, None) => {}
                },
            }
        }
        best.into_hit(ground_t)
    }
}

/// A placeholder node for a slot [`build_rec`] fills in.
const LEAF_SLOT: BvhNode = BvhNode {
    bounds: Aabb::EMPTY,
    start: 0,
    end: 0,
    children: None,
};

/// Builds the subtree over `order[start..end]` at `depth` and returns its
/// root, having appended its descendants to `nodes`. Each split puts the
/// upper (right) half first in `order`, so that positions in `order` are
/// ranks.
fn build_rec(
    boxes: &[Aabb],
    order: &mut [u32],
    start: usize,
    end: usize,
    nodes: &mut Vec<BvhNode>,
    depth: usize,
) -> BvhNode {
    assert!(depth + 2 <= STACK, "BVH deeper than its traversal stack");
    let bounds = order[start..end]
        .iter()
        .fold(Aabb::EMPTY, |a, &i| a.union(&boxes[i as usize]));
    let children = if end - start <= LEAF_SIZE {
        None
    } else {
        // Longest axis of the centroid bounds.
        let cbounds = order[start..end].iter().fold(Aabb::EMPTY, |a, &i| {
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
        let lower = (end - start) / 2;
        order[start..end].select_nth_unstable_by(lower, |&a, &b| {
            // total_cmp: degenerate boxes can have NaN centers, and a partial
            // comparator would break the partition invariant (or panic).
            boxes[a as usize].center()[axis].total_cmp(&boxes[b as usize].center()[axis])
        });
        // Rotating keeps each half's internal order, so the recursive
        // splits (and the tree) are those of an in-place layout.
        order[start..end].rotate_left(lower);
        let split = end - lower;
        // Siblings sit side by side: a walk tests both boxes together.
        let right = nodes.len();
        nodes.extend([LEAF_SLOT, LEAF_SLOT]);
        nodes[right] = build_rec(boxes, order, start, split, nodes, depth + 1);
        nodes[right + 1] = build_rec(boxes, order, split, end, nodes, depth + 1);
        Some(right as u32)
    };
    BvhNode {
        bounds,
        start: start as u32,
        end: end as u32,
        children,
    }
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

    /// Position of `prim` in the right-child-first walk.
    fn rank_of(bvh: &Bvh, prim: u32) -> usize {
        bvh.order.iter().position(|&p| p == prim).unwrap()
    }

    /// Linear scan applying the tie rule: the lowest `(t, rank)` among
    /// boxes hit before the ground, which wins ties.
    fn brute_force(bvh: &Bvh, ray: &Ray) -> Hit {
        let ground = bvh.ground_t(ray);
        let boxes = bvh.boxes.iter().enumerate();
        let best = boxes
            .filter_map(|(i, b)| {
                b.ray_hit(ray)
                    .map(|t| (t, rank_of(bvh, i as u32), i as u32))
            })
            .filter(|&(t, ..)| t < ground.unwrap_or(f64::INFINITY))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        match (best, ground) {
            (Some((t, _, index)), _) => Hit::Object { index, t },
            (None, Some(t)) => Hit::Ground { t },
            (None, None) => Hit::Miss,
        }
    }

    #[test]
    fn hits_nearest_in_row() {
        let bvh = Bvh::build(row_of_boxes(10), None);
        let ray = Ray::new(Vec3::new(0.0, 0.0, 1.0), Vec3::X);
        match bvh.first_hit(&ray) {
            Hit::Object { index, t } => {
                assert_eq!(index, 0);
                assert!((t - 10.0).abs() < 1e-9);
            }
            other => panic!("expected object hit, got {other:?}"),
        }
    }

    #[test]
    fn occluded_boxes_not_reported() {
        let bvh = Bvh::build(row_of_boxes(10), None);
        // From between box 4 and 5, looking forward: must see box 5, not 6+.
        let ray = Ray::new(Vec3::new(55.0, 0.0, 1.0), Vec3::X);
        match bvh.first_hit(&ray) {
            Hit::Object { index, .. } => assert_eq!(index, 5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn miss_and_ground() {
        let bvh = Bvh::build(row_of_boxes(3), Some(0.0));
        // Upward ray misses everything.
        assert_eq!(
            bvh.first_hit(&Ray::new(Vec3::new(0.0, 0.0, 1.0), Vec3::Z)),
            Hit::Miss
        );
        // Downward ray hits the ground.
        match bvh.first_hit(&Ray::new(Vec3::new(0.0, 50.0, 2.0), -Vec3::Z)) {
            Hit::Ground { t } => assert!((t - 2.0).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn degenerate_nan_box_does_not_poison_the_build() {
        // An empty box (a geometry-less object) has a NaN centre
        // (∞ + −∞), which makes every axis comparison unordered. The
        // median partition must stay total (total_cmp) so the build neither
        // panics nor misplaces the finite boxes around the pivot.
        let mut boxes = row_of_boxes(9);
        assert!(Aabb::EMPTY.center().x.is_nan());
        boxes.insert(4, Aabb::EMPTY);
        let bvh = Bvh::build(boxes, None);
        // Every finite box is still found first-hit from its own row slot.
        for (i, x) in (0..9).map(|i| (i, 10.0 + i as f64 * 10.0)) {
            let ray = Ray::new(Vec3::new(x - 1.0, 0.0, 1.0), Vec3::X);
            match bvh.first_hit(&ray) {
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
        let bvh = Bvh::build(row_of_boxes(10), Some(0.0));
        let dir = Vec3::new(1.0, 0.0, -0.05).normalize_or_zero();
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.2), dir);
        // Ground hit at x = 4 (before the first box at x = 10).
        assert!(matches!(bvh.first_hit(&ray), Hit::Ground { .. }));
    }

    #[test]
    fn without_ground_the_same_ray_hits_box() {
        let bvh = Bvh::build(row_of_boxes(10), None);
        let dir = Vec3::new(1.0, 0.0, -0.05).normalize_or_zero();
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.2), dir);
        // No ground: the ray dips below z=0 but boxes start at z=0; it
        // misses all of them and escapes.
        assert_eq!(bvh.first_hit(&ray), Hit::Miss);
    }

    #[test]
    fn origin_inside_box_reports_that_box() {
        let bvh = Bvh::build(row_of_boxes(10), Some(0.0));
        let ray = Ray::new(Vec3::new(11.0, 0.0, 1.0), Vec3::X);
        match bvh.first_hit(&ray) {
            Hit::Object { index, t } => {
                assert_eq!(index, 0);
                assert_eq!(t, 0.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_bvh_misses() {
        let bvh = Bvh::build(vec![], Some(0.0));
        assert!(bvh.is_empty());
        assert_eq!(
            bvh.first_hit(&Ray::new(Vec3::new(0.0, 0.0, 1.0), Vec3::X)),
            Hit::Miss
        );
    }

    #[test]
    fn agrees_with_brute_force() {
        // Pseudo-random boxes, pseudo-random rays: BVH vs linear scan.
        let mut s = 1234u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f64) / (u32::MAX as f64)
        };
        let boxes: Vec<Aabb> = (0..200)
            .map(|_| {
                let p = Vec3::new(next() * 100.0, next() * 100.0, next() * 20.0);
                Aabb::new(
                    p,
                    p + Vec3::new(1.0 + next() * 5.0, 1.0 + next() * 5.0, 1.0 + next() * 5.0),
                )
            })
            .collect();
        let bvh = Bvh::build(boxes, None);
        let mut hits = 0;
        for _ in 0..500 {
            let origin = Vec3::new(next() * 100.0, next() * 100.0, next() * 20.0);
            let dir = Vec3::new(next() - 0.5, next() - 0.5, next() - 0.5);
            let Some(dir) = dir.try_normalize() else {
                continue;
            };
            let ray = Ray::new(origin, dir);
            let want = brute_force(&bvh, &ray);
            assert_eq!(bvh.first_hit(&ray), want, "{ray:?}");
            hits += usize::from(matches!(want, Hit::Object { .. }));
        }
        assert!(hits > 100, "only {hits} of 500 rays hit a box");
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
        let bvh = Bvh::build(boxes, None);
        let ray = Ray::new(Vec3::new(0.0, 2.0, 2.0), Vec3::X);
        let lowest = (0..6).min_by_key(|&i| rank_of(&bvh, i)).unwrap();
        match bvh.first_hit(&ray) {
            Hit::Object { index, t } => {
                assert_eq!(t, 10.0);
                assert_eq!(index, lowest);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(bvh.first_hit(&ray), brute_force(&bvh, &ray));
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
        let bvh = Bvh::build(boxes.clone(), Some(0.0));
        assert_eq!(bvh.first_hit(&ray), Hit::Ground { t: 5.0 });
        let no_ground = Bvh::build(boxes, None);
        assert_eq!(no_ground.first_hit(&ray), Hit::Object { index: 0, t: 5.0 });
    }
}

/// The exactness oracle: the walk [`Bvh::first_hit`] replaced, kept for
/// tests only.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// The slab test as it was written before [`SlabRay`]: one division
    /// per axis, then a swap into entry/exit order.
    fn swap_form_hit(b: &Aabb, ray: &Ray) -> Option<f64> {
        let mut t_min: f64 = 0.0;
        let mut t_max: f64 = f64::INFINITY;
        for axis in 0..3 {
            let (origin, dir) = (ray.origin[axis], ray.dir[axis]);
            let (lo, hi) = (b.min[axis], b.max[axis]);
            if dir.abs() < hdov_geom::EPSILON {
                if origin < lo || origin > hi {
                    return None;
                }
            } else {
                let inv = 1.0 / dir;
                let mut t0 = (lo - origin) * inv;
                let mut t1 = (hi - origin) * inv;
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

    /// Unordered walk: a heap stack, children pushed left then right (so
    /// the right subtree is walked first), a leaf's primitives in `order`,
    /// and a strict `t <` update starting from the ground.
    pub(crate) fn first_hit_unordered(bvh: &Bvh, ray: &Ray) -> Hit {
        let mut best_t = f64::INFINITY;
        let mut best: Option<u32> = None;
        let mut ground_t = None;
        if let Some(gz) = bvh.ground_z {
            if ray.dir.z < -1e-12 && ray.origin.z > gz {
                let t = (gz - ray.origin.z) / ray.dir.z;
                ground_t = Some(t);
                best_t = t;
            }
        }
        let mut stack = vec![0];
        while let Some(ni) = stack.pop() {
            let node = &bvh.nodes[ni as usize];
            match node.children {
                None => {
                    if node.bounds.is_empty()
                        || swap_form_hit(&node.bounds, ray).is_none_or(|t| t >= best_t)
                    {
                        continue;
                    }
                    for &prim in &bvh.order[node.start as usize..node.end as usize] {
                        if let Some(t) = swap_form_hit(&bvh.boxes[prim as usize], ray) {
                            if t < best_t {
                                best_t = t;
                                best = Some(prim);
                            }
                        }
                    }
                }
                Some(right) => match swap_form_hit(&node.bounds, ray) {
                    Some(t) if t < best_t => {
                        stack.push(right + 1);
                        stack.push(right);
                    }
                    _ => {}
                },
            }
        }
        match best {
            Some(index) => Hit::Object { index, t: best_t },
            None => match ground_t {
                Some(t) => Hit::Ground { t },
                None => Hit::Miss,
            },
        }
    }

    /// Asserts that `first_hit` returns the oracle's hit, `t` to the bit.
    pub(crate) fn assert_same(bvh: &Bvh, ray: &Ray) -> Hit {
        let (got, want) = (bvh.first_hit(ray), first_hit_unordered(bvh, ray));
        let key = |h: Hit| match h {
            Hit::Object { index, t } => (0, index, t.to_bits()),
            Hit::Ground { t } => (1, 0, t.to_bits()),
            Hit::Miss => (2, 0, 0),
        };
        assert_eq!(key(got), key(want), "{ray:?}: got {got:?}, want {want:?}");
        got
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::oracle::assert_same;
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
            let bvh = Bvh::build(boxes.clone(), ground);
            let mut hits = 0;
            for _ in 0..5_000 {
                let origin = Vec3::new(next() * 110.0 - 5.0, next() * 110.0 - 5.0, next() * 25.0);
                let Some(dir) = Vec3::new(next() - 0.5, next() - 0.5, next() - 0.5).try_normalize()
                else {
                    continue;
                };
                hits += usize::from(matches!(
                    assert_same(&bvh, &Ray::new(origin, dir)),
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
        // sharing side faces and one front plane `y = 20`, in both halves
        // of several splits.
        for i in 0..24 {
            let x = i as f64 * 5.0;
            let h = 4.0 + (i % 3) as f64 * 4.0;
            boxes.push(Aabb::new(
                Vec3::new(x, 20.0, 0.0),
                Vec3::new(x + 5.0, 28.0, h),
            ));
        }
        // Overlapping boxes around (60, 60, 5): origins inside several.
        for k in 0..5 {
            let r = 2.0 + k as f64;
            boxes.push(Aabb::new(
                Vec3::new(60.0 - r, 60.0 - r, 0.0),
                Vec3::new(60.0 + r, 60.0 + r, 5.0 + r),
            ));
        }
        let bvh = Bvh::build(boxes.clone(), Some(0.0));
        let no_ground = Bvh::build(boxes.clone(), None);

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
                let hit = assert_same(&bvh, &reversed);
                assert_same(&no_ground, &reversed);
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
    fn empty_and_single_leaf_bvhs_match_the_oracle() {
        let mut next = lcg(3);
        let leaf: Vec<Aabb> = (0..LEAF_SIZE)
            .map(|i| {
                let x = i as f64 * 3.0;
                Aabb::new(
                    Vec3::new(x, 0.0, 0.0),
                    Vec3::new(x + 3.0, 2.0, 2.0 + i as f64),
                )
            })
            .collect();
        for boxes in [vec![], leaf[..1].to_vec(), leaf] {
            for ground in [None, Some(0.0)] {
                let bvh = Bvh::build(boxes.clone(), ground);
                assert_eq!(bvh.nodes.len(), 1);
                for _ in 0..2_000 {
                    let o = Vec3::new(next() * 16.0 - 2.0, next() * 6.0 - 2.0, next() * 6.0);
                    let d = Vec3::new(next() - 0.5, next() - 0.5, next() - 0.5);
                    assert_same(&bvh, &Ray::new(o, d));
                }
            }
        }
    }

    /// Every sample ray the estimator casts for `cells`×`cells` cells of
    /// `city` under `cfg`.
    fn sweep_city(city: CityConfig, cells: usize, cfg: DovConfig) {
        let scene = city.generate();
        let grid = CellGridConfig::for_scene(&scene)
            .with_resolution(cells, cells)
            .build();
        let bvh = Bvh::build(scene.objects().iter().map(|o| o.mbr).collect(), Some(0.0));
        for cell in 0..grid.cell_count() as crate::CellId {
            for (vp, dirs) in sample_rays(&grid, cell, cfg) {
                for d in dirs {
                    assert_same(&bvh, &Ray::new(vp, d));
                }
            }
        }
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

/// A triangle-level BVH for mesh-accurate visibility: each primitive is a
/// triangle tagged with its owning object.
///
/// Bounding boxes overestimate occlusion (a box blocks rays its mesh lets
/// through) *and* overestimate visibility (a box face is hit where the mesh
/// has a gap); [`TriBvh`] resolves both at higher build and query cost.
#[derive(Debug)]
pub struct TriBvh {
    bvh: Bvh,
    triangles: Vec<hdov_geom::Triangle>,
    owners: Vec<u32>,
}

impl TriBvh {
    /// Builds a triangle BVH from `(triangle, owner)` pairs. Pass
    /// `ground_z = Some(0.0)` to model the city ground plane.
    pub fn build(prims: Vec<(hdov_geom::Triangle, u32)>, ground_z: Option<f64>) -> Self {
        let boxes: Vec<Aabb> = prims.iter().map(|(t, _)| t.aabb()).collect();
        let (triangles, owners): (Vec<_>, Vec<_>) = prims.into_iter().unzip();
        TriBvh {
            bvh: Bvh::build(boxes, ground_z),
            triangles,
            owners,
        }
    }

    /// Number of triangles.
    pub fn len(&self) -> usize {
        self.triangles.len()
    }

    /// True if no triangles are indexed.
    pub fn is_empty(&self) -> bool {
        self.triangles.is_empty()
    }

    /// Casts `ray`, returning the owner of the first triangle hit.
    pub fn first_hit(&self, ray: &Ray) -> Hit {
        // Reuse the box BVH as a broad phase, but the nearest box hit is not
        // necessarily the nearest triangle hit, so walk candidates by exact
        // triangle intersection with a shrinking bound.
        let ground_t = self.bvh.ground_t(ray);
        let mut best = Best::new(ground_t);
        self.bvh
            .for_each_candidate(&SlabRay::new(ray), |prim, box_t| {
                if box_t >= best.t {
                    return;
                }
                if let Some(t) = self.triangles[prim as usize].ray_hit(ray) {
                    if t < best.t {
                        best.t = t;
                        best.index = Some(self.owners[prim as usize]);
                    }
                }
            });
        best.into_hit(ground_t)
    }
}

#[cfg(test)]
mod tribvh_tests {
    use super::*;
    use hdov_geom::{Triangle, Vec3};

    fn wall(x: f64, owner: u32) -> Vec<(Triangle, u32)> {
        // A 10x10 wall in the yz-plane at the given x, two triangles.
        let a = Vec3::new(x, -5.0, 0.0);
        let b = Vec3::new(x, 5.0, 0.0);
        let c = Vec3::new(x, 5.0, 10.0);
        let d = Vec3::new(x, -5.0, 10.0);
        vec![
            (Triangle::new(a, b, c), owner),
            (Triangle::new(a, c, d), owner),
        ]
    }

    #[test]
    fn nearest_wall_occludes_farther() {
        let mut prims = wall(10.0, 0);
        prims.extend(wall(20.0, 1));
        let bvh = TriBvh::build(prims, None);
        assert_eq!(bvh.len(), 4);
        let ray = Ray::new(Vec3::new(0.0, 0.0, 5.0), Vec3::X);
        match bvh.first_hit(&ray) {
            Hit::Object { index, t } => {
                assert_eq!(index, 0);
                assert!((t - 10.0).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ray_through_gap_hits_far_wall() {
        // Near wall with a gap: only the lower half is present.
        let a = Vec3::new(10.0, -5.0, 0.0);
        let b = Vec3::new(10.0, 5.0, 0.0);
        let c = Vec3::new(10.0, 5.0, 4.0);
        let d = Vec3::new(10.0, -5.0, 4.0);
        let mut prims = vec![(Triangle::new(a, b, c), 0), (Triangle::new(a, c, d), 0)];
        prims.extend(wall(20.0, 1));
        let bvh = TriBvh::build(prims, None);
        // A ray above the half wall passes the gap and hits wall 1 — a box
        // caster would have credited wall 0.
        let ray = Ray::new(Vec3::new(0.0, 0.0, 8.0), Vec3::X);
        match bvh.first_hit(&ray) {
            Hit::Object { index, .. } => assert_eq!(index, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ground_and_miss() {
        let bvh = TriBvh::build(wall(10.0, 0), Some(0.0));
        assert!(matches!(
            bvh.first_hit(&Ray::new(Vec3::new(0.0, 0.0, 5.0), Vec3::Z)),
            Hit::Miss
        ));
        assert!(matches!(
            bvh.first_hit(&Ray::new(Vec3::new(0.0, 50.0, 5.0), -Vec3::Z)),
            Hit::Ground { .. }
        ));
        assert!(!bvh.is_empty());
        let empty = TriBvh::build(vec![], None);
        assert!(empty.is_empty());
        assert!(matches!(
            empty.first_hit(&Ray::new(Vec3::ZERO, Vec3::X)),
            Hit::Miss
        ));
    }
}
