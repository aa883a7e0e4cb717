//! Axis-aligned bounding boxes — the `MBR` (minimum bounding rectangle,
//! here a 3-D box) stored in every HDoV-tree entry.

use crate::{Ray, SlabRay, Vec3};

/// An axis-aligned bounding box, defined by its minimum and maximum corners.
///
/// An `Aabb` is *valid* when `min <= max` component-wise. [`Aabb::EMPTY`] is
/// the identity of [`Aabb::union`] and reports `is_empty() == true`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// The empty box: union identity, contains nothing.
    pub const EMPTY: Aabb = Aabb {
        min: Vec3::splat(f64::INFINITY),
        max: Vec3::splat(f64::NEG_INFINITY),
    };

    /// Creates a box from corner points (components are min/max'ed, so the
    /// arguments need not be ordered).
    #[inline]
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Creates a box centred at `center` with half-extent `half`.
    #[inline]
    pub fn from_center_half_extent(center: Vec3, half: Vec3) -> Self {
        Aabb {
            min: center - half,
            max: center + half,
        }
    }

    /// The smallest box containing all `points`. Returns [`Aabb::EMPTY`] for
    /// an empty iterator.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Self {
        points
            .into_iter()
            .fold(Aabb::EMPTY, |acc, p| acc.union_point(p))
    }

    /// True if the box contains no points (any `min > max`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Box centre. Meaningless for empty boxes.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Extent (size) along each axis; zero vector for empty boxes.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        if self.is_empty() {
            Vec3::ZERO
        } else {
            self.max - self.min
        }
    }

    /// Volume of the box; 0 for empty boxes.
    #[inline]
    pub fn volume(&self) -> f64 {
        let e = self.extent();
        e.x * e.y * e.z
    }

    /// Surface area of the box; 0 for empty boxes.
    #[inline]
    pub fn surface_area(&self) -> f64 {
        let e = self.extent();
        2.0 * (e.x * e.y + e.y * e.z + e.z * e.x)
    }

    /// Half of the space diagonal — radius of the bounding sphere.
    #[inline]
    pub fn bounding_radius(&self) -> f64 {
        self.extent().length() * 0.5
    }

    /// Smallest box containing both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Smallest box containing `self` and the point `p`.
    #[inline]
    pub fn union_point(&self, p: Vec3) -> Aabb {
        Aabb {
            min: self.min.min(p),
            max: self.max.max(p),
        }
    }

    /// Intersection of two boxes; may be empty.
    #[inline]
    pub fn intersection(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.max(other.min),
            max: self.max.min(other.max),
        }
    }

    /// True if the boxes overlap (share at least one point).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// True if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// True if `other` lies entirely inside `self`. Every box (including
    /// `EMPTY`) contains the empty box.
    #[inline]
    pub fn contains(&self, other: &Aabb) -> bool {
        if other.is_empty() {
            return true;
        }
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.min.z <= other.min.z
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
            && self.max.z >= other.max.z
    }

    /// Extra volume created by enlarging `self` to cover `other`
    /// (Guttman's insertion criterion).
    #[inline]
    pub fn enlargement(&self, other: &Aabb) -> f64 {
        self.union(other).volume() - self.volume()
    }

    /// The eight corner points (or `min` repeated for degenerate boxes).
    pub fn corners(&self) -> [Vec3; 8] {
        let (lo, hi) = (self.min, self.max);
        [
            Vec3::new(lo.x, lo.y, lo.z),
            Vec3::new(hi.x, lo.y, lo.z),
            Vec3::new(lo.x, hi.y, lo.z),
            Vec3::new(hi.x, hi.y, lo.z),
            Vec3::new(lo.x, lo.y, hi.z),
            Vec3::new(hi.x, lo.y, hi.z),
            Vec3::new(lo.x, hi.y, hi.z),
            Vec3::new(hi.x, hi.y, hi.z),
        ]
    }

    /// Point inside the box closest to `p` (equals `p` when `p` is inside).
    #[inline]
    pub fn closest_point(&self, p: Vec3) -> Vec3 {
        p.max(self.min).min(self.max)
    }

    /// Euclidean distance from `p` to the box (0 when inside).
    #[inline]
    pub fn distance_to_point(&self, p: Vec3) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// Slab-test ray intersection: [`slab_hit`](Self::slab_hit) for a
    /// single test. Casting one ray against many boxes should prepare it
    /// once with [`SlabRay::new`] instead.
    #[inline]
    pub fn ray_hit(&self, ray: &Ray) -> Option<f64> {
        self.slab_hit(&SlabRay::new(ray))
    }

    /// Slab-test intersection with a prepared ray.
    ///
    /// Returns the entry parameter `t >= 0` (0 when the origin is inside the
    /// box), or `None` when the ray misses. An axis the ray runs parallel to
    /// (`|dir| < EPSILON`) only checks that the origin lies in that slab.
    /// An empty box ([`Aabb::EMPTY`], or any box with `min > max` on an
    /// axis) is never hit.
    ///
    /// Each slab bound is `(bound − origin) · (1 / dir)`, so a box hit by a
    /// ray is always entered no later than any box it contains.
    #[inline]
    pub fn slab_hit(&self, ray: &SlabRay) -> Option<f64> {
        self.slab_span(ray).map(|(t_min, _)| t_min)
    }

    /// The parameter interval `[t_min, t_max]` over which a prepared ray is
    /// inside the box, from the same slab test as
    /// [`slab_hit`](Self::slab_hit) (whose answer is `t_min`). `t_max` is
    /// `∞` when the ray runs parallel to every axis.
    ///
    /// Rounding is monotone in the bounds, so a box's interval contains the
    /// interval of every box inside it, bit for bit.
    #[inline]
    pub fn slab_span(&self, ray: &SlabRay) -> Option<(f64, f64)> {
        let mut t_min: f64 = 0.0;
        let mut t_max: f64 = f64::INFINITY;
        for axis in 0..3 {
            let origin = ray.origin[axis];
            let (lo, hi) = (self.min[axis], self.max[axis]);
            if ray.parallel[axis] {
                if origin < lo || origin > hi {
                    return None;
                }
            } else {
                let inv = ray.inv[axis];
                // A ray heading down the axis enters through `hi`.
                let (near, far) = if inv < 0.0 { (hi, lo) } else { (lo, hi) };
                t_min = t_min.max((near - origin) * inv);
                t_max = t_max.min((far - origin) * inv);
                if t_min > t_max {
                    return None;
                }
            }
        }
        Some((t_min, t_max))
    }

    /// Expands the box by `margin` on every side.
    #[inline]
    pub fn inflate(&self, margin: f64) -> Aabb {
        Aabb {
            min: self.min - Vec3::splat(margin),
            max: self.max + Vec3::splat(margin),
        }
    }
}

impl Default for Aabb {
    fn default() -> Self {
        Aabb::EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(1.0))
    }

    #[test]
    fn empty_behaviour() {
        assert!(Aabb::EMPTY.is_empty());
        assert_eq!(Aabb::EMPTY.volume(), 0.0);
        assert_eq!(Aabb::EMPTY.extent(), Vec3::ZERO);
        let u = Aabb::EMPTY.union(&unit());
        assert_eq!(u, unit());
        assert!(unit().contains(&Aabb::EMPTY));
    }

    #[test]
    fn construction_orders_corners() {
        let b = Aabb::new(Vec3::splat(1.0), Vec3::ZERO);
        assert_eq!(b.min, Vec3::ZERO);
        assert_eq!(b.max, Vec3::splat(1.0));
    }

    #[test]
    fn measures() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(b.volume(), 24.0);
        assert_eq!(b.surface_area(), 2.0 * (6.0 + 12.0 + 8.0));
        assert_eq!(b.center(), Vec3::new(1.0, 1.5, 2.0));
    }

    #[test]
    fn union_and_intersection() {
        let a = unit();
        let b = Aabb::new(Vec3::splat(0.5), Vec3::splat(2.0));
        let u = a.union(&b);
        assert_eq!(u, Aabb::new(Vec3::ZERO, Vec3::splat(2.0)));
        let i = a.intersection(&b);
        assert_eq!(i, Aabb::new(Vec3::splat(0.5), Vec3::splat(1.0)));
        let disjoint = Aabb::new(Vec3::splat(5.0), Vec3::splat(6.0));
        assert!(a.intersection(&disjoint).is_empty());
        assert!(!a.intersects(&disjoint));
        assert!(a.intersects(&b));
    }

    #[test]
    fn touching_boxes_intersect() {
        let a = unit();
        let b = Aabb::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 1.0));
        assert!(a.intersects(&b));
    }

    #[test]
    fn containment() {
        let big = Aabb::new(Vec3::ZERO, Vec3::splat(10.0));
        let small = Aabb::new(Vec3::splat(1.0), Vec3::splat(2.0));
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        assert!(big.contains_point(Vec3::splat(10.0)));
        assert!(!big.contains_point(Vec3::new(10.1, 0.0, 0.0)));
    }

    #[test]
    fn enlargement_positive() {
        let a = unit();
        let b = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        assert!(a.enlargement(&b) > 0.0);
        assert_eq!(a.enlargement(&a), 0.0);
    }

    #[test]
    fn from_points() {
        let pts = [Vec3::new(1.0, -1.0, 0.0), Vec3::new(-2.0, 3.0, 5.0)];
        let b = Aabb::from_points(pts);
        assert_eq!(b.min, Vec3::new(-2.0, -1.0, 0.0));
        assert_eq!(b.max, Vec3::new(1.0, 3.0, 5.0));
        assert!(Aabb::from_points(std::iter::empty()).is_empty());
    }

    #[test]
    fn closest_point_and_distance() {
        let b = unit();
        assert_eq!(b.closest_point(Vec3::splat(0.5)), Vec3::splat(0.5));
        assert_eq!(
            b.closest_point(Vec3::new(2.0, 0.5, 0.5)),
            Vec3::new(1.0, 0.5, 0.5)
        );
        assert_eq!(b.distance_to_point(Vec3::new(2.0, 0.5, 0.5)), 1.0);
        assert_eq!(b.distance_to_point(Vec3::splat(0.5)), 0.0);
    }

    #[test]
    fn ray_hits_box() {
        let b = unit();
        let r = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::X);
        assert!((b.ray_hit(&r).unwrap() - 1.0).abs() < 1e-12);
        // From inside: t = 0.
        let r2 = Ray::new(Vec3::splat(0.5), Vec3::X);
        assert_eq!(b.ray_hit(&r2), Some(0.0));
        // Miss.
        let r3 = Ray::new(Vec3::new(-1.0, 5.0, 0.5), Vec3::X);
        assert!(b.ray_hit(&r3).is_none());
        // Pointing away.
        let r4 = Ray::new(Vec3::new(-1.0, 0.5, 0.5), -Vec3::X);
        assert!(b.ray_hit(&r4).is_none());
    }

    #[test]
    fn ray_parallel_to_slab() {
        let b = unit();
        // Parallel to X inside the X slab.
        let r = Ray::new(Vec3::new(0.5, -1.0, 0.5), Vec3::Y);
        assert!(b.ray_hit(&r).is_some());
        // Parallel to X outside the X slab.
        let r2 = Ray::new(Vec3::new(2.0, -1.0, 0.5), Vec3::Y);
        assert!(b.ray_hit(&r2).is_none());
    }

    #[test]
    fn empty_box_is_never_hit() {
        // Generic direction: no axis is parallel, so every slab is tested.
        let dir = Vec3::new(0.3, -0.5, 0.8).normalize_or_zero();
        for origin in [Vec3::ZERO, Vec3::splat(-4.0), Vec3::new(1.0, 2.0, 3.0)] {
            let ray = Ray::new(origin, dir);
            assert_eq!(Aabb::EMPTY.ray_hit(&ray), None);
            assert_eq!(Aabb::EMPTY.ray_hit(&Ray::new(origin, -dir)), None);
        }
        let inverted = Aabb {
            min: Vec3::splat(1.0),
            max: Vec3::new(2.0, 0.0, 2.0),
        };
        assert_eq!(inverted.ray_hit(&Ray::new(Vec3::splat(-1.0), dir)), None);
    }

    #[test]
    fn corners_count() {
        let c = unit().corners();
        assert_eq!(c.len(), 8);
        let rebuilt = Aabb::from_points(c);
        assert_eq!(rebuilt, unit());
    }

    #[test]
    fn inflate() {
        let b = unit().inflate(1.0);
        assert_eq!(b.min, Vec3::splat(-1.0));
        assert_eq!(b.max, Vec3::splat(2.0));
    }
}
