//! Rays, used by the Monte-Carlo degree-of-visibility sampler.

use crate::Vec3;

/// A half-line `origin + t * dir`, `t >= 0`.
///
/// `dir` is not required to be unit length, but the DoV sampler always
/// normalizes directions so that hit parameters compare as distances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Start point.
    pub origin: Vec3,
    /// Direction (conventionally unit length).
    pub dir: Vec3,
}

impl Ray {
    /// Creates a ray.
    #[inline]
    pub const fn new(origin: Vec3, dir: Vec3) -> Self {
        Ray { origin, dir }
    }

    /// Creates a ray pointing from `origin` towards `target`.
    ///
    /// Returns `None` when the points coincide.
    #[inline]
    pub fn towards(origin: Vec3, target: Vec3) -> Option<Self> {
        (target - origin)
            .try_normalize()
            .map(|dir| Ray { origin, dir })
    }

    /// Point at parameter `t`.
    #[inline]
    pub fn at(&self, t: f64) -> Vec3 {
        self.origin + self.dir * t
    }
}

/// A ray prepared for many box tests: the reciprocal direction and the
/// per-axis "parallel" flags are computed once, so that each
/// [`Aabb::slab_hit`](crate::Aabb::slab_hit) only subtracts, multiplies and
/// compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlabRay {
    /// Start point, per axis.
    pub(crate) origin: [f64; 3],
    /// `1 / dir` per axis (unused where `parallel`).
    pub(crate) inv: [f64; 3],
    /// `|dir| < EPSILON` per axis: the ray stays in the slab it starts in.
    pub(crate) parallel: [bool; 3],
}

impl SlabRay {
    /// Prepares `ray` for slab tests.
    #[inline]
    pub fn new(ray: &Ray) -> Self {
        let (o, d) = (ray.origin, ray.dir);
        let parallel = [d.x, d.y, d.z].map(|c| c.abs() < crate::EPSILON);
        SlabRay {
            origin: [o.x, o.y, o.z],
            inv: [1.0 / d.x, 1.0 / d.y, 1.0 / d.z],
            parallel,
        }
    }

    /// Start point, per axis.
    #[inline]
    pub fn origin(&self) -> [f64; 3] {
        self.origin
    }

    /// `1 / dir` per axis (meaningless where [`parallel`](Self::parallel)).
    #[inline]
    pub fn inv(&self) -> [f64; 3] {
        self.inv
    }

    /// Per axis, whether the ray counts as parallel to it (`|dir| <
    /// EPSILON`): slab tests keep it in the slab it starts in.
    #[inline]
    pub fn parallel(&self) -> [bool; 3] {
        self.parallel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_parameter() {
        let r = Ray::new(Vec3::ZERO, Vec3::X);
        assert_eq!(r.at(0.0), Vec3::ZERO);
        assert_eq!(r.at(2.5), Vec3::new(2.5, 0.0, 0.0));
    }

    #[test]
    fn towards_normalizes() {
        let r = Ray::towards(Vec3::ZERO, Vec3::new(0.0, 3.0, 4.0)).unwrap();
        assert!((r.dir.length() - 1.0).abs() < 1e-12);
        assert!(Ray::towards(Vec3::X, Vec3::X).is_none());
    }
}
