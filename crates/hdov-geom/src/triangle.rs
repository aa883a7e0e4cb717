//! Triangle primitives: area, normal, centroid and bounding box.

use crate::{Aabb, Vec3};

/// A triangle given by its three vertices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    /// First vertex.
    pub a: Vec3,
    /// Second vertex.
    pub b: Vec3,
    /// Third vertex.
    pub c: Vec3,
}

impl Triangle {
    /// Creates a triangle.
    #[inline]
    pub const fn new(a: Vec3, b: Vec3, c: Vec3) -> Self {
        Triangle { a, b, c }
    }

    /// Triangle area.
    #[inline]
    pub fn area(&self) -> f64 {
        (self.b - self.a).cross(self.c - self.a).length() * 0.5
    }

    /// (Unnormalized) geometric normal `(b-a) × (c-a)`.
    #[inline]
    pub fn normal(&self) -> Vec3 {
        (self.b - self.a).cross(self.c - self.a)
    }

    /// Centroid.
    #[inline]
    pub fn centroid(&self) -> Vec3 {
        (self.a + self.b + self.c) / 3.0
    }

    /// Bounding box.
    #[inline]
    pub fn aabb(&self) -> Aabb {
        Aabb::from_points([self.a, self.b, self.c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xy_triangle() -> Triangle {
        Triangle::new(
            Vec3::ZERO,
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(0.0, 2.0, 0.0),
        )
    }

    #[test]
    fn measures() {
        let t = xy_triangle();
        assert_eq!(t.area(), 2.0);
        assert!((t.normal().normalize_or_zero() - Vec3::Z).length() < 1e-12);
        assert!((t.centroid() - Vec3::new(2.0 / 3.0, 2.0 / 3.0, 0.0)).length() < 1e-12);
        assert_eq!(t.aabb().max, Vec3::new(2.0, 2.0, 0.0));
    }
}
