//! Property-based tests of the geometry substrate.

use hdov_geom::{solid_angle, Aabb, Ray, Vec3};
use proptest::prelude::*;

fn vec3() -> impl Strategy<Value = Vec3> {
    (-1e3..1e3f64, -1e3..1e3f64, -1e3..1e3f64).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn aabb() -> impl Strategy<Value = Aabb> {
    (vec3(), vec3()).prop_map(|(a, b)| Aabb::new(a, b))
}

proptest! {
    #[test]
    fn union_contains_both(a in aabb(), b in aabb()) {
        let u = a.union(&b);
        prop_assert!(u.contains(&a));
        prop_assert!(u.contains(&b));
        // Union is commutative and idempotent.
        prop_assert_eq!(u, b.union(&a));
        prop_assert_eq!(u.union(&a), u);
    }

    #[test]
    fn intersection_contained_in_both(a in aabb(), b in aabb()) {
        let i = a.intersection(&b);
        if !i.is_empty() {
            prop_assert!(a.contains(&i));
            prop_assert!(b.contains(&i));
            prop_assert!(a.intersects(&b));
        } else {
            prop_assert!(!a.intersects(&b) || i.volume() == 0.0);
        }
    }

    #[test]
    fn enlargement_non_negative(a in aabb(), b in aabb()) {
        prop_assert!(a.enlargement(&b) >= -1e-6);
    }

    #[test]
    fn closest_point_is_inside_and_nearest_cornerwise(bb in aabb(), p in vec3()) {
        let c = bb.closest_point(p);
        prop_assert!(bb.contains_point(c));
        // No corner is closer than the closest point.
        let d = c.distance(p);
        for corner in bb.corners() {
            prop_assert!(d <= corner.distance(p) + 1e-9);
        }
    }

    #[test]
    fn ray_hit_point_lies_on_boundary_or_inside(bb in aabb(), origin in vec3(), dir in vec3()) {
        prop_assume!(dir.length() > 1e-6);
        let ray = Ray::new(origin, dir.normalize_or_zero());
        if let Some(t) = bb.ray_hit(&ray) {
            let hit = ray.at(t);
            // Hit point is on the (slightly inflated) box.
            prop_assert!(bb.inflate(1e-6 * (1.0 + hit.length())).contains_point(hit));
        }
    }

    #[test]
    fn dot_product_symmetry_and_cauchy_schwarz(a in vec3(), b in vec3()) {
        prop_assert!((a.dot(b) - b.dot(a)).abs() < 1e-9);
        prop_assert!(a.dot(b).abs() <= a.length() * b.length() + 1e-6);
    }

    #[test]
    fn cross_product_orthogonal(a in vec3(), b in vec3()) {
        let c = a.cross(b);
        let scale = a.length() * b.length();
        prop_assume!(scale > 1e-6);
        prop_assert!(c.dot(a).abs() / scale < 1e-6);
        prop_assert!(c.dot(b).abs() / scale < 1e-6);
    }

    #[test]
    fn normalized_vectors_are_unit(v in vec3()) {
        prop_assume!(v.length() > 1e-6);
        let n = v.try_normalize().unwrap();
        prop_assert!((n.length() - 1.0).abs() < 1e-9);
        // Direction preserved.
        prop_assert!(n.dot(v) > 0.0);
    }

    #[test]
    fn sphere_solid_angle_bounds(r in 0.01..100.0f64, d in 0.01..1000.0f64) {
        let omega = solid_angle::sphere_solid_angle(r, d);
        prop_assert!(omega >= 0.0);
        prop_assert!(omega <= solid_angle::FULL_SPHERE + 1e-12);
        // The DoV bound never exceeds 0.5 for outside viewpoints... it can
        // exceed 0.5 only when d < r·sqrt(2); check the hard cap instead.
        prop_assert!(solid_angle::steradians_to_dov(omega) <= 1.0);
    }

    #[test]
    fn fibonacci_directions_unit_and_distinct(n in 2usize..300) {
        let dirs = hdov_geom::sampling::fibonacci_sphere(n);
        prop_assert_eq!(dirs.len(), n);
        for d in &dirs {
            prop_assert!((d.length() - 1.0).abs() < 1e-9);
        }
        prop_assert!(dirs[0] != dirs[n / 2] || n == 1);
    }
}

proptest! {
    #[test]
    fn frustum_classifies_its_own_interior_points(
        eye in vec3(),
        dir in vec3(),
        fov in 0.3..2.5f64,
        aspect in 0.4..3.0f64,
        near in 0.1..5.0f64,
        depth in 1.0..500.0f64,
        // Barycentric-ish interior coordinates.
        t in 0.05..0.95f64,
        u in -0.9..0.9f64,
        v in -0.9..0.9f64,
    ) {
        prop_assume!(dir.length() > 1e-3);
        prop_assume!(dir.cross(Vec3::Z).length() > 1e-3);
        let f = hdov_geom::Frustum::new(eye, dir, Vec3::Z, fov, aspect, near, near + depth);
        // Construct a point analytically inside the frustum.
        let d = f.dir;
        let right = d.cross(f.up);
        let dist = near + t * depth;
        let half_y = (fov / 2.0).tan() * dist;
        let half_x = half_y * aspect;
        let p = eye + d * dist + right * (u * half_x) + f.up * (v * half_y);
        prop_assert!(f.contains_point(p), "interior point misclassified: {p}");
        // The same point is inside the frustum's bounding box.
        prop_assert!(f.bounding_box().inflate(1e-6 * (1.0 + p.length())).contains_point(p));
        // A point far behind the eye is outside.
        prop_assert!(!f.contains_point(eye - d * (near + 1.0)));
    }

    #[test]
    fn frustum_box_test_is_conservative(
        eye in vec3(),
        center in vec3(),
        half in 0.5..50.0f64,
    ) {
        prop_assume!(eye.distance(center) > 1.0);
        let Some(dir) = (center - eye).try_normalize() else {
            return Ok(());
        };
        prop_assume!(dir.cross(Vec3::Z).length() > 1e-3);
        let f = hdov_geom::Frustum::new(eye, dir, Vec3::Z, 1.0, 1.0, 0.1, 1e5);
        let bb = Aabb::from_center_half_extent(center, Vec3::splat(half));
        // The frustum looks straight at the box centre: the test must
        // report an intersection (conservative never-miss direction).
        prop_assert!(f.intersects_aabb(&bb));
    }
}
