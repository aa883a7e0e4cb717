//! Quadric-error-metric mesh simplification (the *qslim* substitute).
//!
//! Implements Garland–Heckbert edge collapse: every vertex carries the sum of
//! the squared-distance quadrics of its incident face planes; edges are
//! collapsed cheapest-first (cost = quadric error at the best of three
//! candidate positions) until the triangle budget is met.
//!
//! Each vertex keeps a sorted list of its incident faces, so a collapse
//! visits only the faces around the merged vertex and keeps the live-face
//! count incrementally; stale heap entries are skipped by version stamps.
//! A collapse costs `O(k log E)` for a neighbourhood of `k` faces, and a mesh
//! `O(E log E)` for bounded vertex degree.
//!
//! **Tie order is part of the output.** Candidates compare by cost alone, so
//! equal costs (every collapse inside a flat facade costs 0) are broken by
//! the heap's layout, which the exact sequence of pushes fixes. A collapse
//! re-pushes the edges of the merged vertex's faces in ascending face index,
//! duplicates included; changing that sequence, or giving `Ord` a
//! tie-break, changes which of many equal-cost collapses wins and so moves
//! vertices of the result.

use crate::TriMesh;
use hdov_geom::Vec3;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// A symmetric 4×4 quadric `Q` stored as its 10 unique coefficients.
///
/// Error of placing a vertex at `v` is `vᵀ Q v` with `v = (x, y, z, 1)`.
#[derive(Debug, Clone, Copy, Default)]
struct Quadric {
    a: [f64; 10], // xx, xy, xz, xw, yy, yz, yw, zz, zw, ww
}

impl Quadric {
    /// Quadric of the plane `n·p + d = 0` (n unit).
    fn from_plane(n: Vec3, d: f64) -> Self {
        Quadric {
            a: [
                n.x * n.x,
                n.x * n.y,
                n.x * n.z,
                n.x * d,
                n.y * n.y,
                n.y * n.z,
                n.y * d,
                n.z * n.z,
                n.z * d,
                d * d,
            ],
        }
    }

    fn add(&mut self, o: &Quadric) {
        for i in 0..10 {
            self.a[i] += o.a[i];
        }
    }

    /// `vᵀ Q v` for `v = (p, 1)`.
    fn error(&self, p: Vec3) -> f64 {
        let [xx, xy, xz, xw, yy, yz, yw, zz, zw, ww] = self.a;
        xx * p.x * p.x
            + 2.0 * xy * p.x * p.y
            + 2.0 * xz * p.x * p.z
            + 2.0 * xw * p.x
            + yy * p.y * p.y
            + 2.0 * yz * p.y * p.z
            + 2.0 * yw * p.y
            + zz * p.z * p.z
            + 2.0 * zw * p.z
            + ww
    }
}

/// A queued collapse of `v1` into `v0`, valid while both vertices still
/// carry the stamps they had when it was pushed. Its placement is not
/// stored: equal stamps mean equal quadrics and positions, so
/// [`placement`] recomputes the same float on acceptance.
#[derive(Debug)]
struct Candidate {
    cost: f64,
    v0: u32,
    v1: u32,
    stamp0: u32,
    stamp1: u32,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
    }
}

/// Simplifies `mesh` down to at most `target_triangles` triangles.
///
/// The result is a compacted mesh. If the mesh already satisfies the budget,
/// a compacted copy is returned unchanged. A floor of 4 triangles is
/// enforced — every object keeps at least a tetrahedron-scale proxy, matching
/// the paper's "lowest LoD" which is never empty.
pub fn simplify(mesh: &TriMesh, target_triangles: usize) -> TriMesh {
    let target = target_triangles.max(4);
    let mut positions: Vec<Vec3> = mesh.vertices.iter().map(|&v| Vec3::from(v)).collect();
    let mut faces: Vec<[u32; 3]> = mesh.indices.clone();
    if faces.len() <= target {
        let mut out = mesh.clone();
        out.compact();
        return out;
    }

    // Union-find over collapsed vertices.
    let mut parent: Vec<u32> = (0..positions.len() as u32).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }

    let mut quadrics = vertex_quadrics(&positions, &faces);

    // Version stamps for lazy heap invalidation.
    let mut stamp: Vec<u32> = vec![0; positions.len()];
    let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
    let push_edge = |heap: &mut BinaryHeap<Candidate>,
                     quadrics: &[Quadric],
                     positions: &[Vec3],
                     stamp: &[u32],
                     v0: u32,
                     v1: u32| {
        heap.push(Candidate {
            cost: placement(quadrics, positions, v0, v1).1,
            v0,
            v1,
            stamp0: stamp[v0 as usize],
            stamp1: stamp[v1 as usize],
        });
    };

    // Initial edge set.
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    for &[a, b, c] in &faces {
        for (u, v) in [(a, b), (b, c), (c, a)] {
            let key = (u.min(v), u.max(v));
            if seen.insert(key) {
                push_edge(&mut heap, &quadrics, &positions, &stamp, key.0, key.1);
            }
        }
    }
    drop(seen);

    // Per root vertex, the ascending indices of the faces that have it among
    // their roots. Faces whose roots have all merged are dropped: they push
    // nothing and can never come back.
    let mut incident: Vec<Vec<u32>> = vec![Vec::new(); positions.len()];
    let mut live = 0;
    for (fi, &[a, b, c]) in faces.iter().enumerate() {
        incident[a as usize].push(fi as u32);
        if b != a {
            incident[b as usize].push(fi as u32);
        }
        if c != a && c != b {
            incident[c as usize].push(fi as u32);
        }
        live += usize::from(a != b && b != c && a != c);
    }

    // The first budget check counts degenerate input faces too; every later
    // one counts only faces with three distinct roots.
    let mut live_faces = faces.len();
    while live_faces > target {
        let Some(cand) = heap.pop() else { break };
        let r0 = find(&mut parent, cand.v0);
        let r1 = find(&mut parent, cand.v1);
        // Stale or already merged?
        if r0 == r1
            || r0 != cand.v0
            || r1 != cand.v1
            || stamp[r0 as usize] != cand.stamp0
            || stamp[r1 as usize] != cand.stamp1
        {
            continue;
        }
        // Collapse v1 into v0 at the target position.
        let (target_pos, _) = placement(&quadrics, &positions, r0, r1);
        parent[r1 as usize] = r0;
        positions[r0 as usize] = target_pos;
        let q1 = quadrics[r1 as usize];
        quadrics[r0 as usize].add(&q1);
        stamp[r0 as usize] += 1;

        // The faces now touching r0 are exactly those of r0's and r1's
        // lists: merge them in ascending face order and re-push each face's
        // edges. A live face on both lists loses a corner and dies.
        let l0 = std::mem::take(&mut incident[r0 as usize]);
        let l1 = std::mem::take(&mut incident[r1 as usize]);
        let mut merged = Vec::with_capacity(l0.len() + l1.len());
        let (mut i, mut j) = (0, 0);
        while i < l0.len() || j < l1.len() {
            // Face indices fit below the exhausted list's sentinel.
            let a = l0.get(i).copied().unwrap_or(u32::MAX);
            let b = l1.get(j).copied().unwrap_or(u32::MAX);
            let (fi, shared) = (a.min(b), a == b);
            i += usize::from(a == fi);
            j += usize::from(b == fi);
            let f = faces[fi as usize];
            let roots = [
                find(&mut parent, f[0]),
                find(&mut parent, f[1]),
                find(&mut parent, f[2]),
            ];
            if roots[0] == roots[1] && roots[1] == roots[2] {
                continue;
            }
            // A shared face that keeps two distinct roots had three before.
            live -= usize::from(shared);
            for (u, v) in [
                (roots[0], roots[1]),
                (roots[1], roots[2]),
                (roots[2], roots[0]),
            ] {
                if u != v {
                    push_edge(&mut heap, &quadrics, &positions, &stamp, u.min(v), u.max(v));
                }
            }
            merged.push(fi);
        }
        incident[r0 as usize] = merged;
        live_faces = live;
    }

    // Emit the simplified mesh.
    for f in &mut faces {
        for i in f {
            *i = find(&mut parent, *i);
        }
    }
    let mut out = TriMesh {
        vertices: positions
            .iter()
            .map(|p| [p.x as f32, p.y as f32, p.z as f32])
            .collect(),
        indices: faces,
    };
    out.compact();
    out
}

/// The placement for collapsing `v1` into `v0` and its quadric error: the
/// cheapest of the midpoint and the two endpoints (a robust alternative to
/// inverting `Q`, cf. Garland–Heckbert §4).
fn placement(quadrics: &[Quadric], positions: &[Vec3], v0: u32, v1: u32) -> (Vec3, f64) {
    let mut q = quadrics[v0 as usize];
    q.add(&quadrics[v1 as usize]);
    let (p0, p1) = (positions[v0 as usize], positions[v1 as usize]);
    let mid = (p0 + p1) * 0.5;
    let (mut best, mut best_cost) = (mid, q.error(mid));
    for cand in [p0, p1] {
        let c = q.error(cand);
        if c < best_cost {
            best = cand;
            best_cost = c;
        }
    }
    (best, best_cost)
}

/// Per-vertex quadrics: the area-weighted planes of the incident faces,
/// plus a border constraint per edge used by exactly one face.
fn vertex_quadrics(positions: &[Vec3], faces: &[[u32; 3]]) -> Vec<Quadric> {
    let mut quadrics: Vec<Quadric> = vec![Quadric::default(); positions.len()];
    for &[a, b, c] in faces {
        let (pa, pb, pc) = (
            positions[a as usize],
            positions[b as usize],
            positions[c as usize],
        );
        let n = (pb - pa).cross(pc - pa);
        let len = n.length();
        if len < 1e-12 {
            continue;
        }
        let n = n / len;
        let q = Quadric::from_plane(n, -n.dot(pa));
        // Area weighting stabilizes collapse order.
        let mut qw = q;
        for x in &mut qw.a {
            *x *= len * 0.5;
        }
        quadrics[a as usize].add(&qw);
        quadrics[b as usize].add(&qw);
        quadrics[c as usize].add(&qw);
    }

    // Boundary constraints: for every edge used by exactly one face, add a
    // high-weight quadric for the plane through the edge perpendicular to
    // the face, so open boundaries resist being pulled inward
    // (Garland–Heckbert's standard treatment of border edges). Edges are
    // visited in first-seen face order: float addition is not associative,
    // so summing them in hash order would make open meshes simplify
    // differently from call to call.
    let mut edge_faces: HashMap<(u32, u32), (u32, usize)> = HashMap::new();
    let mut first_seen: Vec<(u32, u32)> = Vec::new();
    for (fi, &[a, b, c]) in faces.iter().enumerate() {
        for (u, v) in [(a, b), (b, c), (c, a)] {
            let key = (u.min(v), u.max(v));
            edge_faces
                .entry(key)
                .or_insert_with(|| {
                    first_seen.push(key);
                    (0, fi)
                })
                .0 += 1;
        }
    }
    for (u, v) in first_seen {
        let (count, fi) = edge_faces[&(u, v)];
        if count != 1 {
            continue;
        }
        let [a, b, c] = faces[fi];
        let (pa, pb, pc) = (
            positions[a as usize],
            positions[b as usize],
            positions[c as usize],
        );
        let face_n = (pb - pa).cross(pc - pa).normalize_or_zero();
        let (pu, pv) = (positions[u as usize], positions[v as usize]);
        let edge = pv - pu;
        let elen = edge.length();
        if elen < 1e-12 {
            continue;
        }
        let n = edge.cross(face_n).normalize_or_zero();
        if n == Vec3::ZERO {
            continue;
        }
        let mut q = Quadric::from_plane(n, -n.dot(pu));
        // Strong weight so boundary collapse along the border stays free
        // but movement off the border is expensive.
        for x in &mut q.a {
            *x *= elen * elen * 100.0;
        }
        quadrics[u as usize].add(&q);
        quadrics[v as usize].add(&q);
    }
    quadrics
}

/// Convenience: simplifies to a fraction of the original triangle count.
pub fn simplify_to_fraction(mesh: &TriMesh, fraction: f64) -> TriMesh {
    assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
    let target = (mesh.triangle_count() as f64 * fraction).round() as usize;
    simplify(mesh, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn no_op_below_target() {
        let m = generate::box_mesh(Vec3::ZERO, Vec3::splat(1.0));
        let s = simplify(&m, 100);
        assert_eq!(s.triangle_count(), 12);
    }

    #[test]
    fn reaches_target_on_sphere() {
        let m = generate::icosphere(1.0, 3); // 1280 faces
        let s = simplify(&m, 100);
        assert!(s.triangle_count() <= 100, "got {}", s.triangle_count());
        assert!(s.triangle_count() >= 4);
    }

    #[test]
    fn output_stays_near_original_bounds() {
        let m = generate::icosphere(2.0, 3);
        let s = simplify(&m, 60);
        let bb = s.aabb();
        let orig = m.aabb().inflate(1e-3);
        assert!(orig.contains(&bb), "simplified mesh escaped bounds: {bb:?}");
    }

    #[test]
    fn sphere_stays_roughly_spherical() {
        let m = generate::icosphere(1.0, 3);
        let s = simplify(&m, 150);
        for v in &s.vertices {
            let r = Vec3::from(*v).length();
            assert!(r > 0.5 && r < 1.2, "r = {r}");
        }
    }

    #[test]
    fn simplify_tessellated_box_keeps_shape() {
        let m = generate::tessellated_box(Vec3::ZERO, Vec3::splat(4.0), 8);
        let s = simplify(&m, 50);
        assert!(s.triangle_count() <= 50);
        // Surface area shouldn't collapse to zero.
        assert!(s.surface_area() > 0.3 * m.surface_area());
    }

    #[test]
    fn fraction_helper() {
        let m = generate::icosphere(1.0, 2); // 320
        let s = simplify_to_fraction(&m, 0.25);
        assert!(s.triangle_count() <= 80);
    }

    #[test]
    fn deterministic() {
        for m in [generate::icosphere(1.0, 2), open_box()] {
            let first = simplify(&m, 64);
            for _ in 1..20 {
                assert_eq!(simplify(&m, 64), first);
            }
        }
    }

    /// A perturbed tessellated box without its bottom face (emitted
    /// first), so the bottom rim is a border.
    fn open_box() -> TriMesh {
        use hdov_geom::sampling::SplitMix64;
        let div = 6;
        let mut m = generate::tessellated_box(Vec3::ZERO, Vec3::splat(4.0), div);
        m.indices.drain(..2 * div * div);
        let mut rng = SplitMix64::new(9);
        for v in &mut m.vertices {
            for c in v {
                *c += (rng.next_f64() * 0.02 - 0.01) as f32;
            }
        }
        m
    }

    /// Border quadrics are summed in a fixed order: summed in hash order,
    /// nearly every call on this mesh got different quadric bits.
    #[test]
    fn border_quadrics_are_deterministic() {
        let m = open_box();
        let positions: Vec<Vec3> = m.vertices.iter().map(|&v| Vec3::from(v)).collect();
        let bits = || -> Vec<u64> {
            vertex_quadrics(&positions, &m.indices)
                .iter()
                .flat_map(|q| q.a.map(f64::to_bits))
                .collect()
        };
        let first = bits();
        for _ in 1..20 {
            assert!(bits() == first, "border quadrics differ between calls");
        }
    }

    #[test]
    fn minimum_floor_enforced() {
        let m = generate::icosphere(1.0, 1);
        let s = simplify(&m, 0);
        assert_eq!(s.triangle_count(), 4);
        assert!(!s.is_empty());
    }
}
