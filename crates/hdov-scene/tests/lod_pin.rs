//! Pins the LoD chains the QEM simplifier produces. Any change to quadric
//! set-up, candidate costs, the collapse order or the heap's tie-breaking
//! that moves one vertex (by one bit) or one index moves a digest below, so
//! a faster simplifier cannot drift silently.

use hdov_geom::Vec3;
use hdov_mesh::{generate, simplify, LodChain, TriMesh};
use hdov_scene::{CityConfig, PrototypeLibrary};

/// FNV-1a digest of every level of every chain of the benchmark's mid-city
/// prototype library (see [`benchmark_library`]).
const LIBRARY_DIGEST: u64 = 0xd601_af4b_0291_b960;

/// FNV-1a digest of [`degenerate_building`] simplified to each target of
/// [`DEGENERATE_TARGETS`].
const DEGENERATE_BUILDING_DIGEST: u64 = 0x2d8e_79c5_7307_f367;

const DEGENERATE_TARGETS: [usize; 5] = [2304, 1200, 500, 96, 0];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u32) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mesh(&mut self, mesh: &TriMesh) {
        self.eat(mesh.vertex_count() as u32);
        self.eat(mesh.triangle_count() as u32);
        for v in &mesh.vertices {
            v.iter().for_each(|c| self.eat(c.to_bits()));
        }
        for t in &mesh.indices {
            t.iter().for_each(|&i| self.eat(i));
        }
    }

    fn chains(&mut self, chains: &[LodChain]) {
        for chain in chains {
            self.eat(chain.len() as u32);
            for level in chain.levels() {
                self.mesh(&level.mesh);
            }
        }
    }
}

/// The prototype library the benchmark's mid city (walk-hot, teleport-cold,
/// walk-sharded) instances: the default prototype parameters at seed 2003.
fn benchmark_library() -> PrototypeLibrary {
    PrototypeLibrary::build(&CityConfig::default_paper().seed(2003).prototypes)
}

/// A three-tier building (2,304 triangles) with degenerate faces spliced
/// into its index list: two with a repeated corner and one with all three
/// corners equal. They count toward the simplifier's first budget check and
/// push candidates until they collapse fully.
fn degenerate_building() -> TriMesh {
    let mut mesh = generate::building(
        Vec3::new(-0.4, -0.45, 0.0),
        Vec3::new(0.4, 0.45, 0.0),
        1.0,
        8,
        5,
    );
    assert_eq!(mesh.triangle_count(), 2304);
    let [a, b, c] = mesh.indices[700];
    mesh.indices.insert(10, [a, a, b]);
    mesh.indices.insert(900, [c, b, b]);
    mesh.indices.insert(1500, [c, c, c]);
    mesh
}

#[test]
fn benchmark_prototype_library_is_pinned() {
    let lib = benchmark_library();
    assert_eq!(lib.len(), 15);
    let mut h = Fnv::new();
    h.chains(lib.chains());
    assert_eq!(h.0, LIBRARY_DIGEST, "prototype LoDs drifted: {:#018x}", h.0);
}

#[test]
fn building_with_degenerate_faces_is_pinned() {
    let mesh = degenerate_building();
    let mut h = Fnv::new();
    for target in DEGENERATE_TARGETS {
        let s = simplify(&mesh, target);
        assert!(s.triangle_count() <= target.max(4));
        h.mesh(&s);
    }
    assert_eq!(
        h.0, DEGENERATE_BUILDING_DIGEST,
        "degenerate-input LoDs drifted: {:#018x}",
        h.0
    );
}
