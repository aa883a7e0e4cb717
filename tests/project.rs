//! Project persistence round trips: saving the offline precomputation and
//! rebuilding identical environments from disk.

use hdov::prelude::*;
use hdov::project::Project;
use hdov::visibility::DovConfig;

fn tiny_project() -> Project {
    Project::create(
        CityConfig::tiny().seed(77),
        (3, 3),
        &DovConfig::fast_test(),
        2,
    )
}

#[test]
fn encode_decode_round_trip() {
    let p = tiny_project();
    let bytes = p.encode();
    let q = Project::decode(&bytes).expect("decode");
    assert_eq!(q.city.blocks_x, p.city.blocks_x);
    assert_eq!(q.city.seed, p.city.seed);
    assert_eq!(q.grid, p.grid);
    assert_eq!(q.table.cell_count(), p.table.cell_count());
    for c in 0..p.table.cell_count() as u32 {
        assert_eq!(q.table.cell(c), p.table.cell(c));
    }
    // Scene regeneration is deterministic.
    assert_eq!(q.scene().objects(), p.scene().objects());
}

#[test]
fn save_load_file_round_trip() {
    let p = tiny_project();
    let dir = std::env::temp_dir().join(format!("hdov_project_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.hdvp");
    p.save(&path).unwrap();
    let q = Project::load(&path).unwrap();
    assert_eq!(q.encode(), p.encode());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loaded_project_answers_identically() {
    let p = tiny_project();
    let bytes = p.encode();
    let q = Project::decode(&bytes).unwrap();

    let mut env_a = p
        .environment(HdovBuildConfig::fast_test(), StorageScheme::IndexedVertical)
        .unwrap();
    let mut env_b = q
        .environment(HdovBuildConfig::fast_test(), StorageScheme::IndexedVertical)
        .unwrap();
    let vp = p.scene().bounds().center();
    let ra = env_a.query(Query::new(env_a.cell_of(vp), 0.002)).unwrap().0;
    let rb = env_b.query(Query::new(env_b.cell_of(vp), 0.002)).unwrap().0;
    assert_eq!(ra.entries(), rb.entries());
    assert!(!ra.entries().is_empty());
}

#[test]
fn load_rejects_garbage() {
    assert!(Project::decode(&[]).is_none());
    assert!(Project::decode(b"not a project at all").is_none());
    let p = tiny_project();
    let mut bytes = p.encode();
    bytes.truncate(bytes.len() / 2);
    assert!(Project::decode(&bytes).is_none());
    // Wrong magic.
    let mut bad = p.encode();
    bad[0] = b'Z';
    assert!(Project::decode(&bad).is_none());
    // Load from a non-existent path errors.
    assert!(Project::load("/nonexistent/dir/file.hdvp").is_err());
}

mod fuzz {
    use hdov::project::Project;
    use hdov::visibility::DovTable;

    /// Deterministic pseudo-random byte soup must never panic or abort the
    /// decoders — only return None.
    #[test]
    fn decoders_survive_random_bytes() {
        let mut s = 0xDEADBEEFu64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as u8
        };
        for len in [0usize, 1, 7, 16, 64, 301, 4096] {
            for _ in 0..20 {
                let bytes: Vec<u8> = (0..len).map(|_| next()).collect();
                let _ = DovTable::decode(&bytes);
                let _ = Project::decode(&bytes);
                let _ = hdov::scene::store::decode_mesh(&bytes);
            }
        }
    }

    /// Flipping any single byte of a valid project must be rejected or
    /// decode to a structurally valid project — never crash.
    #[test]
    fn single_byte_flips_never_crash() {
        let p = Project::create(
            hdov::scene::CityConfig::tiny().seed(5),
            (2, 2),
            &hdov::visibility::DovConfig::fast_test(),
            2,
        );
        let bytes = p.encode();
        // Sample positions across the file (every 97th byte + the header).
        let positions: Vec<usize> = (0..bytes.len())
            .filter(|i| *i < 16 || i % 97 == 0)
            .collect();
        for &i in &positions {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xFF;
            if let Some(q) = Project::decode(&mutated) {
                // Accepting is fine as long as the result is structurally
                // sound enough to use.
                let _ = q.table.cell_count();
            }
        }
    }
}
