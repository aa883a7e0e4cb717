//! The paged model store: heavy-weight LoD geometry laid out on disk.
//!
//! Each model (an object's LoD chain, or an internal-LoD chain in
//! `hdov-core`) is written level-by-level into contiguous pages, so fetching
//! one level costs one random positioning plus a sequential run — the
//! "heavy-weighted model data" I/O of the paper's Fig. 8(a).

use hdov_geom::Vec3;
use hdov_mesh::{LodChain, TriMesh};
use hdov_storage::codec::{ByteReader, ByteWriter};
use hdov_storage::{Page, PageId, PagedFile, Result, StorageError, PAGE_SIZE};
use std::collections::HashMap;

/// Location and metadata of one stored LoD level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelHandle {
    /// Model key (dense: object id or internal-LoD ordinal).
    pub key: u64,
    /// LoD level (0 = highest detail).
    pub level: usize,
    /// First page of the serialized mesh.
    pub first_page: PageId,
    /// Number of pages.
    pub pages: u32,
    /// Exact serialized byte length.
    pub bytes: u32,
    /// Triangle count.
    pub polygons: u32,
}

/// Directory over models stored in a paged file.
///
/// The directory itself is view-invariant metadata and is kept in memory
/// (the paper does the same: only V-pages and models are fetched at query
/// time).
#[derive(Debug, Clone, Default)]
pub struct ModelStore {
    dir: Vec<Vec<ModelHandle>>,
}

/// Serializes a mesh (vertex count, triangle count, then raw LE arrays).
pub fn encode_mesh(mesh: &TriMesh) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(8 + mesh.byte_size());
    w.put_u32(mesh.vertex_count() as u32);
    w.put_u32(mesh.triangle_count() as u32);
    for v in &mesh.vertices {
        w.put_f32(v[0]);
        w.put_f32(v[1]);
        w.put_f32(v[2]);
    }
    for t in &mesh.indices {
        w.put_u32(t[0]);
        w.put_u32(t[1]);
        w.put_u32(t[2]);
    }
    w.into_bytes()
}

/// Decodes a mesh written by [`encode_mesh`].
pub fn decode_mesh(bytes: &[u8]) -> Result<TriMesh> {
    let mut r = ByteReader::new(bytes);
    let nv = r.get_u32()? as usize;
    let nt = r.get_u32()? as usize;
    // Validate the header against the payload length *before* allocating:
    // a corrupted count must produce a typed error, not an OOM abort.
    let need = nv
        .checked_mul(12)
        .and_then(|v| nt.checked_mul(12).map(|t| v + t))
        .ok_or_else(|| StorageError::Corrupt("mesh header count overflow".into()))?;
    if r.remaining() != need {
        return Err(StorageError::Corrupt(format!(
            "mesh payload is {} bytes but the header implies {need}",
            r.remaining()
        )));
    }
    let mut vertices = Vec::with_capacity(nv);
    for _ in 0..nv {
        vertices.push([r.get_f32()?, r.get_f32()?, r.get_f32()?]);
    }
    let mut indices = Vec::with_capacity(nt);
    for _ in 0..nt {
        indices.push([r.get_u32()?, r.get_u32()?, r.get_u32()?]);
    }
    TriMesh::from_parts(vertices, indices)
        .ok_or_else(|| StorageError::Corrupt("mesh indices out of range".into()))
}

impl ModelStore {
    /// Writes every chain into `file` (keys are assigned densely in iteration
    /// order) and returns the directory.
    ///
    /// Every key gets its own pages, even when several keys pass the same
    /// chain (the copies of one prototype); such a chain is encoded once,
    /// at its first key, and its payloads are written again for the rest.
    pub fn build<'a, F, I>(file: &mut F, chains: I) -> Result<Self>
    where
        F: PagedFile,
        I: IntoIterator<Item = &'a LodChain>,
    {
        let mut dir = Vec::new();
        // Level payloads by chain address: every borrowed chain outlives
        // the loop, so an address names one chain throughout.
        let mut encoded: HashMap<*const LodChain, Vec<Vec<u8>>> = HashMap::new();
        for (key, chain) in chains.into_iter().enumerate() {
            let payloads = encoded.entry(std::ptr::from_ref(chain)).or_insert_with(|| {
                chain
                    .levels()
                    .iter()
                    .map(|l| encode_mesh(&l.mesh))
                    .collect()
            });
            let mut levels = Vec::with_capacity(chain.len());
            for (lvl, (level, payload)) in chain.levels().iter().zip(payloads.iter()).enumerate() {
                let pages = payload.len().div_ceil(PAGE_SIZE).max(1) as u32;
                let mut first_page = None;
                for chunk_idx in 0..pages as usize {
                    let start = chunk_idx * PAGE_SIZE;
                    let end = (start + PAGE_SIZE).min(payload.len());
                    let page = Page::from_bytes(&payload[start..end]);
                    let id = file.append_page(&page)?;
                    first_page.get_or_insert(id);
                }
                levels.push(ModelHandle {
                    key: key as u64,
                    level: lvl,
                    first_page: first_page.expect("at least one page"),
                    pages,
                    bytes: payload.len() as u32,
                    polygons: level.polygons as u32,
                });
            }
            dir.push(levels);
        }
        Ok(ModelStore { dir })
    }

    /// Number of stored models.
    pub fn len(&self) -> usize {
        self.dir.len()
    }

    /// True if no models are stored.
    pub fn is_empty(&self) -> bool {
        self.dir.is_empty()
    }

    /// Number of LoD levels for model `key`.
    pub fn levels(&self, key: u64) -> usize {
        self.dir[key as usize].len()
    }

    /// Metadata for `(key, level)` — no I/O.
    pub fn handle(&self, key: u64, level: usize) -> ModelHandle {
        self.dir[key as usize][level]
    }

    /// Metadata for the coarsest level of `key`.
    pub fn lowest_handle(&self, key: u64) -> ModelHandle {
        *self.dir[key as usize].last().expect("chains are non-empty")
    }

    /// Fetches (charges the page reads for) `(key, level)` without decoding.
    pub fn fetch<F: PagedFile>(&self, file: &mut F, key: u64, level: usize) -> Result<ModelHandle> {
        let h = self.handle(key, level);
        let mut buf = Page::zeroed();
        for i in 0..h.pages as u64 {
            file.read_page(PageId(h.first_page.0 + i), &mut buf)?;
        }
        Ok(h)
    }

    /// Fetches and decodes the mesh for `(key, level)`.
    pub fn fetch_mesh<F: PagedFile>(
        &self,
        file: &mut F,
        key: u64,
        level: usize,
    ) -> Result<TriMesh> {
        let h = self.handle(key, level);
        let mut payload = Vec::with_capacity(h.pages as usize * PAGE_SIZE);
        let mut buf = Page::zeroed();
        for i in 0..h.pages as u64 {
            file.read_page(PageId(h.first_page.0 + i), &mut buf)?;
            payload.extend_from_slice(buf.bytes());
        }
        payload.truncate(h.bytes as usize);
        decode_mesh(&payload)
    }

    /// Resolves a blend factor `k ∈ [0, 1]` to a discrete LoD level of model
    /// `key`: the level whose polygon count is nearest the interpolated
    /// budget `k · npoly(highest) + (1 − k) · npoly(lowest)` (the paper's
    /// Eq. 5/6 interpolation, snapped to stored levels).
    pub fn select_level(&self, key: u64, k: f64) -> usize {
        let n = self.levels(key);
        let hi = self.handle(key, 0).polygons as f64;
        let lo = self.handle(key, n - 1).polygons as f64;
        let k = k.clamp(0.0, 1.0);
        let budget = k * hi + (1.0 - k) * lo;
        let mut best = 0;
        let mut best_err = f64::INFINITY;
        for lvl in 0..n {
            let err = (self.handle(key, lvl).polygons as f64 - budget).abs();
            if err < best_err {
                best = lvl;
                best_err = err;
            }
        }
        best
    }

    /// Total stored bytes (exact payload, not page-padded).
    pub fn total_bytes(&self) -> u64 {
        self.dir.iter().flatten().map(|h| h.bytes as u64).sum()
    }

    /// Total pages across all models.
    pub fn total_pages(&self) -> u64 {
        self.dir.iter().flatten().map(|h| h.pages as u64).sum()
    }
}

/// Serializes a `Vec3` — helper kept for store-adjacent codecs.
#[allow(dead_code)]
fn put_vec3(w: &mut ByteWriter, v: Vec3) {
    w.put_f64(v.x);
    w.put_f64(v.y);
    w.put_f64(v.z);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdov_mesh::generate;
    use hdov_storage::{DiskModel, MemPagedFile, SimulatedDisk};

    fn two_chains() -> Vec<LodChain> {
        vec![
            LodChain::build(generate::icosphere(1.0, 2), 3, 0.3),
            LodChain::build(generate::box_mesh(Vec3::ZERO, Vec3::splat(2.0)), 1, 0.5),
        ]
    }

    #[test]
    fn mesh_codec_round_trip() {
        let m = generate::icosphere(1.5, 1);
        let bytes = encode_mesh(&m);
        let d = decode_mesh(&bytes).unwrap();
        assert_eq!(d, m);
    }

    #[test]
    fn mesh_codec_rejects_corrupt() {
        let m = generate::box_mesh(Vec3::ZERO, Vec3::splat(1.0));
        let mut bytes = encode_mesh(&m);
        bytes.truncate(10);
        assert!(decode_mesh(&bytes).is_err());
        // Out-of-range index.
        let mut bad = encode_mesh(&m);
        let idx_start = 8 + 8 * 12;
        bad[idx_start] = 0xFF;
        bad[idx_start + 1] = 0xFF;
        assert!(decode_mesh(&bad).is_err());
    }

    #[test]
    fn store_build_and_fetch() {
        let chains = two_chains();
        let mut file = MemPagedFile::new();
        let store = ModelStore::build(&mut file, chains.iter()).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.levels(0), chains[0].len());
        assert_eq!(store.levels(1), 1);

        let h = store.fetch(&mut file, 0, 0).unwrap();
        assert_eq!(h.polygons, chains[0].highest().polygons as u32);
        let mesh = store.fetch_mesh(&mut file, 0, 0).unwrap();
        assert_eq!(mesh, chains[0].highest().mesh);
        let lowest = store.fetch_mesh(&mut file, 0, store.levels(0) - 1).unwrap();
        assert_eq!(lowest, chains[0].lowest().mesh);
    }

    #[test]
    fn fetch_charges_sequential_io() {
        let chains = [LodChain::build(generate::icosphere(1.0, 3), 1, 0.5)];
        let mut file = SimulatedDisk::new(MemPagedFile::new(), DiskModel::PAPER_ERA);
        let store = ModelStore::build(&mut file, chains.iter()).unwrap();
        let h = store.handle(0, 0);
        assert!(h.pages > 1, "want a multi-page model for this test");
        file.reset_stats();
        store.fetch(&mut file, 0, 0).unwrap();
        let s = file.stats();
        assert_eq!(s.page_reads, h.pages as u64);
        // One random positioning + sequential remainder.
        assert_eq!(s.random_reads, 1);
        assert_eq!(s.sequential_reads, h.pages as u64 - 1);
    }

    #[test]
    fn totals_match_directory() {
        let chains = two_chains();
        let mut file = MemPagedFile::new();
        let store = ModelStore::build(&mut file, chains.iter()).unwrap();
        let expect: u64 = chains
            .iter()
            .flat_map(|c| c.levels())
            .map(|l| (l.bytes + 8) as u64)
            .sum();
        assert_eq!(store.total_bytes(), expect);
        assert_eq!(store.total_pages(), file.page_count());
    }

    #[test]
    fn lowest_handle_is_last_level() {
        let chains = two_chains();
        let mut file = MemPagedFile::new();
        let store = ModelStore::build(&mut file, chains.iter()).unwrap();
        let h = store.lowest_handle(0);
        assert_eq!(h.level, store.levels(0) - 1);
        assert_eq!(h.polygons, chains[0].lowest().polygons as u32);
    }
}
