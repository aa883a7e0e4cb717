//! On-page HDoV-tree nodes.
//!
//! An HDoV node is an R-tree node whose entries additionally carry the
//! *view-invariant* data the traversal heuristic needs about the child
//! subtree (its ordinal, subtree height, polygon ratio `s`, mean polygons per
//! object `f`), so the search can decide to terminate at a child's internal
//! LoD *without reading the child's page*. View-variant data (`DoV`, `NVO`)
//! lives in V-pages keyed by node ordinal.

use hdov_geom::{Aabb, Vec3};
use hdov_storage::codec::{ByteReader, ByteWriter};
use hdov_storage::{Page, Result, StorageError, PAGE_SIZE};

const HEADER_BYTES: usize = 32;
const ENTRY_BYTES: usize = 48 + 8 + 4 + 4 + 4 + 4; // mbr, child, ordinal, h, s, f
const MAGIC: u16 = 0x4856; // "VH"

/// Maximum entries per HDoV node (`M` of Eq. 4).
pub const MAX_ENTRIES: usize = (PAGE_SIZE - HEADER_BYTES) / ENTRY_BYTES;

/// One HDoV-tree entry: `(VD, MBR, Ptr)` with `VD` externalized to V-pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HdovEntry {
    /// Bounding box of the subtree / object.
    pub mbr: Aabb,
    /// Child node ordinal (internal entries) or object id (leaf entries).
    pub child: u64,
    /// Ordinal of the child node (internal entries; `u32::MAX` for objects).
    pub child_ordinal: u32,
    /// Exact height of the child subtree (0 for objects, 1 for leaves).
    pub child_height: u32,
    /// Child's polygon ratio `s = npoly(node) / Σ npoly(children)` (Eq. 3).
    pub child_s: f32,
    /// Child's mean full-detail polygons per descendant object (`f`).
    pub child_f: f32,
}

impl HdovEntry {
    /// A leaf entry referencing object `id`.
    pub fn object(mbr: Aabb, id: u64, f: f32) -> Self {
        HdovEntry {
            mbr,
            child: id,
            child_ordinal: u32::MAX,
            child_height: 0,
            child_s: 1.0,
            child_f: f,
        }
    }

    /// True when the entry references an object.
    #[inline]
    pub fn is_object(&self) -> bool {
        self.child_ordinal == u32::MAX
    }

    fn encode(&self, w: &mut ByteWriter) {
        for v in [self.mbr.min, self.mbr.max] {
            w.put_f64(v.x);
            w.put_f64(v.y);
            w.put_f64(v.z);
        }
        w.put_u64(self.child);
        w.put_u32(self.child_ordinal);
        w.put_u32(self.child_height);
        w.put_f32(self.child_s);
        w.put_f32(self.child_f);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let min = Vec3::new(r.get_f64()?, r.get_f64()?, r.get_f64()?);
        let max = Vec3::new(r.get_f64()?, r.get_f64()?, r.get_f64()?);
        Ok(HdovEntry {
            mbr: Aabb { min, max },
            child: r.get_u64()?,
            child_ordinal: r.get_u32()?,
            child_height: r.get_u32()?,
            child_s: r.get_f32()?,
            child_f: r.get_f32()?,
        })
    }
}

/// An HDoV-tree node, one per page; page id equals the node's DFS ordinal.
#[derive(Debug, Clone, PartialEq)]
pub struct HdovNode {
    /// This node's ordinal (DFS preorder; also its page id and the key of
    /// its V-pages and internal-LoD chain).
    pub ordinal: u32,
    /// True when entries reference objects.
    pub is_leaf: bool,
    /// Number of leaf-node descendants (1 for a leaf) — `m` of Eq. 4.
    pub leaf_descendants: u32,
    /// Exact subtree height (1 for a leaf).
    pub height: u32,
    /// Entries.
    pub entries: Vec<HdovEntry>,
}

impl HdovNode {
    /// Serializes into a page.
    ///
    /// # Panics
    /// Panics if over capacity (builder invariant).
    pub fn encode(&self) -> Page {
        assert!(self.entries.len() <= MAX_ENTRIES, "HDoV node overflow");
        let mut w = ByteWriter::with_capacity(PAGE_SIZE);
        w.put_u16(MAGIC);
        w.put_u8(self.is_leaf as u8);
        w.put_u8(0);
        w.put_u16(self.entries.len() as u16);
        w.put_u16(0);
        w.put_u32(self.ordinal);
        w.put_u32(self.leaf_descendants);
        w.put_u32(self.height);
        w.put_u32(0); // reserved
        w.put_u64(0); // reserved
        debug_assert_eq!(w.len(), HEADER_BYTES);
        for e in &self.entries {
            e.encode(&mut w);
        }
        Page::from_bytes(w.bytes())
    }

    /// Deserializes a node from one page's bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        if r.get_u16()? != MAGIC {
            return Err(StorageError::Corrupt("bad HDoV node magic".into()));
        }
        let is_leaf = r.get_u8()? != 0;
        let _ = r.get_u8()?;
        let count = r.get_u16()? as usize;
        let _ = r.get_u16()?;
        let ordinal = r.get_u32()?;
        let leaf_descendants = r.get_u32()?;
        let height = r.get_u32()?;
        let _ = r.get_u32()?;
        let _ = r.get_u64()?;
        if count > MAX_ENTRIES {
            return Err(StorageError::Corrupt(format!(
                "entry count {count} too large"
            )));
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(HdovEntry::decode(&mut r)?);
        }
        Ok(HdovNode {
            ordinal,
            is_leaf,
            leaf_descendants,
            height,
            entries,
        })
    }

    /// MBR over all entries.
    pub fn mbr(&self) -> Aabb {
        self.entries
            .iter()
            .fold(Aabb::EMPTY, |a, e| a.union(&e.mbr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn capacity_reasonable() {
        assert!(MAX_ENTRIES >= 40, "fan-out too small: {MAX_ENTRIES}");
        assert!(HEADER_BYTES + MAX_ENTRIES * ENTRY_BYTES <= PAGE_SIZE);
    }

    fn sample(is_leaf: bool) -> HdovNode {
        let entries = (0..5)
            .map(|i| {
                let f = i as f64;
                let mbr = Aabb::new(Vec3::splat(f), Vec3::splat(f + 1.0));
                if is_leaf {
                    HdovEntry::object(mbr, i, 100.0 + i as f32)
                } else {
                    HdovEntry {
                        mbr,
                        child: i + 10,
                        child_ordinal: i as u32 + 10,
                        child_height: 2,
                        child_s: 0.25,
                        child_f: 512.0,
                    }
                }
            })
            .collect();
        HdovNode {
            ordinal: 3,
            is_leaf,
            leaf_descendants: if is_leaf { 1 } else { 25 },
            height: if is_leaf { 1 } else { 3 },
            entries,
        }
    }

    #[test]
    fn round_trip() {
        for is_leaf in [true, false] {
            let node = sample(is_leaf);
            let decoded = HdovNode::decode(node.encode().bytes()).unwrap();
            assert_eq!(decoded, node);
        }
    }

    #[test]
    fn object_entries_flagged() {
        let node = sample(true);
        assert!(node.entries[0].is_object());
        let internal = sample(false);
        assert!(!internal.entries[0].is_object());
    }

    #[test]
    fn mbr_union() {
        let node = sample(true);
        assert_eq!(node.mbr(), Aabb::new(Vec3::splat(0.0), Vec3::splat(5.0)));
    }

    #[test]
    fn decode_garbage_fails() {
        assert!(HdovNode::decode(Page::from_bytes(&[9u8; 100]).bytes()).is_err());
    }

    #[test]
    fn vpage_capacity_matches_node_capacity() {
        assert_eq!(crate::vpage::VPAGE_CAPACITY, MAX_ENTRIES);
    }
}
