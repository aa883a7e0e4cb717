//! On-page HDoV-tree nodes.
//!
//! An HDoV node is an R-tree node whose entries additionally carry the
//! *view-invariant* data the traversal heuristic needs about the child
//! subtree (its ordinal, subtree height, polygon ratio `s`, mean polygons per
//! object `f`), so the search can decide to terminate at a child's internal
//! LoD *without reading the child's page*. View-variant data (`DoV`, `NVO`)
//! lives in V-pages keyed by node ordinal.
//!
//! A node page is small, fixed-layout and read-only, so readers never decode
//! it: [`NodePage`] checks the header once and reads each entry in place
//! from the page's bytes. [`HdovNode`] is the builder's encode type; its
//! [`decode`](HdovNode::decode) collects a [`NodePage`], so the layout is
//! parsed in one place.
//!
//! Layout (little-endian): a 32-byte header — magic `u16`, leaf flag `u8`,
//! pad `u8`, entry count `u16`, pad `u16`, ordinal `u32`, leaf descendants
//! `u32`, height `u32`, 12 reserved bytes — then `count` entries of 72
//! bytes — MBR min and max (6 × `f64`), child `u64`, child ordinal `u32`,
//! child height `u32`, child `s` `f32`, child `f` `f32`.

use hdov_geom::{Aabb, Vec3};
use hdov_storage::codec::ByteWriter;
use hdov_storage::{Frame, Page, Result, StorageError, PAGE_SIZE};
use std::ops::Deref;
use std::sync::Arc;

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

    /// Reads the entry encoded in `e`.
    #[inline]
    fn read(e: &[u8; ENTRY_BYTES]) -> Self {
        let f64_at = |at| f64::from_le_bytes(field(e, at));
        HdovEntry {
            mbr: Aabb {
                min: Vec3::new(f64_at(0), f64_at(8), f64_at(16)),
                max: Vec3::new(f64_at(24), f64_at(32), f64_at(40)),
            },
            child: u64::from_le_bytes(field(e, 48)),
            child_ordinal: u32::from_le_bytes(field(e, 56)),
            child_height: u32::from_le_bytes(field(e, 60)),
            child_s: f32::from_le_bytes(field(e, 64)),
            child_f: f32::from_le_bytes(field(e, 68)),
        }
    }
}

/// The `N` bytes of `bytes` at `at`, which the caller has bounds-checked.
#[inline]
fn field<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    bytes[at..at + N].try_into().expect("field in bounds")
}

/// Fails as a truncated record unless `bytes` holds `len` bytes.
fn need(bytes: &[u8], len: usize, what: &str) -> Result<()> {
    if bytes.len() < len {
        return Err(StorageError::Corrupt(format!(
            "truncated record: need {len} bytes for {what}, have {}",
            bytes.len()
        )));
    }
    Ok(())
}

/// A checked, in-place view of one encoded node page.
///
/// Making the view validates the header once — magic, `count ≤
/// MAX_ENTRIES`, and room for `count` entries — and every read after that
/// takes fixed-offset fields straight from the page's bytes: nothing is
/// decoded ahead of use and nothing is allocated. `B` holds the page: the
/// pooled [`Frame`] on the query path ([`SharedTree::read_node`]), a
/// borrowed slice in [`HdovNode::decode`].
///
/// [`SharedTree::read_node`]: crate::shared::SharedTree::read_node
#[derive(Debug, Clone)]
pub struct NodePage<B = Arc<Frame>> {
    page: B,
    len: usize,
}

impl<B: Deref> NodePage<B>
where
    B::Target: AsRef<[u8]>,
{
    /// A view of the node encoded in `page`.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] on a bad magic, an entry count above
    /// [`MAX_ENTRIES`], or a page too short for its header or its entries.
    pub fn new(page: B) -> Result<Self> {
        let bytes = (*page).as_ref();
        need(bytes, 2, "HDoV node magic")?;
        if u16::from_le_bytes(field(bytes, 0)) != MAGIC {
            return Err(StorageError::Corrupt("bad HDoV node magic".into()));
        }
        need(bytes, HEADER_BYTES, "HDoV node header")?;
        let len = usize::from(u16::from_le_bytes(field(bytes, 4)));
        if len > MAX_ENTRIES {
            return Err(StorageError::Corrupt(format!(
                "entry count {len} too large"
            )));
        }
        need(bytes, HEADER_BYTES + len * ENTRY_BYTES, "HDoV node entries")?;
        Ok(NodePage { page, len })
    }

    fn bytes(&self) -> &[u8] {
        (*self.page).as_ref()
    }

    fn u32_at(&self, at: usize) -> u32 {
        u32::from_le_bytes(field(self.bytes(), at))
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when entries reference objects.
    pub fn is_leaf(&self) -> bool {
        self.bytes()[2] != 0
    }

    /// This node's ordinal (DFS preorder; also its page id).
    pub fn ordinal(&self) -> u32 {
        self.u32_at(8)
    }

    /// Number of leaf-node descendants (1 for a leaf).
    pub fn leaf_descendants(&self) -> u32 {
        self.u32_at(12)
    }

    /// Exact subtree height (1 for a leaf).
    pub fn height(&self) -> u32 {
        self.u32_at(16)
    }

    /// Entry `i`, read from the page.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn entry(&self, i: usize) -> HdovEntry {
        assert!(i < self.len, "entry {i} of a {}-entry node", self.len);
        let at = HEADER_BYTES + i * ENTRY_BYTES;
        let e = self.bytes()[at..at + ENTRY_BYTES].try_into();
        HdovEntry::read(e.expect("entry in bounds"))
    }

    /// Every entry, in page order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = HdovEntry> + '_ {
        (0..self.len).map(|i| self.entry(i))
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

    /// Deserializes a node from one page's bytes: a [`NodePage`] view,
    /// collected.
    ///
    /// # Errors
    /// As [`NodePage::new`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let page = NodePage::new(bytes)?;
        Ok(HdovNode {
            ordinal: page.ordinal(),
            is_leaf: page.is_leaf(),
            leaf_descendants: page.leaf_descendants(),
            height: page.height(),
            entries: page.entries().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn decode_garbage_fails() {
        assert!(HdovNode::decode(Page::from_bytes(&[9u8; 100]).bytes()).is_err());
    }

    /// The `Corrupt` message of `NodePage::new(bytes)`, which must fail.
    fn corrupt(bytes: &[u8]) -> String {
        match NodePage::new(bytes) {
            Err(StorageError::Corrupt(msg)) => msg,
            other => panic!("expected a Corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn view_rejects_bad_magic() {
        let mut page = sample(true).encode();
        page.bytes_mut()[0] ^= 0xFF;
        assert_eq!(corrupt(page.bytes()), "bad HDoV node magic");
        assert!(corrupt(&[]).starts_with("truncated record"));
    }

    #[test]
    fn view_rejects_count_above_capacity() {
        let mut page = sample(false).encode();
        let count = (MAX_ENTRIES as u16 + 1).to_le_bytes();
        page.bytes_mut()[4..6].copy_from_slice(&count);
        let msg = corrupt(page.bytes());
        assert_eq!(msg, format!("entry count {} too large", MAX_ENTRIES + 1));
    }

    #[test]
    fn view_rejects_slice_shorter_than_its_count() {
        let page = sample(true).encode();
        let full = HEADER_BYTES + 5 * ENTRY_BYTES;
        assert_eq!(NodePage::new(&page.bytes()[..full]).unwrap().len(), 5);
        for short in [full - 1, HEADER_BYTES, HEADER_BYTES - 1, 2] {
            let msg = corrupt(&page.bytes()[..short]);
            assert!(msg.starts_with("truncated record"), "{short}: {msg}");
        }
    }

    /// One entry from raw field values (`bits` are the six MBR `f64`s'
    /// bits, so NaNs and infinities occur).
    fn entry_of(
        bits: Vec<u64>,
        child: u64,
        ordinal: u32,
        height: u32,
        s: u32,
        f: u32,
    ) -> HdovEntry {
        let v = |i: usize| f64::from_bits(bits[i]);
        HdovEntry {
            mbr: Aabb {
                min: Vec3::new(v(0), v(1), v(2)),
                max: Vec3::new(v(3), v(4), v(5)),
            },
            child,
            child_ordinal: ordinal,
            child_height: height,
            child_s: f32::from_bits(s),
            child_f: f32::from_bits(f),
        }
    }

    /// The bits of every field of `e`, for bit-exact comparison.
    fn entry_bits(e: &HdovEntry) -> [u64; 10] {
        let (lo, hi) = (e.mbr.min, e.mbr.max);
        [
            lo.x.to_bits(),
            lo.y.to_bits(),
            lo.z.to_bits(),
            hi.x.to_bits(),
            hi.y.to_bits(),
            hi.z.to_bits(),
            e.child,
            u64::from(e.child_ordinal) << 32 | u64::from(e.child_height),
            u64::from(e.child_s.to_bits()),
            u64::from(e.child_f.to_bits()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn view_reads_what_decode_gives(
            header in (0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX, 0u8..2),
            raw in prop::collection::vec(
                (
                    prop::collection::vec(0u64..u64::MAX, 6..7),
                    0u64..u64::MAX,
                    prop_oneof![Just(u32::MAX), 0u32..u32::MAX],
                    0u32..u32::MAX,
                    0u32..u32::MAX,
                    0u32..u32::MAX,
                ),
                0..MAX_ENTRIES + 1,
            ),
        ) {
            let (ordinal, leaf_descendants, height, leaf) = header;
            let node = HdovNode {
                ordinal,
                is_leaf: leaf == 1,
                leaf_descendants,
                height,
                entries: raw
                    .into_iter()
                    .map(|(bits, child, o, h, s, f)| entry_of(bits, child, o, h, s, f))
                    .collect(),
            };
            let page = node.encode();
            let decoded = HdovNode::decode(page.bytes()).unwrap();
            let view = NodePage::new(page.bytes()).unwrap();
            prop_assert_eq!(view.len(), decoded.entries.len());
            prop_assert_eq!(view.len(), node.entries.len());
            prop_assert_eq!(view.is_empty(), node.entries.is_empty());
            prop_assert_eq!(view.ordinal(), decoded.ordinal);
            prop_assert_eq!(view.is_leaf(), decoded.is_leaf);
            prop_assert_eq!(view.leaf_descendants(), decoded.leaf_descendants);
            prop_assert_eq!(view.height(), decoded.height);
            for (i, (want, built)) in decoded.entries.iter().zip(&node.entries).enumerate() {
                prop_assert_eq!(entry_bits(&view.entry(i)), entry_bits(want));
                prop_assert_eq!(entry_bits(want), entry_bits(built));
            }
        }
    }

    #[test]
    fn vpage_capacity_matches_node_capacity() {
        assert_eq!(crate::vpage::VPAGE_CAPACITY, MAX_ENTRIES);
    }
}
