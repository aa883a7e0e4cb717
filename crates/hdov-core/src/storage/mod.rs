//! On-disk storage schemes for the view-variant data (paper §4).
//!
//! The HDoV-tree is view-variant: `(DoV, NVO)` differs per viewing cell. The
//! paper stores all cells' data on disk and fetches the current cell's; three
//! layouts are proposed, trading storage for flip/fetch cost:
//!
//! | Scheme | Layout | Storage (paper §4) |
//! |---|---|---|
//! | [`Horizontal`](StorageScheme::Horizontal) | every node keeps a cell-indexed list of V-pages | `size_vpage · c · N_node` |
//! | [`Vertical`](StorageScheme::Vertical) | per-cell segment of `N_node` pointers + per-cell DFS-clustered V-pages | `size_ptr · N_node · c + size_vpage · N_vnode · c` |
//! | [`IndexedVertical`](StorageScheme::IndexedVertical) | per-cell sparse segment of `(offset, ptr)` pairs for visible nodes only | `(size_ptr + size_int) · N_vnode · c + size_vpage · N_vnode · c` |
//!
//! Each scheme is built once, in memory, and frozen into a
//! [`SharedVStore`] — the one reader of all three layouts; the search code
//! is agnostic.

mod horizontal;
mod indexed_vertical;
mod vertical;

use crate::shared::{SharedVPageFile, SharedVStore};
use crate::vpage::{VPage, VPageCodec, MIN_DELTA_RECORD_BYTES};
use hdov_obs::Counter;
use hdov_storage::{
    DiskModel, IoCursor, MemPagedFile, Page, PageId, PagedFile, Result, SharedCachedFile,
    SimulatedDisk, PAGE_SIZE,
};

/// The three storage schemes of paper §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageScheme {
    /// §4.1 — a V-page per (node, cell), node-major.
    Horizontal,
    /// §4.2 — per-cell pointer segments + clustered V-pages.
    Vertical,
    /// §4.3 — sparse per-cell segments holding visible nodes only.
    IndexedVertical,
}

impl StorageScheme {
    /// All schemes, in paper order.
    pub fn all() -> [StorageScheme; 3] {
        [
            StorageScheme::Horizontal,
            StorageScheme::Vertical,
            StorageScheme::IndexedVertical,
        ]
    }

    /// Builds a store of this scheme over the given per-cell visibility
    /// data and freezes it behind the single-session layout.
    ///
    /// * `entry_counts[n]` — number of entries of node `n` (for hidden-node
    ///   placeholders in the horizontal scheme),
    /// * `cells[c]` — the visible nodes of cell `c` as `(ordinal, VPage)`,
    ///   sorted by ordinal (DFS preorder),
    /// * `model` — disk cost model for the store's files,
    /// * `codec` — wire format for V-page records (see [`VPageCodec`]).
    ///
    /// Also returns the V-page-index and V-page cursors, parked where the
    /// build left each file's head (the horizontal scheme has no index).
    pub fn build(
        self,
        entry_counts: &[u16],
        cells: &[Vec<(u32, VPage)>],
        model: DiskModel,
        codec: VPageCodec,
    ) -> Result<(SharedVStore, [IoCursor; 2])> {
        match self {
            StorageScheme::Horizontal => horizontal::build(entry_counts, cells, model, codec),
            StorageScheme::Vertical => vertical::build(entry_counts, cells, model, codec),
            StorageScheme::IndexedVertical => {
                indexed_vertical::build(entry_counts, cells, model, codec)
            }
        }
    }
}

impl std::fmt::Display for StorageScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageScheme::Horizontal => write!(f, "horizontal"),
            StorageScheme::Vertical => write!(f, "vertical"),
            StorageScheme::IndexedVertical => write!(f, "indexed-vertical"),
        }
    }
}

/// Freezes a built index file behind the single-session layout.
pub(crate) fn freeze_index(disk: SimulatedDisk<MemPagedFile>) -> (SharedCachedFile, IoCursor) {
    let (cap, shards) = crate::env::UNBUFFERED;
    SharedCachedFile::from_disk(disk, cap, shards)
}

/// V-page records packed into disk pages (several per page, never
/// straddling), addressed by record index.
///
/// Under the raw codec the record size is `4 + 8 · M` bytes where `M` is
/// the tree's fan-out — a V-page holds exactly one node's V-entries (paper
/// §4.1), so a smaller fan-out means more V-pages per disk page and
/// proportionally smaller storage formulas. Under the delta codec the
/// record size is the exact maximum encoded length over the records the
/// store will hold (computed up front by [`record_bytes_for`]), which is
/// never larger and usually much smaller — shrinking the paper's
/// `size_vpage` term in every §4 formula at identical answers.
///
/// This is the build-time writer; [`freeze`](Self::freeze) hands the pages
/// to the [`SharedVPageFile`] every query reads.
pub(crate) struct VPageFile {
    disk: SimulatedDisk<MemPagedFile>,
    records: u64,
    record_bytes: usize,
    records_per_page: u64,
    codec: VPageCodec,
}

/// Raw-codec V-page record size for nodes holding at most `max_entries`
/// entries.
pub(crate) fn vpage_record_bytes(max_entries: usize) -> usize {
    4 + 8 * max_entries.max(1)
}

/// Fixed record-slot size for a store's V-page file under `codec`.
///
/// Raw preserves the historical `4 + 8 · max_entries` slot. Delta sizes
/// the slot to the largest actual encoded record: every visible page in
/// `cells`, plus (when `hidden_placeholders` is set — the horizontal
/// scheme) an all-hidden placeholder per distinct node entry count. The
/// floor of [`MIN_DELTA_RECORD_BYTES`] keeps zeroed padding slots
/// decodable as empty pages.
pub(crate) fn record_bytes_for(
    codec: VPageCodec,
    max_entries: usize,
    entry_counts: &[u16],
    cells: &[Vec<(u32, VPage)>],
    hidden_placeholders: bool,
) -> usize {
    match codec {
        VPageCodec::Raw => vpage_record_bytes(max_entries).min(PAGE_SIZE),
        VPageCodec::Delta => {
            let mut rb = MIN_DELTA_RECORD_BYTES;
            for cell in cells {
                for (_, vp) in cell {
                    rb = rb.max(vp.delta_len());
                }
            }
            if hidden_placeholders {
                for &c in entry_counts {
                    rb = rb.max(codec.hidden_record_len(c as usize));
                }
            }
            rb.min(PAGE_SIZE)
        }
    }
}

impl VPageFile {
    pub fn new(model: DiskModel, codec: VPageCodec, record_bytes: usize) -> Self {
        let record_bytes = record_bytes.min(PAGE_SIZE);
        VPageFile {
            disk: SimulatedDisk::new(MemPagedFile::new(), model),
            records: 0,
            record_bytes,
            records_per_page: (PAGE_SIZE / record_bytes) as u64,
            codec,
        }
    }

    /// Appends a V-page, returning its record index. Errors with a typed
    /// [`StorageError::VPageOverflow`](hdov_storage::StorageError::VPageOverflow)
    /// if the page does not fit the configured record slot (a build
    /// invariant; [`record_bytes_for`] sizes slots so it cannot fire).
    pub fn append(&mut self, vpage: &VPage) -> Result<u64> {
        let bytes = self.codec.encode_record(vpage, self.record_bytes)?;
        if hdov_obs::is_enabled() {
            hdov_obs::add(Counter::VpageBytesRaw, (4 + 8 * vpage.entries.len()) as u64);
            hdov_obs::add(
                Counter::VpageBytesEncoded,
                self.codec.record_len(vpage) as u64,
            );
        }
        let idx = self.records;
        let page_id = idx / self.records_per_page;
        let slot = (idx % self.records_per_page) as usize;
        let mut page = Page::zeroed();
        if page_id < self.disk.page_count() {
            self.disk.read_page(PageId(page_id), &mut page)?;
        } else {
            self.disk.allocate_page()?;
        }
        page.bytes_mut()[slot * self.record_bytes..(slot + 1) * self.record_bytes]
            .copy_from_slice(&bytes);
        self.disk.write_page(PageId(page_id), &page)?;
        self.records += 1;
        Ok(idx)
    }

    /// Freezes the file (call once after the last append) behind the
    /// single-session layout: a
    /// one-page pool, so consecutive reads of records packed into the same
    /// disk page charge a single simulated page read — which is exactly how
    /// the Delta codec's denser packing (more records per 4 KiB page) turns
    /// into strictly fewer fig8 I/Os at identical answers. Returns the file
    /// and a cursor parked where the build left the head.
    pub fn freeze(self) -> Result<(SharedVPageFile, IoCursor)> {
        let (cap, shards) = crate::env::VPAGE_BUFFER;
        let (pool, cursor) = SharedCachedFile::from_disk(self.disk, cap, shards);
        let file = SharedVPageFile::new(
            pool,
            self.records,
            self.record_bytes,
            self.records_per_page,
            self.codec,
        );
        Ok((file, cursor))
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::shared::SessionCtx;
    use crate::vpage::VEntry;
    use hdov_storage::IoStats;
    use hdov_visibility::CellId;

    /// A small synthetic dataset: `n_nodes` nodes, 3 cells with differing
    /// visible sets.
    pub fn sample_cells(n_nodes: u32) -> (Vec<u16>, Vec<Vec<(u32, VPage)>>) {
        let entry_counts: Vec<u16> = (0..n_nodes).map(|n| 2 + (n % 3) as u16).collect();
        let mk = |ordinal: u32, base: f32| {
            let count = 2 + (ordinal % 3) as usize;
            VPage::new(
                (0..count)
                    .map(|i| VEntry {
                        dov: base + i as f32 * 0.01,
                        nvo: i as u32 + 1,
                    })
                    .collect(),
            )
        };
        let cells = vec![
            // Cell 0: even nodes visible.
            (0..n_nodes)
                .filter(|n| n % 2 == 0)
                .map(|n| (n, mk(n, 0.1)))
                .collect(),
            // Cell 1: first three nodes.
            (0..n_nodes.min(3)).map(|n| (n, mk(n, 0.2))).collect(),
            // Cell 2: nothing visible.
            Vec::new(),
        ];
        (entry_counts, cells)
    }

    /// A session over a freshly built store: its index and V-page
    /// cursors, no cell entered.
    pub fn session([index_cur, vpage_cur]: [IoCursor; 2]) -> SessionCtx {
        let mut ctx = SessionCtx::new();
        ctx.index_cur = index_cur;
        ctx.vpage_cur = vpage_cur;
        ctx
    }

    /// The session's visibility-store I/O (V-page index + V-pages).
    pub fn io(ctx: &SessionCtx) -> IoStats {
        ctx.index_cur.stats() + ctx.vpage_cur.stats()
    }

    /// Clears the session's visibility-store counters (heads are kept).
    pub fn reset(ctx: &mut SessionCtx) {
        ctx.index_cur.reset_stats();
        ctx.vpage_cur.reset_stats();
    }

    /// Scheme-agnostic conformance suite.
    pub fn conformance(
        (store, cursors): (SharedVStore, [IoCursor; 2]),
        cells: &[Vec<(u32, VPage)>],
        n_nodes: u32,
    ) {
        let mut ctx = session(cursors);
        assert_eq!(store.cell_count(), cells.len() as u32);
        for (cid, cell) in cells.iter().enumerate() {
            store.enter_cell(&mut ctx, cid as CellId).unwrap();
            assert_eq!(ctx.current_cell(), Some(cid as CellId));
            let visible: std::collections::HashMap<u32, &VPage> =
                cell.iter().map(|(o, v)| (*o, v)).collect();
            for n in 0..n_nodes {
                let got = store.fetch(&mut ctx, n).unwrap();
                match visible.get(&n) {
                    Some(want) => {
                        let got = got.expect("visible node must have a V-page");
                        assert_eq!(&*got, *want, "cell {cid} node {n}");
                    }
                    None => match got {
                        None => {}
                        Some(vp) => assert!(
                            !vp.any_visible(),
                            "hidden node {n} returned visible data in cell {cid}"
                        ),
                    },
                }
            }
        }
        // Re-entering the same cell is a no-op (no extra flip I/O).
        store.enter_cell(&mut ctx, 0).unwrap();
        reset(&mut ctx);
        store.enter_cell(&mut ctx, 0).unwrap();
        assert_eq!(io(&ctx).page_reads, 0, "re-entering cell must be free");
    }
}
