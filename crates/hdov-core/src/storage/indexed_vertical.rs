//! The indexed-vertical storage scheme (paper §4.3).
//!
//! Like the vertical scheme, but "only the offset numbers and the V-page
//! pointers of the visible nodes are saved in the V-page-index file" —
//! segments become variable-length lists of `(node offset, pointer)` pairs,
//! shrinking both the index storage and the flip cost from `O(N_node)` to
//! `O(N_vnode)` I/Os. A tiny in-memory directory maps each cell to its
//! segment extent (the "simple one-to-one index").

use super::{freeze_index, record_bytes_for, VPageFile};
use crate::shared::{SharedIndexedVertical, SharedVStore};
use crate::vpage::{VPage, VPageCodec};
use hdov_storage::{
    DiskModel, IoCursor, MemPagedFile, Page, PagedFile, Result, SimulatedDisk, PAGE_SIZE,
};
use std::sync::Arc;

/// Builds the store (sparse segments for visible nodes only, plus the
/// in-memory per-cell `(start_byte, record_count)` directory); see
/// [`StorageScheme::build`](super::StorageScheme::build) for argument
/// conventions.
pub(crate) fn build(
    entry_counts: &[u16],
    cells: &[Vec<(u32, VPage)>],
    model: DiskModel,
    codec: VPageCodec,
) -> Result<(SharedVStore, [IoCursor; 2])> {
    let max_entries = entry_counts.iter().copied().max().unwrap_or(1) as usize;
    // Only visible pages are stored — no hidden placeholders.
    let record_bytes = record_bytes_for(codec, max_entries, entry_counts, cells, false);
    let mut vpages = VPageFile::new(model, codec, record_bytes);
    let mut index = SimulatedDisk::new(MemPagedFile::new(), model);

    let mut raw: Vec<u8> = Vec::new();
    let mut dir = Vec::with_capacity(cells.len());
    for cell in cells {
        dir.push((raw.len() as u64, cell.len() as u32));
        for (ordinal, vp) in cell {
            let ptr = vpages.append(vp)?;
            raw.extend_from_slice(&ordinal.to_le_bytes());
            raw.extend_from_slice(&ptr.to_le_bytes());
        }
    }
    // Lay the packed segments out in pages.
    for chunk in raw.chunks(PAGE_SIZE) {
        index.append_page(&Page::from_bytes(chunk))?;
    }
    if raw.is_empty() {
        index.allocate_page()?;
    }
    let (vpages, vpage_cur) = vpages.freeze()?;
    let (index, index_cur) = freeze_index(index);
    let store = SharedVStore::IndexedVertical(SharedIndexedVertical {
        index,
        vpages,
        cells: cells.len() as u32,
        n_nodes: entry_counts.len() as u32,
        dir: Arc::new(dir),
    });
    Ok((store, [index_cur, vpage_cur]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::testutil::{self, io, session};
    use crate::storage::vertical;

    #[test]
    fn conformance() {
        for codec in [VPageCodec::Raw, VPageCodec::Delta] {
            let (counts, cells) = testutil::sample_cells(12);
            let built = build(&counts, &cells, DiskModel::FREE, codec).unwrap();
            testutil::conformance(built, &cells, 12);
        }
    }

    #[test]
    fn flip_cost_scales_with_visible_not_total() {
        // 2000 nodes, few visible: indexed flip must read far fewer pages
        // than the dense vertical flip.
        let n = 2000u32;
        let (counts, cells) = testutil::sample_cells(n);
        // Keep only cell 1 (3 visible nodes) replicated.
        let sparse_cells = vec![cells[1].clone(), cells[1].clone()];
        let (iv, iv_cursors) = build(
            &counts,
            &sparse_cells,
            DiskModel::PAPER_ERA,
            VPageCodec::Delta,
        )
        .unwrap();
        let (v, v_cursors) = vertical::build(
            &counts,
            &sparse_cells,
            DiskModel::PAPER_ERA,
            VPageCodec::Delta,
        )
        .unwrap();
        let (mut iv_ctx, mut v_ctx) = (session(iv_cursors), session(v_cursors));
        iv.enter_cell(&mut iv_ctx, 0).unwrap();
        v.enter_cell(&mut v_ctx, 0).unwrap();
        let iv_flip = io(&iv_ctx).page_reads;
        let v_flip = io(&v_ctx).page_reads;
        assert!(iv_flip <= 1, "indexed flip read {iv_flip} pages");
        assert_eq!(v_flip, (n as u64 * 8).div_ceil(PAGE_SIZE as u64));
        assert!(iv_flip < v_flip);
    }

    #[test]
    fn storage_smaller_than_vertical() {
        for codec in [VPageCodec::Raw, VPageCodec::Delta] {
            let (counts, cells) = testutil::sample_cells(500);
            let (iv, _) = build(&counts, &cells, DiskModel::FREE, codec).unwrap();
            let (v, _) = vertical::build(&counts, &cells, DiskModel::FREE, codec).unwrap();
            assert!(iv.storage_bytes() < v.storage_bytes());
        }
    }

    #[test]
    fn storage_matches_formula() {
        let (counts, cells) = testutil::sample_cells(10);
        let (s, _) = build(&counts, &cells, DiskModel::FREE, VPageCodec::Raw).unwrap();
        let vnode_total: u64 = cells.iter().map(|c| c.len() as u64).sum();
        let vpage = 4 + 8 * *counts.iter().max().unwrap() as u64;
        assert_eq!(s.storage_bytes(), (12 + vpage) * vnode_total);
    }

    #[test]
    fn delta_codec_shrinks_storage_with_identical_answers() {
        let (counts, cells) = testutil::sample_cells(10);
        let (raw, _) = build(&counts, &cells, DiskModel::FREE, VPageCodec::Raw).unwrap();
        let delta = build(&counts, &cells, DiskModel::FREE, VPageCodec::Delta).unwrap();
        assert!(delta.0.storage_bytes() < raw.storage_bytes());
        testutil::conformance(delta, &cells, 10);
    }

    #[test]
    fn empty_cell_flip_is_free_after_dir_lookup() {
        let (counts, cells) = testutil::sample_cells(12);
        let (s, cursors) = build(&counts, &cells, DiskModel::PAPER_ERA, VPageCodec::Delta).unwrap();
        let mut ctx = session(cursors);
        s.enter_cell(&mut ctx, 2).unwrap(); // empty cell: zero records
        assert_eq!(io(&ctx).page_reads, 0);
        assert!(s.fetch(&mut ctx, 0).unwrap().is_none());
    }

    #[test]
    fn segment_straddling_page_boundary() {
        // Enough visible nodes that a segment crosses a page boundary.
        let n = 800u32;
        let counts: Vec<u16> = vec![2; n as usize];
        let mk = |o: u32| {
            (
                o,
                VPage::new(vec![
                    crate::vpage::VEntry { dov: 0.5, nvo: 1 },
                    crate::vpage::VEntry { dov: 0.25, nvo: 2 },
                ]),
            )
        };
        // Cell 0: 500 visible; cell 1: 500 visible — combined raw index
        // bytes cross several pages.
        let cells = vec![
            (0..500).map(mk).collect::<Vec<_>>(),
            (300..800).map(mk).collect::<Vec<_>>(),
        ];
        let (s, cursors) = build(&counts, &cells, DiskModel::FREE, VPageCodec::Delta).unwrap();
        let mut ctx = session(cursors);
        for cid in 0..2u32 {
            s.enter_cell(&mut ctx, cid).unwrap();
            for &(o, ref vp) in &cells[cid as usize] {
                assert_eq!(s.fetch(&mut ctx, o).unwrap().as_deref(), Some(vp));
            }
        }
    }
}
