//! The vertical storage scheme (paper §4.2).
//!
//! A *V-page-index* file holds one segment per cell, each containing
//! `N_node` pointers (nil for hidden nodes). The V-pages of one cell are
//! stored together, sorted in depth-first node order, "so that all V-pages
//! accessed during a visibility query can be retrieved in a sequential
//! scan". Entering a cell "flips" the segment: `⌈N_node · size_ptr /
//! size_page⌉` sequential page reads; fetches of hidden nodes are then free.

use super::{freeze_index, record_bytes_for, VPageFile};
use crate::shared::{SharedVStore, SharedVertical, NIL};
use crate::vpage::{VPage, VPageCodec};
use hdov_storage::{
    DiskModel, IoCursor, Page, PagedFile, Result, SimulatedDisk, StoreFile, PAGE_SIZE,
};

/// Builds the store (dense per-cell pointer segments + clustered
/// V-pages); see [`StorageScheme::build`](super::StorageScheme::build) for
/// argument conventions.
pub(crate) fn build(
    entry_counts: &[u16],
    cells: &[Vec<(u32, VPage)>],
    model: DiskModel,
    codec: VPageCodec,
) -> Result<(SharedVStore, [IoCursor; 2])> {
    let n_nodes = entry_counts.len() as u32;
    let seg_pages = (n_nodes as u64 * 8).div_ceil(PAGE_SIZE as u64).max(1);

    let max_entries = entry_counts.iter().copied().max().unwrap_or(1) as usize;
    // Only visible pages are stored — no hidden placeholders.
    let record_bytes = record_bytes_for(codec, max_entries, entry_counts, cells, false);
    let mut vpages = VPageFile::new(model, codec, record_bytes);
    let mut index = SimulatedDisk::new(StoreFile::new_mem(), model);
    for cell in cells {
        let mut segment = vec![NIL; n_nodes as usize];
        // DFS order: input is sorted by ordinal, which is DFS preorder.
        for (ordinal, vp) in cell {
            segment[*ordinal as usize] = vpages.append(vp)?;
        }
        // Write the segment as whole pages.
        let mut bytes = Vec::with_capacity(seg_pages as usize * PAGE_SIZE);
        for p in &segment {
            bytes.extend_from_slice(&p.to_le_bytes());
        }
        bytes.resize(seg_pages as usize * PAGE_SIZE, 0);
        for chunk in bytes.chunks(PAGE_SIZE) {
            index.append_page(&Page::from_bytes(chunk))?;
        }
    }
    let (vpages, vpage_cur) = vpages.freeze()?;
    index.enable_checksums()?;
    let (index, index_cur) = freeze_index(index);
    let store = SharedVStore::Vertical(SharedVertical {
        index,
        vpages,
        cells: cells.len() as u32,
        n_nodes,
        seg_pages,
    });
    Ok((store, [index_cur, vpage_cur]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::testutil::{self, io, session};

    #[test]
    fn conformance() {
        for codec in [VPageCodec::Raw, VPageCodec::Delta] {
            let (counts, cells) = testutil::sample_cells(12);
            let built = build(&counts, &cells, DiskModel::FREE, codec).unwrap();
            testutil::conformance(built, &cells, 12);
        }
    }

    #[test]
    fn flip_costs_segment_pages_and_hidden_fetches_are_free() {
        let (counts, cells) = testutil::sample_cells(12);
        let (s, cursors) = build(&counts, &cells, DiskModel::PAPER_ERA, VPageCodec::Delta).unwrap();
        let mut ctx = session(cursors);
        s.enter_cell(&mut ctx, 2).unwrap(); // empty cell
        let flip_reads = io(&ctx).page_reads;
        assert_eq!(flip_reads, 1, "12 pointers fit one segment page");
        for n in 0..12 {
            assert!(s.fetch(&mut ctx, n).unwrap().is_none());
        }
        assert_eq!(
            io(&ctx).page_reads,
            flip_reads,
            "hidden fetches must be free"
        );
    }

    #[test]
    fn sequential_vpage_scan_in_dfs_order() {
        let (counts, cells) = testutil::sample_cells(40);
        let (s, cursors) = build(&counts, &cells, DiskModel::PAPER_ERA, VPageCodec::Delta).unwrap();
        let mut ctx = session(cursors);
        s.enter_cell(&mut ctx, 0).unwrap();
        testutil::reset(&mut ctx);
        // Fetch visible nodes in DFS (ordinal) order: V-pages are clustered,
        // so most reads land on the same or next disk page.
        for &(ordinal, _) in &cells[0] {
            let _ = s.fetch(&mut ctx, ordinal).unwrap().unwrap();
        }
        let st = io(&ctx);
        assert!(st.page_reads >= 1);
        assert!(
            st.random_reads <= 1,
            "expected at most one seek then sequential/same-page reads, got {st:?}"
        );
    }

    #[test]
    fn storage_matches_formula() {
        let (counts, cells) = testutil::sample_cells(10);
        let (s, _) = build(&counts, &cells, DiskModel::FREE, VPageCodec::Raw).unwrap();
        let vnode_total: u64 = cells.iter().map(|c| c.len() as u64).sum();
        let vpage = 4 + 8 * *counts.iter().max().unwrap() as u64;
        assert_eq!(s.storage_bytes(), 8 * 10 * 3 + vpage * vnode_total);
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
    fn flip_between_cells_changes_answers() {
        let (counts, cells) = testutil::sample_cells(6);
        let (s, cursors) = build(&counts, &cells, DiskModel::FREE, VPageCodec::Delta).unwrap();
        let mut ctx = session(cursors);
        s.enter_cell(&mut ctx, 0).unwrap();
        assert!(s.fetch(&mut ctx, 1).unwrap().is_none()); // odd node hidden in cell 0
        s.enter_cell(&mut ctx, 1).unwrap();
        assert!(s.fetch(&mut ctx, 1).unwrap().is_some()); // visible in cell 1
    }
}
