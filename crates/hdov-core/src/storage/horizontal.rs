//! The horizontal storage scheme (paper §4.1).
//!
//! "The most straightforward scheme is to store a pointer in each node
//! pointing to a list of visibility data, which is indexed by the cell ID
//! number." Every `(node, cell)` pair gets a V-page — including hidden
//! nodes — so a visibility query on a node always costs exactly one V-page
//! access, but the storage is `size_vpage · c · N_node` and, because the
//! layout is node-major, the V-pages touched by one cell's query are
//! scattered (extra seeks: the paper's Fig. 7 worst case).

use super::{record_bytes_for, VPageFile};
use crate::shared::{SharedHorizontal, SharedVStore};
use crate::vpage::{VEntry, VPage, VPageCodec};
use hdov_storage::{DiskModel, IoCursor, Result};

/// Builds the store (record index = `ordinal · c + cell`); see
/// [`StorageScheme::build`](super::StorageScheme::build) for argument
/// conventions.
pub(crate) fn build(
    entry_counts: &[u16],
    cells: &[Vec<(u32, VPage)>],
    model: DiskModel,
    codec: VPageCodec,
) -> Result<(SharedVStore, [IoCursor; 2])> {
    let n_nodes = entry_counts.len() as u32;
    let max_entries = entry_counts.iter().copied().max().unwrap_or(1) as usize;
    // Hidden placeholders are stored too, so they participate in slot
    // sizing under the delta codec.
    let record_bytes = record_bytes_for(codec, max_entries, entry_counts, cells, true);
    let mut vpages = VPageFile::new(model, codec, record_bytes);
    // Node-major: for each node, a run of `c` V-pages indexed by cell.
    for n in 0..n_nodes {
        // Sparse lookup per cell.
        for cell in cells.iter() {
            let vp = match cell.binary_search_by_key(&n, |&(o, _)| o) {
                Ok(i) => cell[i].1.clone(),
                Err(_) => VPage::new(vec![VEntry::HIDDEN; entry_counts[n as usize] as usize]),
            };
            vpages.append(&vp)?;
        }
    }
    let (vpages, vpage_cur) = vpages.freeze()?;
    let store = SharedVStore::Horizontal(SharedHorizontal {
        vpages,
        cells: cells.len() as u32,
        n_nodes,
    });
    Ok((store, [IoCursor::new(), vpage_cur]))
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
    fn reads_are_charged_per_distinct_disk_page() {
        let (counts, cells) = testutil::sample_cells(120);
        let (s, cursors) = build(&counts, &cells, DiskModel::PAPER_ERA, VPageCodec::Raw).unwrap();
        let mut ctx = session(cursors);
        s.enter_cell(&mut ctx, 0).unwrap();
        testutil::reset(&mut ctx);
        // Raw records here are 4 + 8·4 = 36 bytes → 113 per 4 KiB disk
        // page. Fetching every node in cell 0 walks records 0, 3, …, 357
        // (stride = cell count): four distinct disk pages, and the
        // one-page V-page pool makes every same-page fetch after the
        // first one free.
        for n in 0..120 {
            let _ = s.fetch(&mut ctx, n).unwrap();
        }
        assert_eq!(io(&ctx).page_reads, 4);
        // Re-fetching a record on the buffered page is free…
        let _ = s.fetch(&mut ctx, 119).unwrap();
        assert_eq!(io(&ctx).page_reads, 4);
        // …while jumping back to the first page is a real read again.
        let _ = s.fetch(&mut ctx, 0).unwrap();
        assert_eq!(io(&ctx).page_reads, 5);
    }

    #[test]
    fn hidden_nodes_return_hidden_pages() {
        for codec in [VPageCodec::Raw, VPageCodec::Delta] {
            let (counts, cells) = testutil::sample_cells(12);
            let (s, cursors) = build(&counts, &cells, DiskModel::FREE, codec).unwrap();
            let mut ctx = session(cursors);
            s.enter_cell(&mut ctx, 2).unwrap(); // nothing visible
            for n in 0..12 {
                let vp = s.fetch(&mut ctx, n).unwrap().unwrap();
                assert!(!vp.any_visible());
                assert_eq!(vp.entries.len(), counts[n as usize] as usize);
            }
        }
    }

    #[test]
    fn storage_matches_formula() {
        let (counts, cells) = testutil::sample_cells(10);
        let (s, _) = build(&counts, &cells, DiskModel::FREE, VPageCodec::Raw).unwrap();
        let vpage = 4 + 8 * *counts.iter().max().unwrap() as u64;
        assert_eq!(s.storage_bytes(), vpage * 3 * 10);
    }

    #[test]
    fn delta_codec_shrinks_storage_with_identical_answers() {
        let (counts, cells) = testutil::sample_cells(10);
        let (raw, _) = build(&counts, &cells, DiskModel::FREE, VPageCodec::Raw).unwrap();
        let delta = build(&counts, &cells, DiskModel::FREE, VPageCodec::Delta).unwrap();
        assert!(
            delta.0.storage_bytes() < raw.storage_bytes(),
            "delta {} !< raw {}",
            delta.0.storage_bytes(),
            raw.storage_bytes()
        );
        testutil::conformance(delta, &cells, 10);
    }

    #[test]
    #[should_panic]
    fn fetch_before_enter_panics() {
        let (counts, cells) = testutil::sample_cells(4);
        let (s, cursors) = build(&counts, &cells, DiskModel::FREE, VPageCodec::Delta).unwrap();
        let _ = s.fetch(&mut session(cursors), 0);
    }
}
