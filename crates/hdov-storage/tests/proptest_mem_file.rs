//! Property test for the content-interned [`MemPagedFile`].
//!
//! Random allocate/write/overwrite scripts run against a plain
//! `Vec<Vec<u8>>` model. Contents come from a tiny alphabet (tag 0 is the
//! zero page), so slots collide on equal bytes all the time. Every read must
//! match the model, and the file must keep exactly one allocation per
//! distinct live content, frozen with its checksum: no duplicate copies
//! and no stale versions.

use hdov_storage::{page_checksum, MemPagedFile, Page, PageId, PagedFile, PAGE_SIZE};
use proptest::prelude::*;
use std::collections::HashSet;

/// The page for content `tag`: all zeros for 0, else the tag at both ends.
fn content(tag: u8) -> Vec<u8> {
    let mut bytes = vec![0u8; PAGE_SIZE];
    bytes[0] = tag;
    bytes[PAGE_SIZE - 1] = tag;
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interned_file_matches_model(
        ops in prop::collection::vec((0u8..3, 0usize..16, 0u8..5), 1..120),
    ) {
        let mut file = MemPagedFile::new();
        let mut model: Vec<Vec<u8>> = Vec::new();
        let mut out = Page::zeroed();
        for &(op, slot, tag) in &ops {
            if op == 0 || model.is_empty() {
                let id = file.allocate_page().unwrap();
                prop_assert_eq!(id, PageId(model.len() as u64));
                model.push(vec![0u8; PAGE_SIZE]);
            } else {
                let i = slot % model.len();
                let bytes = content(tag);
                file.write_page(PageId(i as u64), &Page::from_bytes(&bytes)).unwrap();
                model[i] = bytes;
            }
            for (i, want) in model.iter().enumerate() {
                file.read_page(PageId(i as u64), &mut out).unwrap();
                prop_assert_eq!(out.bytes(), &want[..], "page {} after {:?}", i, (op, slot, tag));
            }
        }
        prop_assert_eq!(file.page_count(), model.len() as u64);
        let shared = file.into_shared();
        let contents: HashSet<&Vec<u8>> = model.iter().collect();
        prop_assert_eq!(shared.pages.len(), contents.len());
        for (i, want) in model.iter().enumerate() {
            let page = &shared.pages[shared.table[i] as usize];
            prop_assert_eq!(page.frame().bytes(), &want[..]);
            prop_assert_eq!(page.checksum(), page_checksum(want));
        }
    }
}
