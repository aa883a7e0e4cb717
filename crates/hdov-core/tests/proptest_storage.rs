//! Property-based differential tests: the three storage schemes are
//! observationally equivalent on arbitrary sparse visibility data, and
//! their storage formulas stay ordered in the sparse regime.

use hdov_core::{SessionCtx, SharedVStore, StorageScheme, VEntry, VPage, VPageCodec};
use hdov_storage::{DiskModel, IoStats, StorageBackend};
use proptest::prelude::*;

/// A built store plus a session whose cursors start at the build's heads.
fn build(
    scheme: StorageScheme,
    entry_counts: &[u16],
    cells: &[Vec<(u32, VPage)>],
    model: DiskModel,
    codec: VPageCodec,
) -> (SharedVStore, SessionCtx) {
    let (store, [index_cur, vpage_cur]) = scheme.build(entry_counts, cells, model, codec).unwrap();
    let mut ctx = SessionCtx::new();
    ctx.index_cur = index_cur;
    ctx.vpage_cur = vpage_cur;
    (store, ctx)
}

/// The session's visibility-store I/O (V-page index + V-pages).
fn io(ctx: &SessionCtx) -> IoStats {
    ctx.index_cur.stats() + ctx.vpage_cur.stats()
}

/// Arbitrary per-cell sparse visibility data over `n_nodes` nodes.
fn cells_strategy(n_nodes: u32, max_cells: usize) -> impl Strategy<Value = Vec<Vec<(u32, VPage)>>> {
    let cell = prop::collection::btree_map(
        0..n_nodes,
        (0.0f32..1.0, 0u32..50),
        0..(n_nodes as usize).min(40),
    )
    .prop_map(|m| {
        m.into_iter()
            .map(|(ordinal, (dov, nvo))| {
                let entries = vec![
                    VEntry {
                        dov: dov.max(1e-6),
                        nvo: nvo + 1,
                    };
                    ((ordinal % 7) + 2) as usize
                ];
                (ordinal, VPage::new(entries))
            })
            .collect::<Vec<_>>()
    });
    prop::collection::vec(cell, 1..max_cells)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn schemes_agree_on_every_fetch(cells in cells_strategy(60, 8)) {
        let entry_counts: Vec<u16> = (0..60u32).map(|n| ((n % 7) + 2) as u16).collect();
        let mut stores: Vec<_> = StorageScheme::all()
            .into_iter()
            .map(|s| build(s, &entry_counts, &cells, DiskModel::FREE, VPageCodec::Delta))
            .collect();
        for (cid, cell) in cells.iter().enumerate() {
            for (store, ctx) in stores.iter_mut() {
                store.enter_cell(ctx, cid as u32).unwrap();
            }
            let expected: std::collections::HashMap<u32, &VPage> =
                cell.iter().map(|(o, v)| (*o, v)).collect();
            for n in 0..60u32 {
                let answers: Vec<Option<VPage>> = stores
                    .iter_mut()
                    .map(|(s, ctx)| s.fetch(ctx, n).unwrap().map(|v| (*v).clone()))
                    .collect();
                match expected.get(&n) {
                    Some(want) => {
                        for (a, s) in answers.iter().zip(StorageScheme::all()) {
                            prop_assert_eq!(
                                a.as_ref(),
                                Some(*want),
                                "{} wrong for visible node {} in cell {}",
                                s, n, cid
                            );
                        }
                    }
                    None => {
                        for (a, s) in answers.iter().zip(StorageScheme::all()) {
                            match a {
                                None => {}
                                Some(vp) => prop_assert!(
                                    !vp.any_visible(),
                                    "{} leaked visibility for hidden node {} in cell {}",
                                    s, n, cid
                                ),
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn revisiting_cells_is_stable(cells in cells_strategy(40, 6), order in prop::collection::vec(0usize..6, 1..20)) {
        let entry_counts: Vec<u16> = (0..40u32).map(|n| ((n % 7) + 2) as u16).collect();
        let (store, mut ctx) = build(
            StorageScheme::IndexedVertical,
            &entry_counts,
            &cells,
            DiskModel::FREE,
            VPageCodec::Delta,
        );
        for &raw in &order {
            let cid = raw % cells.len();
            store.enter_cell(&mut ctx, cid as u32).unwrap();
            let expected: std::collections::HashMap<u32, &VPage> =
                cells[cid].iter().map(|(o, v)| (*o, v)).collect();
            for n in 0..40u32 {
                let got = store.fetch(&mut ctx, n).unwrap();
                prop_assert_eq!(got.as_deref(), expected.get(&n).copied(), "cell {} node {}", cid, n);
            }
        }
    }

    #[test]
    fn file_roundtrip_preserves_every_answer(cells in cells_strategy(40, 5)) {
        // Build → serialize → reopen for positioned reads: every fetch and
        // every simulated I/O charge must match the never-serialized twin,
        // for all three schemes, on arbitrary sparse data.
        let entry_counts: Vec<u16> = (0..40u32).map(|n| ((n % 7) + 2) as u16).collect();
        let dir = std::env::temp_dir()
            .join(format!("hdov_proptest_roundtrip_{}", std::process::id()));
        for scheme in StorageScheme::all() {
            let (mem, mut mem_ctx) =
                build(scheme, &entry_counts, &cells, DiskModel::PAPER_ERA, VPageCodec::Delta);
            let backend = StorageBackend::file(dir.join(scheme.to_string()));
            let (filed, mut filed_ctx) =
                build(scheme, &entry_counts, &cells, DiskModel::PAPER_ERA, VPageCodec::Delta);
            let filed = filed.relocated(&backend).unwrap();
            for cid in 0..cells.len() as u32 {
                mem.enter_cell(&mut mem_ctx, cid).unwrap();
                filed.enter_cell(&mut filed_ctx, cid).unwrap();
                for n in 0..40u32 {
                    prop_assert_eq!(
                        mem.fetch(&mut mem_ctx, n).unwrap(),
                        filed.fetch(&mut filed_ctx, n).unwrap(),
                        "{} node {} cell {} diverged after the file round-trip",
                        scheme, n, cid
                    );
                }
            }
            prop_assert_eq!(io(&mem_ctx), io(&filed_ctx), "{} I/O charges", scheme);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn storage_formulas_consistent(cells in cells_strategy(80, 6)) {
        let entry_counts: Vec<u16> = (0..80u32).map(|n| ((n % 7) + 2) as u16).collect();
        let vnode_total: u64 = cells.iter().map(|c| c.len() as u64).sum();
        let max_entries = *entry_counts.iter().max().unwrap() as u64;
        let vpage = 4 + 8 * max_entries;
        let c = cells.len() as u64;

        let (h, _) = StorageScheme::Horizontal
            .build(&entry_counts, &cells, DiskModel::FREE, VPageCodec::Raw)
            .unwrap();
        prop_assert_eq!(h.storage_bytes(), vpage * c * 80);

        let (v, _) = StorageScheme::Vertical
            .build(&entry_counts, &cells, DiskModel::FREE, VPageCodec::Raw)
            .unwrap();
        prop_assert_eq!(v.storage_bytes(), 8 * 80 * c + vpage * vnode_total);

        let (iv, _) = StorageScheme::IndexedVertical
            .build(&entry_counts, &cells, DiskModel::FREE, VPageCodec::Raw)
            .unwrap();
        prop_assert_eq!(iv.storage_bytes(), (12 + vpage) * vnode_total);
    }
}
