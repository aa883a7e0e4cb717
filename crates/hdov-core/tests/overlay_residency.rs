//! Residency semantics of the decoded-overlay cache, and of node pages,
//! which are read in place and never decoded:
//!
//! (a) a V-page frame's decoded overlay is dropped exactly when the frame
//!     is evicted — no unbounded decoded-object memory — while data an
//!     active session still holds stays alive through its own `Arc`;
//! (b) after a fig7/fig8-style η sweep, every pooled V-page overlay equals
//!     a fresh decode of its frame's bytes (the overlay is pure CPU
//!     memoization, never a different answer), and every pooled node page
//!     read in place equals `HdovNode::decode` of its bytes;
//! (c) node frames never gain an overlay, and node reads record no decode
//!     counters, however many sessions share the frames.
//!
//! The obs registry is process-wide, so every test serializes on one lock;
//! only (c) enables recording, inside its critical section.

use std::sync::{Arc, Mutex, MutexGuard};

use hdov_core::{
    HdovBuildConfig, HdovEnvironment, HdovNode, PoolConfig, SessionCtx, SharedEnvironment,
    StorageScheme, VEntry, VPage, VPageCodec,
};
use hdov_scene::{CityConfig, Scene};
use hdov_storage::{DiskModel, IoCursor, PageId, PAGE_SIZE};
use hdov_visibility::{CellGridConfig, CellId};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scene() -> Scene {
    CityConfig::tiny().seed(9).generate()
}

fn shared_env(scene: &Scene, scheme: StorageScheme, pool: PoolConfig) -> SharedEnvironment {
    let grid_cfg = CellGridConfig::for_scene(scene).with_resolution(3, 3);
    HdovEnvironment::build(scene, &grid_cfg, HdovBuildConfig::fast_test(), scheme)
        .unwrap()
        .into_shared(pool)
}

/// One cell of `n` visible nodes whose V-page records each fill a whole disk
/// page (a 500-entry capacity makes `record_bytes` 4004 of 4096), so record
/// `k` lives alone on disk page `k` and evictions can be steered per record.
fn one_record_per_page_store(n: u32) -> (Vec<u16>, Vec<Vec<(u32, VPage)>>) {
    let mut counts = vec![2u16; n as usize];
    counts[0] = 500;
    let cell = (0..n)
        .map(|o| {
            (
                o,
                VPage::new(vec![
                    VEntry {
                        dov: 0.5,
                        nvo: o + 1
                    };
                    2
                ]),
            )
        })
        .collect();
    (counts, vec![cell])
}

/// Delta-codec store: every node carries a full-width 56-entry V-page with
/// spread-out NVOs, so the fixed Delta record slot is a few hundred bytes
/// and several records share each disk page (unlike the Raw helper above,
/// Delta records can never fill a whole page — the raw-fallback bound caps
/// them at `1 + 4 + 8·n` bytes).
fn wide_delta_store(n: u32) -> (Vec<u16>, Vec<Vec<(u32, VPage)>>) {
    let counts = vec![56u16; n as usize];
    let cell = (0..n)
        .map(|o| {
            (
                o,
                VPage::new(
                    (0..56)
                        .map(|i| VEntry {
                            dov: 0.5 + (i as f32) * 0.001,
                            nvo: o.wrapping_mul(977).wrapping_add(i * 31) % 100_000,
                        })
                        .collect(),
                ),
            )
        })
        .collect();
    (counts, vec![cell])
}

#[test]
fn overlay_dropped_exactly_on_frame_eviction() {
    let _g = serial();
    let (counts, cells) = one_record_per_page_store(8);
    let store = StorageScheme::Vertical
        .build(&counts, &cells, DiskModel::PAPER_ERA, VPageCodec::Raw)
        .unwrap();
    // A single-shard two-frame V-page pool: reading three distinct pages is
    // guaranteed to evict the oldest.
    let vs = store.0.with_pools(PoolConfig {
        capacity_pages: 2,
        shards: 1,
        ..PoolConfig::default()
    });

    let mut ctx = SessionCtx::new();
    vs.enter_cell(&mut ctx, 0).unwrap();
    let v0 = vs.fetch(&mut ctx, 0).unwrap().unwrap();

    // While the frame is resident its overlay is populated, and every fetch
    // of the record shares the one decoded Arc.
    let frame = vs
        .vpages()
        .pool()
        .read_frame(&mut ctx.vpage_cur, PageId(0))
        .unwrap();
    assert!(frame.has_overlay(), "fetch must have decoded the overlay");
    let weak = Arc::downgrade(&frame);
    drop(frame);
    let v0_again = vs.fetch(&mut ctx, 0).unwrap().unwrap();
    assert!(
        Arc::ptr_eq(&v0, &v0_again),
        "repeat fetch of a resident record must share the decoded Arc"
    );
    assert!(weak.upgrade().is_some(), "frame still pooled");

    // Stream four other pages through the two-frame pool: page 0's frame is
    // evicted, and the frame (with its overlay) dies immediately — the pool
    // held the only long-lived reference.
    for ordinal in 1..5 {
        vs.fetch(&mut ctx, ordinal).unwrap().unwrap();
    }
    assert!(
        weak.upgrade().is_none(),
        "evicted frame (and its overlay) must be dropped at eviction"
    );

    // The session's own Arc keeps the decoded record itself alive...
    assert_eq!(*v0, *v0_again);
    // ...and re-reading the page decodes afresh into a new Arc.
    let v0_redecoded = vs.fetch(&mut ctx, 0).unwrap().unwrap();
    assert!(
        !Arc::ptr_eq(&v0, &v0_redecoded),
        "a re-pooled frame starts with an empty overlay slot"
    );
    assert_eq!(*v0, *v0_redecoded, "re-decode must agree");
}

#[test]
fn overlay_eviction_semantics_hold_under_delta_codec() {
    let _g = serial();
    let (counts, cells) = wide_delta_store(120);
    let store = StorageScheme::Vertical
        .build(&counts, &cells, DiskModel::PAPER_ERA, VPageCodec::Delta)
        .unwrap();
    let vs = store.0.with_pools(PoolConfig {
        capacity_pages: 2,
        shards: 1,
        ..PoolConfig::default()
    });

    let mut ctx = SessionCtx::new();
    vs.enter_cell(&mut ctx, 0).unwrap();
    // Vertical append order == ordinal here (one cell, all visible), so
    // record index k lives on disk page `disk_page_of(k)`.
    let v0 = vs.fetch(&mut ctx, 0).unwrap().unwrap();
    assert_eq!(*v0, cells[0][0].1, "batch decode must reproduce the page");

    let frame = vs
        .vpages()
        .pool()
        .read_frame(&mut ctx.vpage_cur, PageId(vs.vpages().disk_page_of(0)))
        .unwrap();
    assert!(
        frame.has_overlay(),
        "fetch must have batch-decoded the overlay"
    );
    let weak = Arc::downgrade(&frame);
    drop(frame);
    let v0_again = vs.fetch(&mut ctx, 0).unwrap().unwrap();
    assert!(
        Arc::ptr_eq(&v0, &v0_again),
        "repeat fetch of a resident record must share the decoded Arc"
    );
    // A neighbouring record on the same disk page shares the one batch
    // decode: no per-record decode work while the frame is resident.
    let same_page_neighbour = (1..120u32)
        .find(|&o| vs.vpages().disk_page_of(o as u64) == vs.vpages().disk_page_of(0))
        .expect("several delta records share a page");
    let vn = vs.fetch(&mut ctx, same_page_neighbour).unwrap().unwrap();
    assert_eq!(*vn, cells[0][same_page_neighbour as usize].1);

    // Stream records from four other disk pages through the two-frame pool:
    // page 0's frame — and its decoded overlay — dies at eviction.
    let mut seen = std::collections::HashSet::new();
    for o in 1..120u32 {
        let p = vs.vpages().disk_page_of(o as u64);
        if p != vs.vpages().disk_page_of(0) && seen.insert(p) {
            let got = vs.fetch(&mut ctx, o).unwrap().unwrap();
            assert_eq!(*got, cells[0][o as usize].1);
        }
        if seen.len() >= 4 {
            break;
        }
    }
    assert!(seen.len() >= 4, "store too small to steer eviction");
    assert!(
        weak.upgrade().is_none(),
        "evicted frame (and its overlay) must be dropped at eviction"
    );
    let v0_redecoded = vs.fetch(&mut ctx, 0).unwrap().unwrap();
    assert!(!Arc::ptr_eq(&v0, &v0_redecoded));
    assert_eq!(*v0, *v0_redecoded, "delta re-decode must agree");
}

#[test]
fn node_frames_never_gain_an_overlay() {
    let _g = serial();
    let scene = scene();
    for scheme in StorageScheme::all() {
        let env = shared_env(&scene, scheme, PoolConfig::default());
        let mut ctx = env.session();
        for cell in 0..env.grid().cell_count() as CellId {
            env.query_cell(&mut ctx, cell, 0.002).unwrap();
        }
        let nodes = env.tree().node_pool();
        let mut cur = IoCursor::new();
        let mut resident = 0;
        for id in (0..nodes.page_count()).map(PageId) {
            if nodes.contains(id) {
                let frame = nodes.read_frame(&mut cur, id).unwrap();
                assert!(!frame.has_overlay(), "{scheme}: node {id} decoded");
                resident += 1;
            }
        }
        assert!(resident > 0, "{scheme}: the sweep must leave node frames");
    }
}

/// The node-page oracle: every pooled node page, read in place through
/// `SharedTree::read_node`, equals a fresh `HdovNode::decode` of its
/// frame's bytes, header and entries, bit for bit. Returns the number of
/// pages checked.
fn check_node_pages_against_fresh_decodes(env: &SharedEnvironment) -> usize {
    let mut cur = IoCursor::new();
    let mut checked = 0;
    let tree = env.tree();
    let nodes = tree.node_pool();
    for id in (0..nodes.page_count()).map(PageId) {
        if !nodes.contains(id) {
            continue;
        }
        let frame = nodes.read_frame(&mut cur, id).unwrap();
        let fresh = HdovNode::decode(frame.bytes()).unwrap();
        let view = tree.read_node(&mut cur, id.0 as u32).unwrap();
        let header = (view.ordinal(), view.is_leaf(), view.leaf_descendants());
        let want = (fresh.ordinal, fresh.is_leaf, fresh.leaf_descendants);
        assert_eq!(header, want, "{id}");
        assert_eq!(view.height(), fresh.height, "{id}");
        assert_eq!(view.len(), fresh.entries.len(), "{id}");
        for (got, want) in view.entries().zip(&fresh.entries) {
            assert_eq!(got, *want, "{id}");
        }
        assert!(!frame.has_overlay(), "{id}: read in place, never decoded");
        checked += 1;
    }
    checked
}

/// The overlay oracle: every pooled V-page frame whose overlay is
/// populated holds exactly what a fresh `VPageCodec::decode_record` of the
/// frame's bytes gives. Returns the number of overlays checked.
fn check_overlays_against_fresh_decodes(env: &SharedEnvironment) -> usize {
    let mut cur = IoCursor::new();
    let mut checked = 0;
    let vpages = env.vstore().vpages();
    let (rb, codec) = (vpages.record_bytes(), vpages.codec());
    for id in (0..vpages.pool().page_count()).map(PageId) {
        if !vpages.pool().contains(id) {
            continue;
        }
        let frame = vpages.pool().read_frame(&mut cur, id).unwrap();
        if frame.has_overlay() {
            let decoded = |_: &[u8]| unreachable!("decoded");
            frame
                .with_overlay(decoded, |pooled: &Vec<Arc<VPage>>| {
                    for (slot, vp) in pooled.iter().enumerate() {
                        let fresh = codec.decode_record(&frame.bytes()[slot * rb..(slot + 1) * rb]);
                        assert_eq!(**vp, fresh.unwrap(), "{id} slot {slot}");
                    }
                })
                .unwrap();
            checked += 1;
        }
    }
    checked
}

#[test]
fn pooled_overlays_equal_fresh_decodes() {
    let _g = serial();
    let scene = scene();
    for scheme in StorageScheme::all() {
        // A pool smaller than the node and V-page files, so the sweep
        // evicts and re-decodes frames.
        let env = shared_env(
            &scene,
            scheme,
            PoolConfig {
                capacity_pages: 16,
                shards: 2,
                ..PoolConfig::default()
            },
        );
        let mut ctx = env.session();
        for eta in [0.0, 0.002, 0.01] {
            for cell in 0..env.grid().cell_count() as CellId {
                env.query_cell(&mut ctx, cell, eta).unwrap();
            }
            let checked = check_overlays_against_fresh_decodes(&env);
            assert!(checked > 0, "{scheme}: the sweep must leave decoded frames");
            let nodes = check_node_pages_against_fresh_decodes(&env);
            assert!(nodes > 0, "{scheme}: the sweep must leave node frames");
        }
    }
}

#[test]
fn node_reads_record_no_decode_counters() {
    let _g = serial();
    const SESSIONS: u32 = 4;
    let scene = scene();
    // Pool big enough that no node page is ever evicted: each page is then
    // loaded exactly once across every session.
    let env = shared_env(
        &scene,
        StorageScheme::IndexedVertical,
        PoolConfig {
            capacity_pages: 4096,
            shards: 8,
            ..PoolConfig::default()
        },
    );
    let n = env.tree().node_count();

    hdov_obs::reset();
    hdov_obs::enable();
    std::thread::scope(|s| {
        for _ in 0..SESSIONS {
            let env = &env;
            s.spawn(move || {
                let mut cur = IoCursor::new();
                for ordinal in 0..n {
                    let node = env.tree().read_node(&mut cur, ordinal).unwrap();
                    assert_eq!(node.ordinal(), ordinal);
                }
            });
        }
    });
    hdov_obs::disable();
    let snap = hdov_obs::snapshot("overlay_residency");
    hdov_obs::reset();

    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let reads = u64::from(SESSIONS) * u64::from(n);
    // Node pages are read in place: no decode is run or counted, while the
    // pool's own accounting is unchanged — one miss per frame load, one
    // hit per shared reuse.
    assert_eq!(counter("decode_hits"), 0);
    assert_eq!(counter("decode_misses"), 0);
    assert_eq!(counter("pool_hits") + counter("pool_misses"), reads);
    assert_eq!(
        counter("pool_misses"),
        u64::from(n),
        "every node page loads exactly once across all sessions"
    );
    assert_eq!(
        counter("bytes_copied_saved"),
        reads * PAGE_SIZE as u64,
        "every frame read saves one page memcpy"
    );
}
