//! Residency semantics of the decoded-overlay cache, and of node pages,
//! which are read in place and never decoded:
//!
//! (a) on a mem store, a V-page page's decoded overlay lives in the
//!     store's one frame of the page: it is decoded once per store, shared
//!     by every pool and fork over it, and outlives eviction (at most one
//!     overlay per distinct page). A pool's own copy (a copied miss) drops
//!     its overlay exactly when it is evicted, while data an active
//!     session still holds stays alive through its own `Arc`;
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
    SharedVStore, StorageScheme, VEntry, VPage, VPageCodec,
};
use hdov_scene::{CityConfig, Scene};
use hdov_storage::{DiskModel, FaultPlan, IoCursor, PageId, PAGE_SIZE};
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

/// `store` behind a single-shard two-frame pool: reading three distinct
/// pages is guaranteed to evict the oldest.
fn two_frame_pools(store: &SharedVStore) -> SharedVStore {
    store.with_pools(PoolConfig {
        capacity_pages: 2,
        shards: 1,
        ..PoolConfig::default()
    })
}

/// A session of `vs` in its one cell.
fn session(vs: &SharedVStore) -> SessionCtx {
    let mut ctx = SessionCtx::new();
    vs.enter_cell(&mut ctx, 0).unwrap();
    ctx
}

/// The overlay lifetime of record 0 of `store`, a mem V-page store of one
/// cell; each record of `others` lives on a disk page of its own other than
/// record 0's, so fetching them through a two-frame pool evicts record 0's
/// page.
///
/// The store owns one frame per distinct page, so its one decoded overlay
/// is shared by two pools and a fork and outlives eviction. A copied miss
/// (faults armed) decodes into the pool's own frame, which dies, overlay
/// and all, at eviction.
fn check_overlay_lifetime(store: &SharedVStore, others: &[u32]) -> Arc<VPage> {
    let page0 = PageId(store.vpages().disk_page_of(0));
    let (a, b) = (two_frame_pools(store), two_frame_pools(store));
    let (mut ca, mut cb) = (session(&a), session(&b));
    let v0 = a.fetch(&mut ca, 0).unwrap().unwrap();
    let frame = a
        .vpages()
        .pool()
        .read_frame(&mut ca.vpage_cur, page0)
        .unwrap();
    assert!(frame.has_overlay(), "fetch must have decoded the overlay");
    for &o in others {
        a.fetch(&mut ca, o).unwrap().unwrap();
    }
    assert!(!a.vpages().pool().contains(page0), "page 0 must be evicted");
    assert!(frame.has_overlay(), "the store's frame keeps its overlay");
    let forked = a
        .vpages()
        .pool()
        .fork()
        .read_frame(&mut IoCursor::new(), page0)
        .unwrap();
    assert!(Arc::ptr_eq(&frame, &forked), "a fork admits the same frame");
    for got in [a.fetch(&mut ca, 0), b.fetch(&mut cb, 0)] {
        let got = got.unwrap().unwrap();
        assert!(Arc::ptr_eq(&v0, &got), "one decode per page per store");
    }

    // An armed plan that injects nothing: every miss copies.
    let c = two_frame_pools(store);
    c.vpages().pool().arm_faults(&FaultPlan::default());
    let mut cc = session(&c);
    let c0 = c.fetch(&mut cc, 0).unwrap().unwrap();
    assert!(!Arc::ptr_eq(&v0, &c0), "a copy decodes on its own");
    assert_eq!(*v0, *c0);
    let copy = c
        .vpages()
        .pool()
        .read_frame(&mut cc.vpage_cur, page0)
        .unwrap();
    assert!(copy.has_overlay() && !Arc::ptr_eq(&copy, &frame));
    let weak = Arc::downgrade(&copy);
    drop(copy);
    for &o in others {
        c.fetch(&mut cc, o).unwrap().unwrap();
    }
    assert!(
        weak.upgrade().is_none(),
        "an evicted copy (and its overlay) must be dropped at eviction"
    );
    // The session's own Arc keeps the decoded record alive, and re-reading
    // the page decodes afresh into a new Arc.
    let again = c.fetch(&mut cc, 0).unwrap().unwrap();
    assert!(!Arc::ptr_eq(&c0, &again));
    assert_eq!(*c0, *again, "re-decode must agree");
    v0
}

#[test]
fn mem_overlays_live_with_the_store_and_copies_die_at_eviction() {
    let _g = serial();
    let (counts, cells) = one_record_per_page_store(8);
    let store = StorageScheme::Vertical
        .build(&counts, &cells, DiskModel::PAPER_ERA, VPageCodec::Raw)
        .unwrap();
    assert_eq!(store.0.vpages().disk_page_of(4), 4, "one record per page");
    let v0 = check_overlay_lifetime(&store.0, &[1, 2, 3, 4]);
    assert_eq!(*v0, cells[0][0].1);
}

#[test]
fn overlay_lifetime_holds_under_delta_codec() {
    let _g = serial();
    let (counts, cells) = wide_delta_store(120);
    let store = StorageScheme::Vertical
        .build(&counts, &cells, DiskModel::PAPER_ERA, VPageCodec::Delta)
        .unwrap();
    // Vertical append order == ordinal here (one cell, all visible), so
    // record index k lives on disk page `disk_page_of(k)`.
    let vpages = store.0.vpages();
    let page_of = |o: u32| vpages.disk_page_of(u64::from(o));
    let mut seen = std::collections::HashSet::from([page_of(0)]);
    let others: Vec<u32> = (1..120u32)
        .filter(|&o| seen.insert(page_of(o)))
        .take(4)
        .collect();
    assert_eq!(others.len(), 4, "store too small to steer eviction");
    let v0 = check_overlay_lifetime(&store.0, &others);
    assert_eq!(*v0, cells[0][0].1, "batch decode must reproduce the page");

    // A neighbouring record on the same disk page is served from the one
    // batch decode.
    let vs = two_frame_pools(&store.0);
    let mut ctx = session(&vs);
    let neighbour = (1..120u32)
        .find(|&o| page_of(o) == page_of(0))
        .expect("several delta records share a page");
    let vn = vs.fetch(&mut ctx, neighbour).unwrap().unwrap();
    assert_eq!(*vn, cells[0][neighbour as usize].1);
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
