//! `decode_bench` — microbenchmarks of the zero-copy hot read path.
//!
//! Three groups measure what the `Arc<Frame>` read path costs on pool
//! hits, and one what a pool miss costs:
//!
//! * `frame_hit_arc_clone` vs `page_hit_memcpy`: handing back the pooled
//!   frame vs copying its bytes into a caller buffer;
//! * `node_page/in_place` vs `node_page/decode`: reading every entry of
//!   every node through the in-place `NodePage` view vs running
//!   `HdovNode::decode` on the pooled frame's bytes per read;
//! * `search_steady/overlay_on`: a full steady-state query sweep over warm
//!   pools;
//! * `pool_miss/mem_shared`: one miss through a full mem pool, which admits
//!   the store's shared frame of the page.
//!
//! Kept deliberately small (tiny scene, fast build) so the CI perf gate can
//! run it as a smoke test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdov_core::{
    HdovBuildConfig, HdovEnvironment, HdovNode, PoolConfig, Query, SearchScratch,
    SharedEnvironment, StorageScheme, VEntry, VPage, VPageCodec,
};
use hdov_scene::CityConfig;
use hdov_storage::{
    DiskModel, FrozenPages, IoCursor, MemPagedFile, Page, PageId, PagedFile, SharedCachedFile,
    PAGE_SIZE,
};
use hdov_visibility::{CellGridConfig, CellId};
use std::hint::black_box;

fn shared_env() -> SharedEnvironment {
    let scene = CityConfig::tiny().seed(11).generate();
    let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(3, 3);
    HdovEnvironment::build(
        &scene,
        &grid_cfg,
        HdovBuildConfig::fast_test(),
        StorageScheme::IndexedVertical,
    )
    .unwrap()
    .into_shared(PoolConfig {
        capacity_pages: 4096,
        shards: 8,
        ..PoolConfig::default()
    })
}

/// Pool hit served as an `Arc` clone vs copied into a caller-owned page.
fn frame_vs_copy(c: &mut Criterion) {
    let env = shared_env();
    let pool = env.vstore().vpages().pool();
    let mut cur = IoCursor::new();
    pool.read_frame(&mut cur, PageId(0)).unwrap(); // warm

    c.bench_function("decode/frame_hit_arc_clone", |b| {
        b.iter(|| black_box(pool.read_frame(&mut cur, PageId(0)).unwrap()))
    });

    let mut out = Page::zeroed();
    c.bench_function("decode/page_hit_memcpy", |b| {
        b.iter(|| {
            let frame = pool.read_frame(&mut cur, PageId(0)).unwrap();
            out.bytes_mut().copy_from_slice(frame.bytes());
            black_box(out.bytes()[0])
        })
    });
}

/// Every entry of every node read in place from the pooled frame vs
/// decoded from its bytes into an owned node on every read.
/// `decode/node_page/in_place` is gated by the CI perf job against the
/// checked-in budget in `ci/decode_budget.toml`.
fn node_page(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode/node_page");
    let env = shared_env();
    let tree = env.tree();
    let n = tree.node_count();
    let mut cur = IoCursor::new();
    for ordinal in 0..n {
        tree.read_node(&mut cur, ordinal).unwrap(); // warm
    }
    group.bench_function(BenchmarkId::from_parameter("in_place"), |b| {
        b.iter(|| {
            let mut children = 0u64;
            for ordinal in 0..n {
                let node = tree.read_node(&mut cur, ordinal).unwrap();
                children += node.entries().map(|e| e.child).sum::<u64>();
            }
            black_box(children)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("decode"), |b| {
        b.iter(|| {
            let mut children = 0u64;
            for ordinal in 0..n {
                let frame = tree
                    .node_pool()
                    .read_frame(&mut cur, PageId(u64::from(ordinal)))
                    .unwrap();
                let node = HdovNode::decode(frame.bytes()).unwrap();
                children += node.entries.iter().map(|e| e.child).sum::<u64>();
            }
            black_box(children)
        })
    });
    group.finish();
}

/// Steady-state query sweep over warm pools: the end-to-end hit path.
fn search_steady(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode/search_steady");
    let env = shared_env();
    let cells: Vec<CellId> = (0..env.grid().cell_count() as CellId).collect();
    let mut ctx = env.session();
    let mut scratch = SearchScratch::new();
    let query = |cell| Query {
        prefetch: true,
        ..Query::new(cell, 0.002)
    };
    for &cell in &cells {
        env.search(&mut ctx, &mut scratch, query(cell)).unwrap();
    }
    group.bench_function(BenchmarkId::from_parameter("overlay_on"), |b| {
        b.iter(|| {
            let mut polygons = 0u64;
            for &cell in &cells {
                env.search(&mut ctx, &mut scratch, query(cell)).unwrap();
                polygons += scratch.result().total_polygons();
            }
            black_box(polygons)
        })
    });
    group.finish();
}

/// Batch decode of one disk page worth of V-page records — the per-frame
/// CPU the codec adds on a pool miss (the decoded-overlay closure's loop).
/// `decode/vpage_batch/delta` is gated by the CI perf job against the
/// checked-in budget in `ci/decode_budget.toml`.
fn vpage_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode/vpage_batch");
    for codec in [VPageCodec::Raw, VPageCodec::Delta] {
        // Paper-regime pages: ascending NVOs with small gaps, all visible.
        let pages: Vec<VPage> = (0..128u32)
            .map(|p| {
                let mut nvo = 0u32;
                VPage::new(
                    (0..12u32)
                        .map(|i| {
                            nvo += 1 + (p + i) % 7;
                            VEntry {
                                dov: 0.3 + i as f32 * 0.01,
                                nvo,
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let record_bytes = pages.iter().map(|vp| codec.record_len(vp)).max().unwrap();
        let rpp = (PAGE_SIZE / record_bytes).max(1).min(pages.len());
        let mut buf = vec![0u8; PAGE_SIZE];
        for (slot, vp) in pages.iter().take(rpp).enumerate() {
            let rec = codec.encode_record(vp, record_bytes).unwrap();
            buf[slot * record_bytes..(slot + 1) * record_bytes].copy_from_slice(&rec);
        }
        group.bench_function(BenchmarkId::from_parameter(codec.label()), |b| {
            b.iter(|| {
                let mut entries = 0usize;
                for slot in 0..rpp {
                    entries += codec
                        .decode_record(&buf[slot * record_bytes..(slot + 1) * record_bytes])
                        .unwrap()
                        .entries
                        .len();
                }
                black_box(entries)
            })
        });
    }
    group.finish();
}

/// A cyclic miss stream through a full mem pool, one miss per iteration:
/// each miss admits the store's shared frame of the page (no hash, no copy,
/// no allocation), charges the cursor and evicts the shard's LRU frame.
/// `decode/pool_miss/mem_shared` is gated by the CI perf job against the
/// checked-in budget in `ci/decode_budget.toml`.
fn pool_miss(c: &mut Criterion) {
    const PAGES: u64 = 256;
    let mut group = c.benchmark_group("decode/pool_miss");
    let mut file = MemPagedFile::new();
    for id in 0..PAGES {
        file.append_page(&Page::from_bytes(&id.to_le_bytes()))
            .unwrap();
    }
    // A scan over 4× the pool's capacity: every read misses.
    let pool = SharedCachedFile::new(FrozenPages::from_mem(file), DiskModel::PAPER_ERA, 64, 8);
    let mut cur = IoCursor::new();
    let mut next = 0;
    group.bench_function(BenchmarkId::from_parameter("mem_shared"), |b| {
        b.iter(|| {
            next = (next + 1) % PAGES;
            black_box(pool.read_frame(&mut cur, PageId(next)).unwrap())
        })
    });
    group.finish();
    let (hits, _) = pool.hit_stats();
    assert_eq!(hits, 0, "every read must miss");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = frame_vs_copy, node_page, search_steady, vpage_batch, pool_miss
}
criterion_main!(benches);
