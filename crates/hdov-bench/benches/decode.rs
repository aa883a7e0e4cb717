//! `decode_bench` — microbenchmarks of the zero-copy hot read path.
//!
//! Three comparisons quantify what the `Arc<Frame>` + decoded-overlay
//! rework buys on pool hits:
//!
//! * `frame_hit_arc_clone` vs `page_hit_memcpy`: handing back the pooled
//!   frame vs copying the page into a caller buffer;
//! * `node_overlay/memoized` vs `node_overlay/rerun`: reading every node
//!   through the memoized overlay vs re-running `HdovNode::decode` per read
//!   (the `decode_overlay: false` A/B arm);
//! * `search_steady/*`: a full steady-state query sweep over warm
//!   pools, overlays on vs off — the end-to-end CPU win.
//!
//! Kept deliberately small (tiny scene, fast build) so the CI perf gate can
//! run it as a smoke test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdov_core::{
    HdovBuildConfig, HdovEnvironment, PoolConfig, Query, SearchScratch, SharedEnvironment,
    StorageScheme, VEntry, VPage, VPageCodec,
};
use hdov_scene::CityConfig;
use hdov_storage::{IoCursor, Page, PageId, PAGE_SIZE};
use hdov_visibility::{CellGridConfig, CellId};
use std::hint::black_box;

fn shared_env(decode_overlay: bool) -> SharedEnvironment {
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
        decode_overlay,
        ..PoolConfig::default()
    })
}

/// Pool hit served as an `Arc` clone vs copied into a caller-owned page.
fn frame_vs_copy(c: &mut Criterion) {
    let env = shared_env(true);
    let pool = env.vstore().vpages().pool();
    let mut cur = IoCursor::new();
    pool.read_frame(&mut cur, PageId(0)).unwrap(); // warm

    c.bench_function("decode/frame_hit_arc_clone", |b| {
        b.iter(|| black_box(pool.read_frame(&mut cur, PageId(0)).unwrap().id()))
    });

    let mut out = Page::zeroed();
    c.bench_function("decode/page_hit_memcpy", |b| {
        b.iter(|| {
            pool.read_page(&mut cur, PageId(0), &mut out).unwrap();
            black_box(out.bytes()[0])
        })
    });
}

/// Every node read through the overlay: memoized decode vs rerun-per-read.
fn node_overlay(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode/node_overlay");
    for (label, overlay) in [("memoized", true), ("rerun", false)] {
        let env = shared_env(overlay);
        let n = env.tree().node_count();
        let mut cur = IoCursor::new();
        for ordinal in 0..n {
            env.tree().read_node(&mut cur, ordinal).unwrap(); // warm
        }
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let mut entries = 0usize;
                for ordinal in 0..n {
                    entries += env
                        .tree()
                        .read_node(&mut cur, ordinal)
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

/// Steady-state query sweep over warm pools: the end-to-end hit path.
fn search_steady(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode/search_steady");
    for (label, overlay) in [("overlay_on", true), ("overlay_off", false)] {
        let env = shared_env(overlay);
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
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let mut polygons = 0u64;
                for &cell in &cells {
                    env.search(&mut ctx, &mut scratch, query(cell)).unwrap();
                    polygons += scratch.result().total_polygons();
                }
                black_box(polygons)
            })
        });
    }
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = frame_vs_copy, node_overlay, search_steady, vpage_batch
}
criterion_main!(benches);
