//! The cost stream: every answer entry and every `SearchStats` field of a
//! long, fixed sequence of single-session queries, folded into one FNV-1a
//! digest.
//!
//! `HdovEnvironment` keeps disk-head positions and buffer contents across
//! queries, so each query's simulated cost depends on everything read
//! before it. Pinning the whole stream — answers, node/V-page counts, and
//! every `IoStats` field down to the `f64` bits of `elapsed_us` — catches
//! any change to how pages are reached or charged, not just changes to
//! answers.
//!
//! Sweep: the tiny city × 3 schemes × raw/delta codecs × mem/file:pread
//! backends. Per environment: a cell dump; every cell × η ∈ {0, 0.002,
//! 0.01} through the plain, budgeted and prioritized queries; the naïve
//! baseline per cell; 20-frame delta walks through `query` and through
//! `query_prioritized` (each folding its answers into a resident set); then
//! the prioritized queries again with a node cache enabled.

use hdov_core::{
    DeltaSearch, HdovBuildConfig, HdovEnvironment, Query, QueryBudget, QueryResult, ResultKey,
    SearchStats, StorageScheme, VPageCodec,
};
use hdov_geom::{Frustum, Vec3};
use hdov_scene::{CityConfig, Scene};
use hdov_storage::{IoStats, StorageBackend};
use hdov_visibility::{CellGridConfig, CellId, DovTable};
use std::sync::Arc;

/// The digest of the whole sweep. Any change to answers or simulated
/// charging anywhere in the stream changes it.
const EXPECTED: u64 = 0x81b1_bb57_23c0_816d;

const ETAS: [f64; 3] = [0.0, 0.002, 0.01];
const WALK_FRAMES: usize = 20;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, s: &[u8]) {
        self.u64(s.len() as u64);
        for &b in s {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn io(&mut self, io: &IoStats) {
        self.u64(io.page_reads);
        self.u64(io.page_writes);
        self.u64(io.sequential_reads);
        self.u64(io.random_reads);
        self.u64(io.elapsed_us.to_bits());
    }

    fn stats(&mut self, s: &SearchStats) {
        self.u64(s.nodes_visited);
        self.u64(s.vpages_fetched);
        self.io(&s.node_io);
        self.io(&s.vstore_io);
        self.io(&s.model_io);
        self.io(&s.internal_io);
    }

    fn result(&mut self, r: &QueryResult) {
        self.u64(r.entries().len() as u64);
        for e in r.entries() {
            match e.key {
                ResultKey::Object(id) => {
                    self.u64(0);
                    self.u64(id);
                }
                ResultKey::Internal(o) => {
                    self.u64(1);
                    self.u64(o as u64);
                }
            }
            self.u64(e.level as u64);
            self.u64(e.polygons);
            self.u64(e.bytes);
            self.u64(e.dov.to_bits() as u64);
            self.u64(e.cached as u64);
        }
        for ev in r.degrade().events() {
            self.u64(ev.ordinal as u64);
            self.u64(ev.objects_coarse);
            self.bytes(format!("{:?}", ev.cause).as_bytes());
        }
    }
}

fn frustum_at(eye: Vec3, dir: Vec3) -> Frustum {
    Frustum::new(eye, dir, Vec3::Z, 1.2, 1.6, 0.5, 5_000.0)
}

/// Every cell × η through the plain, budgeted and prioritized queries.
fn sweep_cells(env: &mut HdovEnvironment, h: &mut Fnv) {
    for cell in 0..env.grid().cell_count() as CellId {
        let eye = env.grid().cell_bounds(cell).center();
        for eta in ETAS {
            let (r, s) = env.query(Query::new(cell, eta)).unwrap();
            h.result(&r);
            h.stats(&s);
            let budgeted = Query {
                budget: QueryBudget::sim_ms(1.0),
                ..Query::new(cell, eta)
            };
            let (r, s) = env.query(budgeted).unwrap();
            h.result(&r);
            h.stats(&s);
            sweep_prioritized(env, h, eye, eta);
        }
    }
}

fn sweep_prioritized(env: &mut HdovEnvironment, h: &mut Fnv, eye: Vec3, eta: f64) {
    for budget in [QueryBudget::UNLIMITED, QueryBudget::sim_ms(2.0)] {
        let q = Query {
            budget,
            ..Query::new(env.cell_of(eye), eta)
        };
        let (o, s) = env.query_prioritized(q, &frustum_at(eye, Vec3::X)).unwrap();
        h.result(&o.result);
        h.u64(o.completed as u64);
        h.u64(o.spent_ms.to_bits());
        h.stats(&s);
    }
}

/// A straight walk across the viewpoint region.
fn walk(scene: &Scene) -> Vec<Vec3> {
    let r = scene.viewpoint_region();
    (0..WALK_FRAMES)
        .map(|i| {
            let t = i as f64 / (WALK_FRAMES - 1) as f64;
            r.min + (r.max - r.min) * t
        })
        .collect()
}

fn stream(env: &mut HdovEnvironment, scene: &Scene, h: &mut Fnv) {
    h.bytes(env.dump_cell(0).unwrap().as_bytes());
    sweep_cells(env, h);
    for cell in 0..env.grid().cell_count() as CellId {
        let (r, s) = env
            .query_naive(env.grid().cell_bounds(cell).center())
            .unwrap();
        h.result(&r);
        h.stats(&s);
    }
    let mut delta = DeltaSearch::new();
    for &vp in &walk(scene) {
        let q = Query {
            resident: Some(&delta),
            ..Query::new(env.cell_of(vp), 0.002)
        };
        let (r, s) = env.query(q).unwrap();
        let d = delta.apply(&r);
        h.result(&r);
        h.stats(&s);
        h.u64(d.added as u64);
        h.u64(d.retained as u64);
        h.u64(d.evicted as u64);
    }
    let mut delta = DeltaSearch::new();
    let mut prev = None;
    for &vp in &walk(scene) {
        let dir = prev
            .and_then(|p: Vec3| (vp - p).try_normalize())
            .unwrap_or(Vec3::X);
        prev = Some(vp);
        let q = Query {
            resident: Some(&delta),
            budget: QueryBudget::sim_ms(3.0),
            ..Query::new(env.cell_of(vp), 0.002)
        };
        let (o, s) = env.query_prioritized(q, &frustum_at(vp, dir)).unwrap();
        // A truncated frame merges, so content not yet re-confirmed stays.
        if o.completed {
            delta.apply(&o.result);
        } else {
            delta.merge(&o.result);
        }
        h.result(&o.result);
        h.u64(o.completed as u64);
        h.u64(o.spent_ms.to_bits());
        h.stats(&s);
    }
    env.enable_node_cache(env.tree().node_count() as usize);
    for cell in 0..env.grid().cell_count() as CellId {
        let eye = env.grid().cell_bounds(cell).center();
        for eta in ETAS {
            sweep_prioritized(env, h, eye, eta);
        }
    }
}

#[test]
fn cost_stream_is_pinned() {
    let scene = CityConfig::tiny().seed(4).generate();
    let grid = Arc::new(
        CellGridConfig::for_scene(&scene)
            .with_resolution(3, 3)
            .build(),
    );
    let base = HdovBuildConfig::fast_test();
    let table = Arc::new(DovTable::compute(&scene, &grid, &base.dov, base.threads));
    let dir = std::env::temp_dir().join(format!("hdov_cost_stream_{}", std::process::id()));
    let mut h = Fnv::new();
    for scheme in StorageScheme::all() {
        for codec in [VPageCodec::Raw, VPageCodec::Delta] {
            for backend in ["mem", "file:pread"] {
                let cfg = HdovBuildConfig {
                    codec,
                    ..base.clone()
                };
                let mut env = HdovEnvironment::build_with_table(
                    &scene,
                    Arc::clone(&grid),
                    cfg,
                    scheme,
                    Arc::clone(&table),
                )
                .unwrap();
                if backend != "mem" {
                    let b =
                        StorageBackend::from_arg(backend, &dir.join(format!("{codec:?}"))).unwrap();
                    env.relocate(&b).unwrap();
                }
                stream(&mut env, &scene, &mut h);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(h.0, EXPECTED, "cost stream digest moved: {:#018x}", h.0);
}
