//! Integration tests of the frustum-prioritized traversal (paper §3.2
//! third advantage / §6 future work).

use hdov_core::{
    HdovBuildConfig, HdovEnvironment, PrioritizedOutcome, Query, QueryBudget, ResultKey,
    SearchStats, StorageScheme,
};
use hdov_geom::{Frustum, Vec3};
use hdov_scene::{CityConfig, Scene};
use hdov_visibility::CellGridConfig;
use std::collections::BTreeSet;

fn setup() -> (Scene, HdovEnvironment) {
    let scene = CityConfig::tiny().seed(21).generate();
    let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(3, 3);
    let env = HdovEnvironment::build(
        &scene,
        &grid_cfg,
        HdovBuildConfig::fast_test(),
        StorageScheme::IndexedVertical,
    )
    .unwrap();
    (scene, env)
}

fn frustum_at(scene: &Scene, dir: Vec3) -> Frustum {
    let eye = scene.viewpoint_region().center();
    Frustum::new(eye, dir, Vec3::Z, 1.2, 1.3, 0.5, 2000.0)
}

/// Best-first from the frustum's eye cell under `budget`.
fn prioritized(
    env: &mut HdovEnvironment,
    frustum: &Frustum,
    eta: f64,
    budget: QueryBudget,
) -> (PrioritizedOutcome, SearchStats) {
    let q = Query {
        budget,
        ..Query::new(env.cell_of(frustum.eye), eta)
    };
    env.query_prioritized(q, frustum).unwrap()
}

fn keyset(entries: &[hdov_core::ResultEntry]) -> BTreeSet<(ResultKey, usize)> {
    entries.iter().map(|e| (e.key, e.level)).collect()
}

#[test]
fn unbudgeted_prioritized_equals_plain_search() {
    let (scene, mut env) = setup();
    let frustum = frustum_at(&scene, Vec3::X);
    for eta in [0.0, 0.005, 0.05] {
        let (plain, _) = env
            .query(Query::new(env.cell_of(frustum.eye), eta))
            .expect("plain search");
        let (prio, _) = prioritized(&mut env, &frustum, eta, QueryBudget::UNLIMITED);
        assert!(prio.completed);
        assert_eq!(
            keyset(plain.entries()),
            keyset(prio.result.entries()),
            "answer sets diverged at eta={eta}"
        );
    }
}

#[test]
fn in_frustum_content_loads_first() {
    let (scene, mut env) = setup();
    let frustum = frustum_at(&scene, Vec3::X);
    let (prio, _) = prioritized(&mut env, &frustum, 0.001, QueryBudget::UNLIMITED);
    let entries = prio.result.entries();
    assert!(entries.len() >= 6, "need enough entries to compare halves");

    let in_frustum = |key: &ResultKey| -> bool {
        match key {
            ResultKey::Object(id) => frustum.intersects_aabb(&scene.object(*id).mbr),
            // Internal LoDs: conservatively treated as out-of-frustum.
            ResultKey::Internal(_) => false,
        }
    };
    let objects: Vec<bool> = entries
        .iter()
        .filter(|e| matches!(e.key, ResultKey::Object(_)))
        .map(|e| in_frustum(&e.key))
        .collect();
    let half = objects.len() / 2;
    let front = objects[..half].iter().filter(|&&b| b).count();
    let back = objects[half..].iter().filter(|&&b| b).count();
    assert!(
        front >= back,
        "front half has {front} in-frustum objects, back half {back}"
    );
}

#[test]
fn nearer_objects_load_before_farther_among_in_frustum() {
    let (scene, mut env) = setup();
    let frustum = frustum_at(&scene, Vec3::new(1.0, 1.0, 0.0));
    let (prio, _) = prioritized(&mut env, &frustum, 0.0, QueryBudget::UNLIMITED);
    let dists: Vec<f64> = prio
        .result
        .entries()
        .iter()
        .filter_map(|e| match e.key {
            ResultKey::Object(id) if frustum.intersects_aabb(&scene.object(id).mbr) => {
                Some(scene.object(id).mbr.distance_to_point(frustum.eye))
            }
            _ => None,
        })
        .collect();
    // In-frustum objects come out in non-decreasing distance order, modulo
    // interleaved node pops; check a rank correlation rather than strict
    // sortedness.
    if dists.len() >= 4 {
        let inversions = dists.windows(2).filter(|w| w[0] > w[1] + 1e-9).count();
        assert!(
            inversions <= dists.len() / 2,
            "too many distance inversions: {inversions}/{}",
            dists.len()
        );
    }
}

#[test]
fn budget_truncates_but_keeps_important_content() {
    let (scene, mut env) = setup();
    let frustum = frustum_at(&scene, Vec3::X);
    let (full, _) = prioritized(&mut env, &frustum, 0.001, QueryBudget::UNLIMITED);
    assert!(full.completed);
    let full_count = full.result.entries().len();
    let full_time = full.spent_ms;

    // Half the time budget: fewer entries, truncated flag set.
    let (half, _) = prioritized(
        &mut env,
        &frustum,
        0.001,
        QueryBudget::sim_ms(full_time / 2.0),
    );
    assert!(!half.completed, "half budget should truncate");
    assert!(half.result.entries().len() < full_count);
    assert!(
        !half.result.entries().is_empty(),
        "budget too harsh to load anything"
    );

    // The loaded prefix is the *most important* content: its average DoV
    // beats the average DoV of the full answer set.
    let avg = |entries: &[hdov_core::ResultEntry]| {
        entries.iter().map(|e| e.dov as f64).sum::<f64>() / entries.len().max(1) as f64
    };
    assert!(
        avg(half.result.entries()) >= avg(full.result.entries()) * 0.8,
        "budgeted prefix lost the important content"
    );

    // Generous budget completes.
    let (gen, _) = prioritized(
        &mut env,
        &frustum,
        0.001,
        QueryBudget::sim_ms(full_time * 10.0),
    );
    assert!(gen.completed);
    assert_eq!(gen.result.entries().len(), full_count);
}

#[test]
fn budgeted_beats_blind_truncation_on_captured_dov() {
    let (scene, mut env) = setup();
    let frustum = frustum_at(&scene, Vec3::X);
    let (full, _) = prioritized(&mut env, &frustum, 0.001, QueryBudget::UNLIMITED);
    let budget = full.spent_ms * 0.4;
    let (prio, _) = prioritized(&mut env, &frustum, 0.001, QueryBudget::sim_ms(budget));

    // "Blind truncation": take the plain (DFS-ordered) result and cut it to
    // the same entry count.
    let (plain, _) = env
        .query(Query::new(env.cell_of(frustum.eye), 0.001))
        .unwrap();
    let n = prio.result.entries().len().min(plain.entries().len());
    if n == 0 {
        return;
    }
    let dov_prio: f64 = prio.result.entries()[..n]
        .iter()
        .map(|e| e.dov as f64)
        .sum();
    let dov_blind: f64 = plain.entries()[..n].iter().map(|e| e.dov as f64).sum();
    assert!(
        dov_prio >= dov_blind * 0.9,
        "prioritized {dov_prio:.4} captured less than blind truncation {dov_blind:.4}"
    );
}

#[test]
fn deterministic_order() {
    let (scene, mut env) = setup();
    let frustum = frustum_at(&scene, Vec3::Y);
    let (a, _) = prioritized(&mut env, &frustum, 0.002, QueryBudget::UNLIMITED);
    let (b, _) = prioritized(&mut env, &frustum, 0.002, QueryBudget::UNLIMITED);
    assert_eq!(a.result.entries(), b.result.entries());
}
