//! VISUAL vs REVIEW head-to-head on a small scene — the qualitative claims
//! of the paper's §5.4 at test scale.

use hdov_core::{HdovBuildConfig, HdovEnvironment, StorageScheme};
use hdov_review::{ReviewConfig, ReviewSystem};
use hdov_scene::{CityConfig, Scene};
use hdov_visibility::CellGridConfig;
use hdov_walkthrough::{run_session, ReviewWalkthrough, Session, SessionKind, VisualSystem};

fn scene() -> Scene {
    CityConfig::tiny().seed(12).generate()
}

fn visual(scene: &Scene, eta: f64) -> VisualSystem {
    let grid_cfg = CellGridConfig::for_scene(scene).with_resolution(4, 4);
    let env = HdovEnvironment::build(
        scene,
        &grid_cfg,
        HdovBuildConfig::fast_test(),
        StorageScheme::IndexedVertical,
    )
    .unwrap();
    VisualSystem::new(env, eta).unwrap()
}

fn review(scene: &Scene, visual: &VisualSystem, box_size: f64) -> ReviewWalkthrough {
    let sys = ReviewSystem::build(
        scene,
        ReviewConfig {
            box_size,
            fanout: 8,
            ..Default::default()
        },
    )
    .unwrap();
    ReviewWalkthrough::new(
        sys,
        visual.env().dov_table_shared(),
        visual.env().grid_shared(),
    )
}

fn session(scene: &Scene, kind: SessionKind) -> Session {
    Session::record(scene.viewpoint_region(), kind, 60, 5)
}

#[test]
fn visual_never_misses_a_visible_object() {
    let scene = scene();
    let mut v = visual(&scene, 0.01);
    let m = run_session(&mut v, &session(&scene, SessionKind::Normal)).unwrap();
    assert!(
        (m.avg_dov_coverage() - 1.0).abs() < 1e-6,
        "VISUAL coverage {}",
        m.avg_dov_coverage()
    );
    assert_eq!(m.avg_missed_objects(), 0.0);
    assert!(m.peak_memory_bytes > 0);
}

#[test]
fn review_with_small_box_is_shortsighted() {
    let scene = scene();
    let v = visual(&scene, 0.001);
    let mut r = review(&scene, &v, 60.0);
    let m = run_session(&mut r, &session(&scene, SessionKind::Normal)).unwrap();
    assert!(
        m.avg_missed_objects() > 0.0,
        "a 60 m box must miss far visible objects"
    );
    assert!(m.avg_dov_coverage() < 1.0);
}

#[test]
fn visual_frames_are_faster_and_smoother_than_review() {
    let scene = scene();
    let mut v = visual(&scene, 0.01);
    let mut r = review(&scene, &v, 400.0); // comparable-fidelity box
    let s = session(&scene, SessionKind::Normal);
    let mv = run_session(&mut v, &s).unwrap();
    let mr = run_session(&mut r, &s).unwrap();
    assert!(
        mv.avg_frame_time_ms() < mr.avg_frame_time_ms(),
        "VISUAL {} ms !< REVIEW {} ms",
        mv.avg_frame_time_ms(),
        mr.avg_frame_time_ms()
    );
    // The heavy-data advantage: REVIEW drags full-detail models (including
    // hidden ones) through the disk at least once; VISUAL fetches DoV-sized
    // LoDs. (Per-frame page *counts* can invert on a tiny city where a 400 m
    // box covers everything and complement search then idles — Fig. 12's
    // regime needs the paper-scale scene, exercised in the bench harness.)
    assert!(
        mv.total_fetched_bytes() <= mr.total_fetched_bytes(),
        "VISUAL bytes {} !<= REVIEW {}",
        mv.total_fetched_bytes(),
        mr.total_fetched_bytes()
    );
}

#[test]
fn review_uses_more_memory_than_visual() {
    let scene = scene();
    let mut v = visual(&scene, 0.01);
    let mut r = review(&scene, &v, 400.0);
    let s = session(&scene, SessionKind::Normal);
    let mv = run_session(&mut v, &s).unwrap();
    let mr = run_session(&mut r, &s).unwrap();
    assert!(
        mr.peak_memory_bytes >= mv.peak_memory_bytes,
        "REVIEW {} < VISUAL {}",
        mr.peak_memory_bytes,
        mv.peak_memory_bytes
    );
}

#[test]
fn larger_eta_gives_faster_or_equal_frames() {
    let scene = scene();
    let s = session(&scene, SessionKind::Normal);
    let mut fine = visual(&scene, 0.002);
    let mut coarse = visual(&scene, 0.05);
    let mf = run_session(&mut fine, &s).unwrap();
    let mc = run_session(&mut coarse, &s).unwrap();
    assert!(
        mc.avg_frame_time_ms() <= mf.avg_frame_time_ms() * 1.05,
        "coarse {} ms vs fine {} ms",
        mc.avg_frame_time_ms(),
        mf.avg_frame_time_ms()
    );
}

#[test]
fn all_three_sessions_play_back() {
    let scene = scene();
    let mut v = visual(&scene, 0.01);
    for kind in SessionKind::all() {
        let s = session(&scene, kind);
        let m = run_session(&mut v, &s).unwrap();
        assert_eq!(m.frames.len(), s.len(), "{kind:?}");
        assert!(m.avg_frame_time_ms() > 0.0);
        assert!(m.system.contains("VISUAL"));
    }
}

#[test]
fn delta_search_discount_shows_after_first_frame() {
    let scene = scene();
    let mut v = visual(&scene, 0.01);
    let s = session(&scene, SessionKind::BackForth);
    let m = run_session(&mut v, &s).unwrap();
    let first = &m.frames[0];
    let rest_avg_bytes: f64 = m.frames[1..]
        .iter()
        .map(|f| f.fetched_bytes as f64)
        .sum::<f64>()
        / (m.frames.len() - 1) as f64;
    assert!(
        rest_avg_bytes < first.fetched_bytes as f64,
        "later frames should fetch less than the cold first frame"
    );
}

mod streaming {
    use super::*;
    use hdov_walkthrough::{StreamingVisualSystem, WalkthroughSystem};

    fn env(scene: &Scene) -> HdovEnvironment {
        let grid_cfg = CellGridConfig::for_scene(scene).with_resolution(4, 4);
        HdovEnvironment::build(
            scene,
            &grid_cfg,
            HdovBuildConfig::fast_test(),
            StorageScheme::IndexedVertical,
        )
        .unwrap()
    }

    fn streaming(scene: &Scene, eta: f64, budget_ms: f64) -> StreamingVisualSystem {
        StreamingVisualSystem::new(env(scene), eta, budget_ms).unwrap()
    }

    /// A frame budget that is not a positive number, and a negative η
    /// reaching the prioritized query, are typed errors — never panics.
    #[test]
    fn invalid_budget_and_eta_are_typed_errors() {
        let scene = CityConfig::tiny().seed(12).generate();
        let invalid = |e: hdov_storage::StorageError| {
            assert!(
                matches!(e, hdov_storage::StorageError::InvalidPlan { .. }),
                "{e}"
            );
        };
        for budget_ms in [0.0, -1.0, f64::NAN] {
            match StreamingVisualSystem::new(env(&scene), 0.01, budget_ms) {
                Ok(_) => panic!("frame budget {budget_ms} ms accepted"),
                Err(e) => invalid(e),
            }
        }
        let mut negative = streaming(&scene, -1.0, 5.0);
        let s = Session::record(scene.viewpoint_region(), SessionKind::Normal, 3, 5);
        invalid(run_session(&mut negative, &s).unwrap_err());
    }

    #[test]
    fn budget_caps_frame_spikes() {
        let scene = CityConfig::tiny().seed(12).generate();
        let s = Session::record(scene.viewpoint_region(), SessionKind::Normal, 60, 5);

        let mut unbounded = {
            let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(4, 4);
            let env = HdovEnvironment::build(
                &scene,
                &grid_cfg,
                HdovBuildConfig::fast_test(),
                StorageScheme::IndexedVertical,
            )
            .unwrap();
            VisualSystem::new(env, 0.01).unwrap()
        };
        let mu = run_session(&mut unbounded, &s).unwrap();

        // Budget: a fraction of the *cold* frame's cost — enough to make
        // real progress each frame (the fixed flip + node traversal must
        // fit), but far below what an unbudgeted cold frame spends.
        let budget = mu.frames[0].search_ms * 0.3;
        let mut bounded = streaming(&scene, 0.01, budget);
        let mb = run_session(&mut bounded, &s).unwrap();

        assert!(
            bounded.truncated_frames() > 0,
            "a sub-average budget must truncate some frames"
        );
        // Loading time (search component) is capped near the budget; the
        // fixed traversal work can exceed it by one item's cost.
        let max_search = mb
            .frames
            .iter()
            .map(|f| f.search_ms)
            .fold(f64::NEG_INFINITY, f64::max);
        let max_unbounded = mu
            .frames
            .iter()
            .map(|f| f.search_ms)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max_search < max_unbounded,
            "budgeted spikes {max_search:.1} must stay under unbounded {max_unbounded:.1}"
        );
        // And fidelity eventually recovers: coverage in the final quarter of
        // the session is decent.
        let tail = &mb.frames[mb.frames.len() * 3 / 4..];
        let tail_cov: f64 = tail.iter().map(|f| f.dov_coverage).sum::<f64>() / tail.len() as f64;
        assert!(tail_cov > 0.5, "tail coverage {tail_cov}");
    }

    #[test]
    fn generous_budget_matches_full_visual_coverage() {
        let scene = CityConfig::tiny().seed(12).generate();
        let s = Session::record(scene.viewpoint_region(), SessionKind::Normal, 40, 6);
        let mut bounded = streaming(&scene, 0.01, 1e6);
        let m = run_session(&mut bounded, &s).unwrap();
        assert_eq!(bounded.truncated_frames(), 0);
        assert!((m.avg_dov_coverage() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_state() {
        let scene = CityConfig::tiny().seed(12).generate();
        let s = Session::record(scene.viewpoint_region(), SessionKind::Normal, 10, 7);
        let mut sys = streaming(&scene, 0.01, 0.5);
        let _ = run_session(&mut sys, &s).unwrap();
        sys.reset();
        assert_eq!(sys.truncated_frames(), 0);
    }
}
