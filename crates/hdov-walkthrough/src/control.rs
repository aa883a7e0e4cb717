//! Closed-loop η control: trade fidelity for frame time under load.
//!
//! The HDoV-tree's threshold η is the knob the whole paper is about — a
//! larger η terminates more subtrees at internal LoDs, cutting polygons and
//! I/O per frame (§4, Fig. 7/8). [`EtaController`] closes the loop the paper
//! leaves open: an AIMD-style controller per session that *raises* η
//! (multiplicatively — retreat to cheap frames fast) when the simulated
//! frame time misses a target deadline, and *lowers* it (additively — reclaim
//! fidelity slowly) when there is headroom.
//!
//! The multiplicative raise is scaled by a feedforward term derived from the
//! same polygon-count reasoning as the paper's Eq. 4 termination heuristic:
//! the frame's rendered polygon count against the polygon budget the
//! [`FrameModel`] allows inside the deadline. A frame 4× over its polygon
//! budget jumps η by ~4× at once instead of doubling twice, so overload is
//! shed in one control period.
//!
//! The controller is a pure function of its inputs — `(search_ms, polygons)`
//! per frame, all in simulated time — so a fixed frame trace yields an exact,
//! replayable η sequence (unit-tested below).

use crate::frame::FrameModel;

/// Tuning for one session's [`EtaController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EtaControlConfig {
    /// Frame-time deadline in simulated milliseconds; frames above it are
    /// deadline misses and push η up.
    pub target_frame_ms: f64,
    /// Fraction of the deadline below which fidelity is reclaimed (η drops).
    /// Frames inside `[headroom · target, target]` hold η steady — the
    /// deadband that stops the loop from oscillating at equilibrium.
    pub headroom: f64,
    /// Finest (lowest) η the controller may reach.
    pub eta_min: f64,
    /// Coarsest (highest) η the controller may reach.
    pub eta_max: f64,
    /// Starting η.
    pub eta_initial: f64,
    /// Minimum multiplicative raise on a deadline miss (the "MI" of AIMD).
    pub raise_factor: f64,
    /// Hardest single-step raise the feedforward term may request.
    pub max_raise_factor: f64,
    /// Additive η decrease per frame with headroom (the "AD" of AIMD).
    pub drop_step: f64,
    /// Render-cost model used to turn `(search_ms, polygons)` into a frame
    /// time and to size the feedforward polygon budget.
    pub frame_model: FrameModel,
}

impl EtaControlConfig {
    /// A controller targeting `target_frame_ms` around the repo's default
    /// walkthrough η (0.002): η may swing an order of magnitude coarser and
    /// 4× finer, doubling on misses and easing back ~3% of the range per
    /// quiet frame.
    pub fn for_target_ms(target_frame_ms: f64) -> Self {
        EtaControlConfig {
            target_frame_ms,
            headroom: 0.7,
            eta_min: 0.0005,
            eta_max: 0.02,
            eta_initial: 0.002,
            raise_factor: 2.0,
            max_raise_factor: 8.0,
            drop_step: 0.0005,
            frame_model: FrameModel::PAPER_ERA,
        }
    }
}

/// What one [`EtaController::observe`] call decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtaAction {
    /// Deadline miss: η moved coarser (or was already pinned at `eta_max`).
    Raise,
    /// Headroom: η moved finer (or was already pinned at `eta_min`).
    Drop,
    /// Frame landed in the deadband; η unchanged.
    Hold,
}

/// Per-session AIMD η controller (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct EtaController {
    cfg: EtaControlConfig,
    eta: f64,
}

impl EtaController {
    /// A controller starting at `cfg.eta_initial`, clamped into
    /// `[eta_min, eta_max]`.
    pub fn new(cfg: EtaControlConfig) -> Self {
        let eta = cfg.eta_initial.clamp(cfg.eta_min, cfg.eta_max);
        EtaController { cfg, eta }
    }

    /// The η the next frame should be searched with.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// The configured deadline.
    pub fn target_frame_ms(&self) -> f64 {
        self.cfg.target_frame_ms
    }

    /// The frame time the controller's model assigns to a frame.
    pub fn frame_time_ms(&self, search_ms: f64, polygons: u64) -> f64 {
        self.cfg.frame_model.frame_time_ms(search_ms, polygons)
    }

    /// Feeds one finished frame back into the loop and moves η.
    ///
    /// Deterministic: the decision depends only on `(search_ms, polygons)`
    /// and the controller's current state — no clocks, no randomness.
    pub fn observe(&mut self, search_ms: f64, polygons: u64) -> EtaAction {
        let cfg = &self.cfg;
        let frame_ms = cfg.frame_model.frame_time_ms(search_ms, polygons);
        if frame_ms > cfg.target_frame_ms {
            // Multiplicative raise, floored at `raise_factor` and scaled by
            // the Eq.-4-style feedforward: how many times over the deadline's
            // polygon budget this frame landed.
            let factor = cfg
                .raise_factor
                .max(self.polygon_overload(search_ms, polygons))
                .min(cfg.max_raise_factor);
            self.eta = (self.eta * factor).clamp(cfg.eta_min, cfg.eta_max);
            EtaAction::Raise
        } else if frame_ms < cfg.headroom * cfg.target_frame_ms {
            self.eta = (self.eta - cfg.drop_step).clamp(cfg.eta_min, cfg.eta_max);
            EtaAction::Drop
        } else {
            EtaAction::Hold
        }
    }

    /// Rendered polygons over the polygon budget the deadline leaves after
    /// this frame's search time and the fixed per-frame cost (≥ 0; returns 1
    /// when the budget is already spent on search, letting `raise_factor`
    /// rule).
    fn polygon_overload(&self, search_ms: f64, polygons: u64) -> f64 {
        let cfg = &self.cfg;
        let spare_us = (cfg.target_frame_ms - search_ms) * 1000.0 - cfg.frame_model.base_us;
        if spare_us <= 0.0 || cfg.frame_model.per_polygon_us <= 0.0 {
            return 1.0;
        }
        let budget_polygons = spare_us / cfg.frame_model.per_polygon_us;
        polygons as f64 / budget_polygons.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EtaControlConfig {
        EtaControlConfig {
            target_frame_ms: 10.0,
            headroom: 0.7,
            eta_min: 0.001,
            eta_max: 0.016,
            eta_initial: 0.002,
            raise_factor: 2.0,
            max_raise_factor: 8.0,
            drop_step: 0.0005,
            frame_model: FrameModel {
                base_us: 2000.0,
                per_polygon_us: 0.1,
            },
        }
    }

    /// A fixed trace of `(search_ms, polygons)` yields an exact η sequence.
    #[test]
    fn deterministic_trace_gives_exact_eta_sequence() {
        let mut c = EtaController::new(cfg());
        // Frame model: frame_ms = search + 2.0 + polygons · 0.1 µs / 1000.
        // (3.0, 40_000) → 3 + 2 + 4 = 9.0 ms: deadband [7, 10] → Hold.
        // (3.0, 60_000) → 3 + 2 + 6 = 11.0 ms: miss. Budget polys =
        //   (10−3)·1000−2000 = 5000 µs → 50 000 polys; overload 1.2 < 2.0
        //   → ×2.0 → η 0.004.
        // (1.0, 10_000) → 1 + 2 + 1 = 4.0 ms < 7.0: drop → η 0.0035.
        // (1.0, 10_000) → drop → η 0.003.
        // (6.0, 160_000) → 6 + 2 + 16 = 24 ms: miss. Budget polys =
        //   (10−6)·1000−2000 = 2000 µs → 20 000 polys; overload 8.0
        //   (capped) → ×8 → 0.024 → clamped to η_max 0.016.
        let trace = [
            (3.0, 40_000u64, EtaAction::Hold, 0.002),
            (3.0, 60_000, EtaAction::Raise, 0.004),
            (1.0, 10_000, EtaAction::Drop, 0.0035),
            (1.0, 10_000, EtaAction::Drop, 0.003),
            (6.0, 160_000, EtaAction::Raise, 0.016),
        ];
        for (i, &(search, polys, action, eta)) in trace.iter().enumerate() {
            assert_eq!(c.observe(search, polys), action, "frame {i}");
            assert!(
                (c.eta() - eta).abs() < 1e-12,
                "frame {i}: eta {} != {eta}",
                c.eta()
            );
        }
    }

    #[test]
    fn eta_clamps_to_configured_range() {
        let mut c = EtaController::new(cfg());
        // Persistent overload pins η at eta_max, never beyond.
        for _ in 0..20 {
            c.observe(20.0, 1_000_000);
            assert!(c.eta() <= cfg().eta_max + 1e-15);
        }
        assert!((c.eta() - cfg().eta_max).abs() < 1e-15);
        // Persistent idle pins η at eta_min, never below.
        for _ in 0..100 {
            c.observe(0.1, 0);
            assert!(c.eta() >= cfg().eta_min - 1e-15);
        }
        assert!((c.eta() - cfg().eta_min).abs() < 1e-15);
        // An out-of-range initial η is clamped at construction.
        let wild = EtaControlConfig {
            eta_initial: 99.0,
            ..cfg()
        };
        assert!((EtaController::new(wild).eta() - cfg().eta_max).abs() < 1e-15);
    }

    /// Closed loop against a synthetic plant (polygons shrink as η rises):
    /// the controller settles into at most one AIMD cycle — the tail of the
    /// η sequence visits ≤ 2 distinct values, alternating raise/drop around
    /// the equilibrium instead of swinging wider.
    #[test]
    fn converges_without_oscillation_on_constant_load() {
        let mut c = EtaController::new(cfg());
        // Plant: constant offered load whose polygon count falls inversely
        // with η (coarser threshold → internal LoDs replace objects).
        let plant = |eta: f64| -> (f64, u64) {
            let polygons = (160.0 / (eta * 1000.0)) * 1000.0; // 160k at η=0.001
            (2.0, polygons as u64)
        };
        let mut etas = Vec::new();
        for _ in 0..200 {
            let (search, polys) = plant(c.eta());
            c.observe(search, polys);
            etas.push(c.eta());
        }
        let tail = &etas[150..];
        let mut distinct: Vec<f64> = Vec::new();
        for &e in tail {
            if !distinct.iter().any(|d| (d - e).abs() < 1e-15) {
                distinct.push(e);
            }
        }
        assert!(
            distinct.len() <= 2,
            "tail should cycle through at most one AIMD period, saw {distinct:?}"
        );
        // And the deadband genuinely holds: a frame landing inside it moves
        // nothing even over many frames.
        let mut held = EtaController::new(cfg());
        let before = held.eta();
        for _ in 0..50 {
            assert_eq!(held.observe(3.0, 45_000), EtaAction::Hold); // 9.5 ms
            assert_eq!(held.eta(), before);
        }
    }

    #[test]
    fn feedforward_scales_the_raise() {
        // Same miss, different severity: the overloaded frame jumps η
        // further in a single step.
        let mut mild = EtaController::new(cfg());
        let mut severe = EtaController::new(cfg());
        mild.observe(3.0, 60_000); // 1.2× over budget → ×2 floor
        severe.observe(3.0, 200_000); // 4× over budget → ×4 feedforward
        assert!(severe.eta() > mild.eta());
        assert!((mild.eta() - 0.004).abs() < 1e-12);
        assert!((severe.eta() - 0.008).abs() < 1e-12);
    }
}
