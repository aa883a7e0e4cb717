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
//! [frame model](crate::frame) allows inside the deadline. A frame 4× over
//! its polygon budget jumps η by ~4× at once instead of doubling twice, so
//! overload is shed in one control period.
//!
//! The frame-time deadline is the only setting; the tuning below is fixed:
//! η stays in `[0.0005, 0.02]`, a miss raises it ×2 to ×8, and a quiet
//! frame lowers it by 0.0005.
//!
//! The controller is a pure function of its inputs — `(search_ms, polygons)`
//! per frame, all in simulated time — so a fixed frame trace yields an exact,
//! replayable η sequence (unit-tested below).

use crate::frame::{frame_time_ms, BASE_US, PER_POLYGON_US};

/// Fraction of the deadline below which fidelity is reclaimed (η drops).
/// Frames inside `[HEADROOM · target, target]` hold η steady — the deadband
/// that stops the loop from oscillating at equilibrium.
pub(crate) const HEADROOM: f64 = 0.7;
/// Finest (lowest) η the controller may reach: 4× finer than the repo's
/// default walkthrough η (0.002).
pub(crate) const ETA_MIN: f64 = 0.0005;
/// Coarsest (highest) η the controller may reach: an order of magnitude
/// coarser than the default.
pub(crate) const ETA_MAX: f64 = 0.02;
/// Minimum multiplicative raise on a deadline miss (the "MI" of AIMD).
pub(crate) const RAISE_FACTOR: f64 = 2.0;
/// Hardest single-step raise the feedforward term may request.
pub(crate) const MAX_RAISE_FACTOR: f64 = 8.0;
/// Additive η decrease per frame with headroom (the "AD" of AIMD): about
/// 3 % of the range per quiet frame.
pub(crate) const DROP_STEP: f64 = 0.0005;

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
    target_frame_ms: f64,
    eta: f64,
}

impl EtaController {
    /// A controller for the frame-time deadline `target_frame_ms`
    /// (simulated milliseconds), starting at `eta` clamped into the fixed
    /// range `[0.0005, 0.02]`.
    pub fn new(target_frame_ms: f64, eta: f64) -> Self {
        EtaController {
            target_frame_ms,
            eta: eta.clamp(ETA_MIN, ETA_MAX),
        }
    }

    /// The η the next frame should be searched with.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// The configured deadline.
    pub fn target_frame_ms(&self) -> f64 {
        self.target_frame_ms
    }

    /// Feeds one finished frame back into the loop and moves η.
    ///
    /// Deterministic: the decision depends only on `(search_ms, polygons)`
    /// and the controller's current state — no clocks, no randomness.
    pub fn observe(&mut self, search_ms: f64, polygons: u64) -> EtaAction {
        let frame_ms = frame_time_ms(search_ms, polygons);
        if frame_ms > self.target_frame_ms {
            // Multiplicative raise, floored at `RAISE_FACTOR` and scaled by
            // the Eq.-4-style feedforward: how many times over the deadline's
            // polygon budget this frame landed.
            let factor = RAISE_FACTOR
                .max(self.polygon_overload(search_ms, polygons))
                .min(MAX_RAISE_FACTOR);
            self.eta = (self.eta * factor).clamp(ETA_MIN, ETA_MAX);
            EtaAction::Raise
        } else if frame_ms < HEADROOM * self.target_frame_ms {
            self.eta = (self.eta - DROP_STEP).clamp(ETA_MIN, ETA_MAX);
            EtaAction::Drop
        } else {
            EtaAction::Hold
        }
    }

    /// Rendered polygons over the polygon budget the deadline leaves after
    /// this frame's search time and the fixed per-frame cost (≥ 0; returns 1
    /// when the budget is already spent on search, letting `RAISE_FACTOR`
    /// rule).
    fn polygon_overload(&self, search_ms: f64, polygons: u64) -> f64 {
        let spare_us = (self.target_frame_ms - search_ms) * 1000.0 - BASE_US;
        if spare_us <= 0.0 {
            return 1.0;
        }
        let budget_polygons = spare_us / PER_POLYGON_US;
        polygons as f64 / budget_polygons.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TARGET_MS: f64 = 10.0;

    fn controller() -> EtaController {
        EtaController::new(TARGET_MS, 0.002)
    }

    /// A fixed trace of `(search_ms, polygons)` yields an exact η sequence.
    #[test]
    fn deterministic_trace_gives_exact_eta_sequence() {
        let mut c = controller();
        // Frame model: frame_ms = search + 2.0 + polygons · 0.06 µs / 1000;
        // deadband [7, 10] ms.
        // (5.0, 40_000) → 5 + 2 + 2.4 = 9.4 ms: deadband → Hold.
        // (5.0, 60_000) → 5 + 2 + 3.6 = 10.6 ms: miss. Budget polys =
        //   ((10−5)·1000 − 2000) µs / 0.06 = 50 000; overload 1.2 < 2.0
        //   → ×2.0 → η 0.004.
        // (1.0, 10_000) → 1 + 2 + 0.6 = 3.6 ms < 7.0: drop → η 0.0035.
        // (1.0, 10_000) → drop → η 0.003.
        // (9.0, 0) → 9 + 2 = 11 ms: miss. Spare (10−9)·1000 − 2000 < 0, so
        //   the overload is 1 and RAISE_FACTOR rules → ×2 → η 0.006.
        // (7.0, 400_000) → 7 + 2 + 24 = 33 ms: miss. Budget polys =
        //   1000 µs / 0.06 ≈ 16 667; overload 24 → capped at 8 → 0.048
        //   → clamped to ETA_MAX 0.02.
        let trace = [
            (5.0, 40_000u64, EtaAction::Hold, 0.002),
            (5.0, 60_000, EtaAction::Raise, 0.004),
            (1.0, 10_000, EtaAction::Drop, 0.0035),
            (1.0, 10_000, EtaAction::Drop, 0.003),
            (9.0, 0, EtaAction::Raise, 0.006),
            (7.0, 400_000, EtaAction::Raise, ETA_MAX),
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
    fn eta_clamps_to_fixed_range() {
        let mut c = controller();
        // Persistent overload pins η at ETA_MAX, never beyond.
        for _ in 0..20 {
            c.observe(20.0, 1_000_000);
            assert!(c.eta() <= ETA_MAX + 1e-15);
        }
        assert!((c.eta() - ETA_MAX).abs() < 1e-15);
        // Persistent idle pins η at ETA_MIN, never below.
        for _ in 0..100 {
            c.observe(0.1, 0);
            assert!(c.eta() >= ETA_MIN - 1e-15);
        }
        assert!((c.eta() - ETA_MIN).abs() < 1e-15);
        // An out-of-range starting η is clamped at construction.
        assert_eq!(EtaController::new(TARGET_MS, 99.0).eta(), ETA_MAX);
        assert_eq!(EtaController::new(TARGET_MS, 0.0).eta(), ETA_MIN);
    }

    /// Closed loop against a synthetic plant (polygons shrink as η rises):
    /// the controller settles into at most one AIMD cycle — the tail of the
    /// η sequence visits ≤ 2 distinct values, alternating raise/drop around
    /// the equilibrium instead of swinging wider.
    #[test]
    fn converges_without_oscillation_on_constant_load() {
        let mut c = controller();
        // Plant: constant offered load whose polygon count falls inversely
        // with η (coarser threshold → internal LoDs replace objects).
        let plant = |eta: f64| -> (f64, u64) {
            let polygons = (320.0 / (eta * 1000.0)) * 1000.0; // 320k at η=0.001
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
        let mut held = controller();
        let before = held.eta();
        for _ in 0..50 {
            assert_eq!(held.observe(5.0, 40_000), EtaAction::Hold); // 9.4 ms
            assert_eq!(held.eta(), before);
        }
    }

    #[test]
    fn feedforward_scales_the_raise() {
        // Same miss, different severity: the overloaded frame jumps η
        // further in a single step. Search 5 ms leaves a 50 000-polygon
        // budget inside the 10 ms deadline.
        let mut mild = controller();
        let mut severe = controller();
        mild.observe(5.0, 60_000); // 1.2× over budget → ×2 floor
        severe.observe(5.0, 200_000); // 4× over budget → ×4 feedforward
        assert!(severe.eta() > mild.eta());
        assert!((mild.eta() - 0.004).abs() < 1e-12);
        assert!((severe.eta() - 0.008).abs() < 1e-12);
    }
}
