//! Per-shard circuit breaker (DESIGN.md §17).
//!
//! A dead or flapping shard must not eat every visitor's retry budget on
//! every frame. The breaker is the classic three-state machine, made
//! deterministic for the harness: *time* is counted in **denied requests**
//! rather than wall seconds, so a fixed request sequence produces an exact
//! state trace (unit-tested below) and the chaos drill's recovery point is
//! a pure function of the frame schedule.
//!
//! * **Closed** — requests flow; three *consecutive* failures (`TRIP_AFTER`)
//!   open the breaker.
//! * **Open** — requests are denied without touching the shard (the router
//!   serves the shard's coarse cover instead). After eight denials
//!   (`COOLDOWN`) the breaker moves to half-open.
//! * **Half-open** — the next request is a probe. Success closes the
//!   breaker; failure re-opens it and restarts the cooldown.

use std::sync::Mutex;

/// Consecutive sub-query failures that trip the breaker open.
pub(crate) const TRIP_AFTER: u32 = 3;
/// Denied requests an open breaker absorbs before probing half-open.
pub(crate) const COOLDOWN: u32 = 8;

/// Breaker state, in increasing order of distrust.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: requests flow.
    #[default]
    Closed,
    /// Probing: one request at a time decides reopen vs close.
    HalfOpen,
    /// Tripped: requests are denied and served from the coarse cover.
    Open,
}

#[derive(Debug, Default)]
struct Inner {
    state: BreakerState,
    consecutive_failures: u32,
    denials: u32,
}

/// One shard's breaker. Thread-safe: many visitor sessions consult the
/// same breaker concurrently (a Mutex over three words — uncontended in
/// practice next to the query work it guards). `default()` is closed.
#[derive(Debug, Default)]
pub struct CircuitBreaker {
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current state (diagnostics; racy by nature under concurrency).
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// May a request go to the shard right now? Denials while open count
    /// toward the cooldown; the denial that exhausts it flips the breaker
    /// to half-open and is itself allowed through as the probe.
    pub fn allow(&self) -> bool {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                inner.denials += 1;
                if inner.denials >= COOLDOWN {
                    inner.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// An allowed sub-query answered: reset to closed.
    pub fn record_success(&self) {
        let mut inner = self.lock();
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        inner.denials = 0;
    }

    /// An allowed sub-query failed. Returns `true` when this failure
    /// transitioned the breaker to open (the caller records the
    /// `breaker_opens` counter exactly once per transition).
    pub fn record_failure(&self) -> bool {
        let mut inner = self.lock();
        inner.consecutive_failures += 1;
        let trip = match inner.state {
            // A failed probe re-opens immediately.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => inner.consecutive_failures >= TRIP_AFTER,
            BreakerState::Open => false, // concurrent failure while already tripped
        };
        if trip {
            inner.state = BreakerState::Open;
            inner.denials = 0;
        }
        trip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trips a fresh breaker: `TRIP_AFTER` (3) consecutive failures.
    fn tripped() -> CircuitBreaker {
        let b = CircuitBreaker::default();
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure());
        b
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let b = CircuitBreaker::default();
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        b.record_success(); // streak broken
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "third consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn cooldown_denials_lead_to_half_open_probe() {
        let b = tripped();
        assert_eq!(b.state(), BreakerState::Open);
        // Seven denials inside the cooldown, the eighth is the probe.
        for i in 0..7 {
            assert!(!b.allow(), "denial {i}");
            assert_eq!(b.state(), BreakerState::Open);
        }
        assert!(b.allow(), "cooldown exhausted: probe goes through");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let b = tripped();
        for _ in 0..7 {
            assert!(!b.allow());
        }
        assert!(b.allow()); // probe
        assert!(
            b.record_failure(),
            "failed probe is a fresh open transition"
        );
        assert_eq!(b.state(), BreakerState::Open);
        for _ in 0..7 {
            assert!(!b.allow());
        }
        assert!(b.allow(), "cooldown counts from the reopen");
    }

    /// The full trace, request by request, with the fixed tuning
    /// (trip after 3, cooldown 8).
    #[test]
    fn exact_state_trace_is_deterministic() {
        let b = CircuitBreaker::default();
        for _ in 0..2 {
            assert!(b.allow());
            assert!(!b.record_failure()); // failures 1, 2: still closed
        }
        assert!(b.allow());
        assert!(b.record_failure()); // failure 3: trip 1
        for _ in 0..7 {
            assert!(!b.allow()); // denials 1–7
        }
        assert!(b.allow()); // denial 8 → half-open probe
        assert!(b.record_failure()); // trip 2 (reopen)
        assert!(!b.record_failure(), "a failure while open is no new trip");
        for _ in 0..7 {
            assert!(!b.allow());
        }
        assert!(b.allow()); // probe
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        // The success reset the streak: two failures do not trip again.
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
