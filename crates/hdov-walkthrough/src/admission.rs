//! Admission control for the session server: bounded slots, shed the rest.
//!
//! A saturated server helps nobody by queueing unboundedly: every admitted
//! visitor's frames slow down together until all of them miss their
//! deadlines (congestion collapse). [`SessionSlots`] bounds how many
//! sessions may drive queries concurrently; a session that finds no free
//! slot is *shed* at once — served the root's internal LoD for every frame
//! (coarse but complete, and never an error) instead of holding a query
//! lane. Nothing waits in a queue.
//!
//! Shedding is deliberately the same primitive as graceful degradation
//! (DESIGN.md §11/§12): the coarsest answer the tree can give is the root's
//! internal LoD, and it is always available without touching the overloaded
//! pools.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Backpressure counters for one server run (per engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackpressureStats {
    /// Sessions that took a slot.
    pub admitted: u64,
    /// Sessions shed to the root's internal LoD.
    pub shed: u64,
}

/// A bounded count of free session slots; taking one never waits.
#[derive(Debug)]
pub struct SessionSlots {
    free: AtomicUsize,
    admitted: AtomicU64,
    shed: AtomicU64,
}

impl SessionSlots {
    /// `slots` concurrent holders (0 sheds every session — useful in tests).
    pub fn new(slots: usize) -> Self {
        SessionSlots {
            free: AtomicUsize::new(slots),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Takes a slot if one is free. Returns `true` when admitted (the
    /// caller must [`release`](Self::release)) and `false` when the server
    /// is full — the caller sheds the session.
    pub fn try_acquire(&self) -> bool {
        // The count guards no other data, so `Relaxed` suffices: each
        // update is one atomic read-modify-write, so two sessions can never
        // both take the last slot.
        let took = self
            .free
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| f.checked_sub(1))
            .is_ok();
        let counter = if took { &self.admitted } else { &self.shed };
        counter.fetch_add(1, Ordering::Relaxed);
        took
    }

    /// Returns a slot taken by [`try_acquire`](Self::try_acquire).
    pub fn release(&self) {
        self.free.fetch_add(1, Ordering::Relaxed);
    }

    /// Counters so far (admitted / shed).
    pub fn stats(&self) -> BackpressureStats {
        BackpressureStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_slots_then_sheds() {
        let slots = SessionSlots::new(2);
        assert!(slots.try_acquire());
        assert!(slots.try_acquire());
        assert!(!slots.try_acquire(), "third must shed");
        let s = slots.stats();
        assert_eq!((s.admitted, s.shed), (2, 1));

        slots.release();
        assert!(slots.try_acquire(), "released slot reusable");
        assert_eq!(slots.stats().admitted, 3);
    }

    #[test]
    fn zero_slots_sheds_everything() {
        let slots = SessionSlots::new(0);
        for _ in 0..5 {
            assert!(!slots.try_acquire());
        }
        assert_eq!(
            slots.stats(),
            BackpressureStats {
                admitted: 0,
                shed: 5
            }
        );
    }
}
