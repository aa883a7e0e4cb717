//! Lock-free per-thread recorders and the registry that merges them.
//!
//! Each thread records into its own [`LocalRecorder`] — arrays of relaxed
//! atomics indexed by the dense [`Phase`]/[`Counter`]/[`Hist`] enums, so the
//! hot path is one uncontended `fetch_add` with no hashing, no allocation,
//! and no locks. The [`Registry`] keeps an `Arc` to every recorder ever
//! handed out (the only lock, taken once per thread at registration) and
//! merges them into a [`MetricsSnapshot`] on demand.
//!
//! Instrumentation sites go through the free functions ([`add`], [`span`],
//! [`observe`]), which hit the process-global registry. When the registry is
//! disabled — the default — every site reduces to the inlined
//! [`is_enabled`]: a single relaxed load of the registry's one `AtomicBool`
//! (the registry is a constant-initialised `static`, so there is no lazy
//! initialisation to check first) — no call, no clock reads, no
//! thread-local registration, no counter traffic. That is the
//! "zero-cost-when-disabled" contract the fig7/fig8 bit-identical CI check
//! guards.

use crate::histogram::Histogram;
use crate::phase::{Counter, Hist, Phase};
use crate::snapshot::MetricsSnapshot;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Default)]
struct SpanCell {
    spans: AtomicU64,
    wall_ns: AtomicU64,
}

/// One thread's metrics storage. All fields are relaxed atomics: the owning
/// thread is the only writer, the merging thread only reads.
#[derive(Debug)]
pub struct LocalRecorder {
    phases: [SpanCell; Phase::COUNT],
    counters: [AtomicU64; Counter::COUNT],
    hists: [Histogram; Hist::COUNT],
}

impl Default for LocalRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalRecorder {
    /// A zeroed recorder.
    pub fn new() -> Self {
        LocalRecorder {
            phases: std::array::from_fn(|_| SpanCell::default()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Bumps counter `c` by `n`.
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Records one completed span of `p` lasting `wall_ns` nanoseconds.
    pub fn record_span(&self, p: Phase, wall_ns: u64) {
        let cell = &self.phases[p.index()];
        cell.spans.fetch_add(1, Ordering::Relaxed);
        cell.wall_ns.fetch_add(wall_ns, Ordering::Relaxed);
    }

    /// Records `value` into histogram `h`.
    pub fn observe(&self, h: Hist, value: u64) {
        self.hists[h.index()].observe(value);
    }

    fn reset(&self) {
        for cell in &self.phases {
            cell.spans.store(0, Ordering::Relaxed);
            cell.wall_ns.store(0, Ordering::Relaxed);
        }
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for h in &self.hists {
            h.reset();
        }
    }
}

/// A set of per-thread recorders plus the master enable switch.
#[derive(Debug, Default)]
pub struct Registry {
    enabled: AtomicBool,
    recorders: Mutex<Vec<Arc<LocalRecorder>>>,
}

impl Registry {
    /// A new, disabled registry with no recorders.
    pub const fn new() -> Self {
        Registry {
            enabled: AtomicBool::new(false),
            recorders: Mutex::new(Vec::new()),
        }
    }

    /// Flips recording on or off. Disabled is the default; when disabled,
    /// instrumentation sites cost one relaxed atomic load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Registers and returns a fresh per-thread recorder. The registry keeps
    /// a handle so the recorder outlives its thread for merging.
    pub fn recorder(&self) -> Arc<LocalRecorder> {
        let rec = Arc::new(LocalRecorder::new());
        self.recorders
            .lock()
            .expect("obs registry poisoned")
            .push(Arc::clone(&rec));
        rec
    }

    /// Zeroes every registered recorder (the recorders stay registered).
    pub fn reset(&self) {
        for rec in self.recorders.lock().expect("obs registry poisoned").iter() {
            rec.reset();
        }
    }

    /// Merges every recorder into one snapshot named `name`.
    ///
    /// Counters and span cells sum; histograms merge bucket-wise. Phase data
    /// lands as two counters per phase, `phase.<name>.spans` (deterministic)
    /// and `phase.<name>.wall_ns` (wall clock — the CI tolerance file
    /// ignores the `wall_ns` suffix). Zero metrics are omitted so snapshots
    /// only carry what a run actually exercised.
    pub fn snapshot(&self, name: &str) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new(name);
        let recorders = self.recorders.lock().expect("obs registry poisoned");
        for p in Phase::ALL {
            let (mut spans, mut wall) = (0u64, 0u64);
            for rec in recorders.iter() {
                let cell = &rec.phases[p.index()];
                spans += cell.spans.load(Ordering::Relaxed);
                wall += cell.wall_ns.load(Ordering::Relaxed);
            }
            if spans > 0 {
                snap.set_counter(format!("phase.{}.spans", p.name()), spans);
                snap.set_counter(format!("phase.{}.wall_ns", p.name()), wall);
            }
        }
        for c in Counter::ALL {
            let total: u64 = recorders
                .iter()
                .map(|r| r.counters[c.index()].load(Ordering::Relaxed))
                .sum();
            if total > 0 {
                snap.set_counter(c.name(), total);
            }
        }
        for h in Hist::ALL {
            let mut merged = crate::histogram::HistogramSnapshot::default();
            for rec in recorders.iter() {
                merged.merge(&rec.hists[h.index()].snapshot());
            }
            if merged.count > 0 {
                snap.set_histogram(h.name(), merged);
            }
        }
        snap
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-global registry used by the free-function API.
#[inline]
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Enables recording on the global registry.
pub fn enable() {
    global().set_enabled(true);
}

/// Disables recording on the global registry.
pub fn disable() {
    global().set_enabled(false);
}

/// Whether the global registry is recording: one relaxed load, inlined
/// into every instrumentation site.
#[inline]
pub fn is_enabled() -> bool {
    GLOBAL.is_enabled()
}

/// Zeroes the global registry's recorders.
pub fn reset() {
    global().reset();
}

/// Merges the global registry into a snapshot named `name`.
pub fn snapshot(name: &str) -> MetricsSnapshot {
    global().snapshot(name)
}

thread_local! {
    static TLS_RECORDER: RefCell<Option<Arc<LocalRecorder>>> = const { RefCell::new(None) };
}

fn with_recorder(f: impl FnOnce(&LocalRecorder)) {
    TLS_RECORDER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let rec = slot.get_or_insert_with(|| global().recorder());
        f(rec);
    });
}

/// Bumps counter `c` by `n` on this thread's recorder (no-op when disabled).
#[inline]
pub fn add(c: Counter, n: u64) {
    if is_enabled() {
        with_recorder(|r| r.add(c, n));
    }
}

/// Records `value` into histogram `h` (no-op when disabled).
#[inline]
pub fn observe(h: Hist, value: u64) {
    if is_enabled() {
        with_recorder(|r| r.observe(h, value));
    }
}

/// Starts a span of `p`: the guard records its wall-clock duration on drop.
/// When recording is disabled the guard is inert — no clock is read.
#[inline]
pub fn span(p: Phase) -> SpanGuard {
    SpanGuard {
        live: is_enabled().then(|| (p, Instant::now())),
    }
}

/// RAII guard returned by [`span`].
#[must_use = "a span records on drop; binding it to _ drops immediately"]
pub struct SpanGuard {
    live: Option<(Phase, Instant)>,
}

impl Drop for SpanGuard {
    /// Inlined like [`span`], so an inert guard costs its caller one
    /// branch and no call.
    #[inline]
    fn drop(&mut self) {
        if let Some((p, start)) = self.live.take() {
            record_span(p, start);
        }
    }
}

/// The recording half of a live [`SpanGuard`]'s drop.
#[cold]
fn record_span(p: Phase, start: Instant) {
    let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    with_recorder(|r| r.record_span(p, ns));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_merges_multiple_recorders() {
        let reg = Registry::new();
        let a = reg.recorder();
        let b = reg.recorder();
        a.add(Counter::PoolHits, 3);
        b.add(Counter::PoolHits, 4);
        b.add(Counter::Queries, 1);
        a.record_span(Phase::Traversal, 100);
        b.record_span(Phase::Traversal, 50);
        a.observe(Hist::SimSearchUs, 7);
        b.observe(Hist::SimSearchUs, 9);

        let s = reg.snapshot("merge");
        assert_eq!(s.counters["pool_hits"], 7);
        assert_eq!(s.counters["queries"], 1);
        assert_eq!(s.counters["phase.traversal.spans"], 2);
        assert_eq!(s.counters["phase.traversal.wall_ns"], 150);
        assert_eq!(s.histograms["sim_search_us"].count, 2);
        assert_eq!(s.histograms["sim_search_us"].sum, 16);
        // Untouched metrics are omitted entirely.
        assert!(!s.counters.contains_key("pool_misses"));
        assert!(!s.counters.contains_key("phase.prefetch.spans"));
        assert!(!s.histograms.contains_key("sim_frame_time_ns"));

        reg.reset();
        let s = reg.snapshot("after-reset");
        assert!(s.counters.is_empty());
        assert!(s.histograms.is_empty());
    }

    #[test]
    fn disabled_global_sites_are_inert() {
        // The global registry defaults to disabled; none of these may record
        // or register a thread-local recorder.
        assert!(!is_enabled());
        add(Counter::PoolMisses, 5);
        observe(Hist::SimFrameTimeNs, 1);
        drop(span(Phase::CacheProbe));
        let s = snapshot("disabled");
        assert!(!s.counters.contains_key("pool_misses"));
        assert!(!s.histograms.contains_key("sim_frame_time_ns"));
    }

    #[test]
    fn concurrent_writers_merge_exactly() {
        let reg = Arc::new(Registry::new());
        reg.set_enabled(true);
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    let rec = reg.recorder();
                    for i in 0..PER_THREAD {
                        rec.add(Counter::PoolHits, 1);
                        rec.record_span(Phase::VPageRead, 2);
                        rec.observe(Hist::SimSearchUs, (t as u64) * PER_THREAD + i);
                    }
                });
            }
        });
        let s = reg.snapshot("concurrent");
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(s.counters["pool_hits"], total);
        assert_eq!(s.counters["phase.vpage_read.spans"], total);
        assert_eq!(s.counters["phase.vpage_read.wall_ns"], 2 * total);
        let h = &s.histograms["sim_search_us"];
        assert_eq!(h.count, total);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, total - 1);
        assert_eq!(h.sum, total * (total - 1) / 2);
        assert_eq!(h.buckets.iter().map(|&(_, n)| n).sum::<u64>(), total);
    }
}
