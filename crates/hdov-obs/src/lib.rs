//! **hdov-obs** — lightweight observability for the HDoV-tree stack.
//!
//! The storage-scheme comparisons of the paper (Table 2, Figs. 7–9) hinge on
//! knowing *where* a query spends its effort: traversal vs V-page reads vs
//! LoD fetches vs buffer-pool probes. This crate provides that breakdown as
//! a dependency-free layer the rest of the workspace threads through:
//!
//! * a fixed phase/counter/histogram taxonomy ([`Phase`], [`Counter`],
//!   [`Hist`]) — dense enums, so recording is array indexing, never hashing;
//! * lock-free per-thread recorders ([`LocalRecorder`]) merged by a
//!   [`Registry`] into a [`MetricsSnapshot`];
//! * fixed log-bucket histograms ([`Histogram`]) for latency distributions,
//!   no dependencies;
//! * a stable JSON schema (`MetricsSnapshot::to_json` / `from_json`) that
//!   `bench_report` diffs for the CI perf-regression gate.
//!
//! **Zero-cost when disabled.** The global registry starts disabled; every
//! instrumentation site ([`add`], [`span`], [`observe`]) first runs the
//! inlined [`is_enabled`] — one relaxed `AtomicBool` load of the
//! constant-initialised registry — and does nothing else. No clocks are
//! read, no thread-locals initialized. Enabling recording changes *only*
//! wall-clock measurements and event counts — never the simulated-I/O cost
//! model — so the fig7/fig8 CSVs stay bit-identical with instrumentation
//! on, which the CI determinism job verifies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod json;
pub mod phase;
pub mod recorder;
pub mod snapshot;

pub use histogram::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use phase::{Counter, Hist, Phase};
pub use recorder::{
    add, disable, enable, global, is_enabled, observe, reset, snapshot, span, LocalRecorder,
    Registry, SpanGuard,
};
pub use snapshot::{MetricsSnapshot, SCHEMA_VERSION};
