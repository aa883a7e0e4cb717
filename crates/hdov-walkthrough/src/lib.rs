//! The VISUAL walkthrough prototype and its evaluation harness.
//!
//! The paper's second experiment (§5.4) plays recorded walkthrough sessions
//! through two systems — VISUAL (HDoV-tree + delta search) and REVIEW
//! (R-tree window queries + complement search) — and compares per-frame
//! times, I/O, visual fidelity, and memory. This crate provides:
//!
//! * [`Session`] — seeded, replayable camera paths for the three motion
//!   patterns of Fig. 12 (normal walk / turning / back-and-forth),
//! * [`frame_time_ms`] — the analytic render-time model
//!   (`frame = search + base + polygons × per-poly cost`) substituting for
//!   the paper's OpenGL renderer,
//! * [`VisualSystem`] and [`ReviewWalkthrough`] — both behind the
//!   [`WalkthroughSystem`] trait, and
//! * [`WalkthroughMetrics`] — average/variance frame time, per-query search
//!   time and I/O, DoV-coverage fidelity, and peak memory, and
//! * [`SessionServer`] — a concurrent multi-session server replaying many
//!   recorded sessions against one shared, immutable HDoV-tree. It is the
//!   one session driver: any [`FrameEngine`] serves its frames, either a
//!   single `SharedEnvironment` or hdov-shard's tile-sharded router.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod control;
pub mod frame;
pub mod metrics;
pub mod server;
pub mod session;
pub mod streaming;
pub mod system;

pub use admission::{BackpressureStats, SessionSlots};
pub use control::{EtaAction, EtaController};
pub use frame::{frame_time_ms, FrameRecord};
pub use metrics::{run_session, WalkthroughMetrics};
pub use server::{EnvLane, FrameEngine, ServerConfig, ServerReport, SessionOutcome, SessionServer};
pub use session::{Session, SessionKind};
pub use streaming::StreamingVisualSystem;
pub use system::{LodRTreeWalkthrough, ReviewWalkthrough, VisualSystem, WalkthroughSystem};
