//! Fault-domain sharding for HDoV scenes (DESIGN.md §17).
//!
//! The paper serves one HDoV-tree from one machine; this crate runs one
//! engine per spatial tile — each its own
//! [`SharedEnvironment`](hdov_core::SharedEnvironment) fork with private
//! pools and its own fault plan — behind a resilient
//! [`ShardRouter`]:
//!
//! * [`TileMap`] carves the viewing-cell grid into spatial tiles, one per
//!   shard; objects belong to the tile holding their MBR center.
//! * [`ShardRouter`] maps a visitor's cell to its home shard plus every
//!   visibility-overlapping shard, fans the delta query out, and merges the
//!   per-shard frames into one deterministic frame (object order
//!   independent of shard completion order — the data plane lives in
//!   [`hdov_core::shard`]).
//! * [`CircuitBreaker`] trips a shard after consecutive failures and probes
//!   it back half-open; deadlines, retries, and hedged reads are all
//!   deterministic (simulated time, request-counted cooldowns).
//! * A tripped, timed-out, or dead shard contributes its tiles at the
//!   coarsest internal LoD
//!   ([`DegradeCause::ShardUnavailable`](hdov_core::DegradeCause)) instead
//!   of failing the frame.
//! * [`ShardRouter`] is a [`FrameEngine`](hdov_walkthrough::FrameEngine):
//!   `SessionServer::new(&router, cfg)` drives recorded sessions through
//!   it with the unsharded server's own loop — one **global** admission
//!   slot per visitor across all shards, η control fed by the merged
//!   frame, the per-frame budget on every sub-query, and motion prefetch
//!   on every shard of the predicted cell's fan-out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod router;
pub mod tile;

pub use breaker::{BreakerState, CircuitBreaker};
pub use router::{
    RouteStats, RouterConfig, RouterTotals, SessionLane, ShardChaos, ShardEngine, ShardRouter,
};
pub use tile::TileMap;
