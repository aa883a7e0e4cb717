//! The shard router: fan out, survive, merge (DESIGN.md §17).
//!
//! [`ShardRouter`] fronts one engine per spatial tile — each engine a fork
//! of the same frozen [`SharedEnvironment`] with its own pools, so a fault
//! plan armed on one shard's pools cannot touch another's. Per frame it:
//!
//! 1. maps the visitor's cell to its *fan-out mask* — the home tile plus
//!    every shard whose root bit in [`ShardPlan`]'s per-(cell, shard) node
//!    bitset is set, i.e. every shard with visible work in this cell (from
//!    the ground-truth visible set),
//! 2. runs the sharded search on each fanned-out shard, one after another
//!    on the routing thread, each entering only the subtrees where that
//!    bitset marks visible work, guarded by that shard's circuit breaker, a
//!    simulated per-request deadline and one deterministic retry,
//! 3. k-way merges the per-shard frames (each already in DFS order) into
//!    one deterministic [`QueryResult`] — stable object order independent
//!    of shard completion order.
//!
//! A shard that is tripped, timed out, or dead past its retry contributes
//! its precomputed coarse cover instead of failing the frame
//! ([`DegradeCause::ShardUnavailable`](hdov_core::DegradeCause)); the
//! router never returns an error for a routable frame.
//!
//! The router is a [`FrameEngine`], so
//! [`SessionServer`](hdov_walkthrough::SessionServer) drives recorded
//! sessions through it exactly as through one unsharded engine.
//!
//! All robustness accounting is simulated-time and deterministic: deadlines
//! compare *simulated* search milliseconds, the retry is instant (a retry
//! against a dead engine models the network timeout the real system would
//! pay — the simulated clock, like the paper's, only charges I/O), and the
//! breaker counts requests, not seconds.

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::tile::TileMap;
use hdov_core::shard::{check_shard_count, merge_frames, search_shard, ShardFrame, ShardPlan};
use hdov_core::{DeltaSearch, Query, QueryBudget, QueryResult, SessionCtx, SharedEnvironment};
use hdov_geom::Vec3;
use hdov_obs::Counter;
use hdov_storage::{ReplicaHealth, Result, StorageError};
use hdov_visibility::CellId;
use hdov_walkthrough::FrameEngine;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Deterministic retry attempts after a failed sub-query (dead engine or
/// storage error), before the shard degrades.
const RETRIES: u32 = 1;

/// Router tuning. The default keeps every fault-domain mechanism inert: an
/// infinite deadline and a breaker that a fault-free run never feeds a
/// failure, so a default-configured fan-out is byte-identical to the
/// unsharded search.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Per-sub-query deadline in *simulated* milliseconds; a sub-query
    /// whose simulated search time exceeds it is treated as abandoned
    /// (`shard_timeouts`) and the shard degrades for that frame.
    pub deadline_sim_ms: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            deadline_sim_ms: f64::INFINITY,
        }
    }
}

/// A deterministic chaos schedule: kill one shard at a global frame index,
/// revive it at another (`u64::MAX` = never). Frame indices count every
/// routed frame across all sessions, in routing order.
#[derive(Debug, Clone, Copy)]
pub struct ShardChaos {
    /// The shard to kill.
    pub shard: usize,
    /// Global frame index at which the shard dies.
    pub kill_at_frame: u64,
    /// Global frame index at which it comes back.
    pub revive_at_frame: u64,
}

/// One shard: a private-pool fork of the frozen environment and a liveness
/// flag the chaos schedule (or an operator) flips. A dead engine refuses
/// queries; its in-memory directories stay readable, which is exactly what
/// serving the coarse cover needs.
pub struct ShardEngine {
    env: SharedEnvironment,
    alive: AtomicBool,
}

impl ShardEngine {
    /// The shard's frozen environment.
    pub fn env(&self) -> &SharedEnvironment {
        &self.env
    }

    /// Is the engine accepting queries?
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }

    /// Stops the engine: subsequent sub-queries fail until [`revive`](Self::revive).
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Relaxed);
    }

    /// Restarts the engine.
    pub fn revive(&self) {
        self.alive.store(true, Ordering::Relaxed);
    }
}

/// Per-visitor routing state: one cursor set per shard (plus one for
/// motion prefetch), the per-shard frame slots, the merged frame, and the
/// delta resident set — everything a visitor carries between frames. All
/// of it is reused, so a steady-state fault-free frame over warm pools
/// allocates nothing.
pub struct SessionLane {
    ctxs: Vec<SessionCtx>,
    prefetch_ctxs: Vec<SessionCtx>,
    frames: Vec<ShardFrame>,
    merged: QueryResult,
    delta: DeltaSearch,
}

impl SessionLane {
    /// The most recent merged frame.
    pub fn merged(&self) -> &QueryResult {
        &self.merged
    }

    /// The per-shard frame slots of the most recent frame, by shard id
    /// (entries are drained by the merge; the sub-query stats remain).
    pub fn frames(&self) -> &[ShardFrame] {
        &self.frames
    }
}

/// What one routed frame cost and survived.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteStats {
    /// Simulated search time of the frame in ms: the **max** over the
    /// fanned-out sub-queries — the fan-out is parallel, so the frame waits
    /// for the slowest shard, not the sum.
    pub search_ms: f64,
    /// Simulated page reads summed over the sub-queries.
    pub page_reads: u64,
    /// Tree nodes read, summed over the answered sub-queries (a shard
    /// serving its cover adds 0).
    pub nodes_visited: u64,
    /// V-pages fetched, summed over the answered sub-queries.
    pub vpages_fetched: u64,
    /// Shards fanned out to.
    pub fanout: u32,
    /// Shards that contributed their coarse cover instead of a live answer.
    pub degraded_shards: u32,
}

/// Aggregate router counters since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterTotals {
    /// Frames routed.
    pub frames: u64,
    /// Frames with at least one shard served from its cover.
    pub degraded_frames: u64,
    /// Sub-queries abandoned past the deadline.
    pub timeouts: u64,
    /// Always 0: the router issues no hedged reads. Kept only because the
    /// serving benchmark still reads it; ROADMAP item 1 drops that read and
    /// then this field.
    pub hedged: u64,
    /// Breaker open transitions.
    pub breaker_opens: u64,
}

/// The resilient session router over a set of tile shards.
pub struct ShardRouter {
    engines: Vec<ShardEngine>,
    plan: ShardPlan,
    tiles: TileMap,
    cfg: RouterConfig,
    breakers: Vec<CircuitBreaker>,
    chaos: Option<ShardChaos>,
    frames_routed: AtomicU64,
    degraded_frames: AtomicU64,
    timeouts: AtomicU64,
    breaker_opens: AtomicU64,
}

impl ShardRouter {
    /// Builds a router over `shards` tile shards of `base`: the tile map
    /// from the grid, the ownership plan from one tree walk, then one
    /// private-pool engine fork per shard (cold pools — each shard is its
    /// own fault domain).
    ///
    /// Fails with [`StorageError::InvalidPlan`](hdov_storage::StorageError)
    /// when `shards` is outside `1..=`[`MAX_SHARDS`](hdov_core::MAX_SHARDS)
    /// or the tree cannot be planned (see [`ShardPlan::build`]).
    pub fn new(base: &SharedEnvironment, shards: usize, cfg: RouterConfig) -> Result<ShardRouter> {
        check_shard_count(shards)?;
        let tiles = TileMap::new(base.grid(), shards);
        let grid = base.grid();
        let plan = ShardPlan::build(base, shards, |_, center| {
            tiles.shard_of_cell(grid.clamped_cell_of(center))
        })?;
        let engines = (0..shards)
            .map(|_| ShardEngine {
                env: base.fork_with_private_pools(),
                alive: AtomicBool::new(true),
            })
            .collect();
        let breakers = (0..shards).map(|_| CircuitBreaker::default()).collect();
        Ok(ShardRouter {
            engines,
            plan,
            tiles,
            cfg,
            breakers,
            chaos: None,
            frames_routed: AtomicU64::new(0),
            degraded_frames: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
        })
    }

    /// Installs (or clears) the chaos schedule. Set before routing.
    ///
    /// Fails with [`StorageError::InvalidPlan`] when the schedule names a
    /// shard this router does not have; the previous schedule then stays.
    pub fn set_chaos(&mut self, chaos: Option<ShardChaos>) -> Result<()> {
        if let Some(c) = chaos.filter(|c| c.shard >= self.engines.len()) {
            return Err(StorageError::InvalidPlan {
                reason: format!(
                    "chaos shard {} out of range for {} shards",
                    c.shard,
                    self.engines.len()
                ),
            });
        }
        self.chaos = chaos;
        Ok(())
    }

    /// The shard engines, indexed by shard id.
    pub fn engines(&self) -> &[ShardEngine] {
        &self.engines
    }

    /// Shard `shard`'s breaker state.
    pub fn breaker_state(&self, shard: usize) -> BreakerState {
        self.breakers[shard].state()
    }

    /// Counters since construction.
    pub fn totals(&self) -> RouterTotals {
        RouterTotals {
            frames: self.frames_routed.load(Ordering::Relaxed),
            degraded_frames: self.degraded_frames.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            hedged: 0,
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
        }
    }

    /// Replica-set health merged over every shard engine's pools — the
    /// cross-shard view of the pools' self-healing counters.
    pub fn storage_health(&self) -> ReplicaHealth {
        let mut health = ReplicaHealth::default();
        for e in &self.engines {
            health.merge(&e.env.storage_health());
        }
        health
    }

    /// A fresh per-visitor lane.
    pub fn lane(&self) -> SessionLane {
        let n = self.engines.len();
        let ctxs = || self.engines.iter().map(|e| e.env.session()).collect();
        SessionLane {
            ctxs: ctxs(),
            prefetch_ctxs: ctxs(),
            frames: (0..n).map(|_| ShardFrame::new()).collect(),
            merged: QueryResult::default(),
            delta: DeltaSearch::new(),
        }
    }

    /// The shards a frame at `cell` fans out to: its home tile plus every
    /// shard that can contribute an entry.
    fn fanout_mask(&self, cell: CellId) -> u64 {
        self.plan.cell_mask(cell) | (1u64 << self.tiles.shard_of_cell(cell))
    }

    /// [`route_budgeted`](Self::route_budgeted) with no traversal budget.
    pub fn route(&self, lane: &mut SessionLane, viewpoint: Vec3, eta: f64) -> RouteStats {
        self.route_budgeted(lane, viewpoint, eta, QueryBudget::UNLIMITED)
    }

    /// Routes one delta frame for the visitor at `viewpoint`: fan out with
    /// `budget` on every sub-query, guard, merge into `lane.merged()`, fold
    /// into the delta resident set.
    pub fn route_budgeted(
        &self,
        lane: &mut SessionLane,
        viewpoint: Vec3,
        eta: f64,
        budget: QueryBudget,
    ) -> RouteStats {
        let cell = self.engines[0].env.cell_of(viewpoint);
        let frame_no = self.frames_routed.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.chaos {
            // fetch_add hands each frame index to exactly one caller, so
            // kill and revive each fire exactly once even under threads.
            if frame_no == c.kill_at_frame {
                self.engines[c.shard].kill();
            }
            if frame_no == c.revive_at_frame {
                self.engines[c.shard].revive();
            }
        }

        let mask = self.fanout_mask(cell);
        let mut rs = RouteStats::default();

        // Every sub-query reads the resident set in place while writing its
        // own cursors and frame slot.
        let SessionLane {
            ctxs,
            frames,
            delta,
            ..
        } = &mut *lane;
        let q = Query {
            resident: Some(delta),
            budget,
            prefetch: true,
            ..Query::new(cell, eta)
        };
        for s in 0..self.engines.len() {
            if mask & (1u64 << s) == 0 {
                frames[s].clear();
                continue;
            }
            rs.fanout += 1;
            self.sub_query(s, q, &mut ctxs[s], &mut frames[s], &mut rs);
        }

        merge_frames(&mut lane.frames, &mut lane.merged);
        lane.delta.apply(&lane.merged);

        if rs.degraded_shards > 0 {
            self.degraded_frames.fetch_add(1, Ordering::Relaxed);
            hdov_obs::add(Counter::ShardDegradedFrames, 1);
        }
        rs
    }

    /// One shard's guarded sub-query for `q`: breaker gate → search
    /// through `ctx` (with retry and deadline) → coarse cover. Leaves
    /// `frame` holding the shard's contribution no matter what failed.
    fn sub_query(
        &self,
        s: usize,
        q: Query<'_>,
        ctx: &mut SessionCtx,
        frame: &mut ShardFrame,
        rs: &mut RouteStats,
    ) {
        let engine = &self.engines[s];
        let breaker = &self.breakers[s];
        let mut detail = String::new();
        let mut answered_ms: Option<f64> = None;

        if breaker.allow() {
            for _attempt in 0..=RETRIES {
                if !engine.is_alive() {
                    detail = format!("shard {s} engine down");
                    continue; // deterministic retry: instant in simulated time
                }
                match search_shard(&engine.env, ctx, &self.plan, s, frame, q) {
                    Ok(stats) => {
                        let ms = stats.search_time_ms();
                        if ms > self.cfg.deadline_sim_ms {
                            // Abandoned reply: the same deterministic query
                            // would bust the same deadline, so no retry.
                            self.timeouts.fetch_add(1, Ordering::Relaxed);
                            hdov_obs::add(Counter::ShardTimeouts, 1);
                            detail = format!(
                                "shard {s} deadline exceeded ({ms:.3} ms > {:.3} ms)",
                                self.cfg.deadline_sim_ms
                            );
                            break;
                        }
                        rs.page_reads += stats.total_io().page_reads;
                        rs.nodes_visited += stats.nodes_visited;
                        rs.vpages_fetched += stats.vpages_fetched;
                        answered_ms = Some(ms);
                        break;
                    }
                    Err(e) => detail = format!("shard {s}: {e}"),
                }
            }
            match answered_ms {
                Some(_) => breaker.record_success(),
                None => {
                    if breaker.record_failure() {
                        self.breaker_opens.fetch_add(1, Ordering::Relaxed);
                        hdov_obs::add(Counter::BreakerOpens, 1);
                    }
                }
            }
        } else {
            detail = format!("shard {s} circuit open");
        }

        match answered_ms {
            Some(ms) => rs.search_ms = rs.search_ms.max(ms),
            None => {
                // Tripped, timed out, or dead past its retry: the
                // shard's tiles arrive at the coarsest internal LoD instead
                // of failing the frame.
                self.plan.cover_frame(&engine.env, s, &detail, frame);
                rs.degraded_shards += 1;
            }
        }
    }
}

/// Each frame is routed; the answer is the lane's merged frame.
impl FrameEngine for ShardRouter {
    type Lane = SessionLane;

    fn lane(&self) -> SessionLane {
        ShardRouter::lane(self)
    }

    /// Never fails: an unreachable shard serves its coarse cover.
    fn serve(
        &self,
        lane: &mut SessionLane,
        viewpoint: Vec3,
        eta: f64,
        budget: QueryBudget,
    ) -> Result<(f64, u64)> {
        let rs = self.route_budgeted(lane, viewpoint, eta, budget);
        Ok((rs.search_ms, rs.page_reads))
    }

    fn answer<'l>(&self, lane: &'l SessionLane) -> &'l QueryResult {
        lane.merged()
    }

    /// Warms `cell` on every live shard in its fan-out mask through the
    /// lane's prefetch cursors. Dead engines are skipped and errors warm
    /// nothing; neither reaches a breaker.
    fn prefetch(&self, lane: &mut SessionLane, cell: CellId) -> u64 {
        let mask = self.fanout_mask(cell);
        let mut pages = 0;
        for (s, engine) in self.engines.iter().enumerate() {
            if mask & (1u64 << s) != 0 && engine.is_alive() {
                pages += engine
                    .env
                    .prefetch_cell(&mut lane.prefetch_ctxs[s], cell)
                    .unwrap_or(0);
            }
        }
        pages
    }

    fn env(&self) -> &SharedEnvironment {
        &self.engines[0].env
    }

    fn storage_health(&self) -> ReplicaHealth {
        ShardRouter::storage_health(self)
    }
}
