//! A concurrent walkthrough server: M recorded sessions over ONE shared,
//! immutable HDoV-tree.
//!
//! The paper's walkthrough evaluation (§5.4) replays one session at a time;
//! a deployed server hosts many independent visitors of the same virtual
//! city. [`SessionServer`] drives each recorded [`Session`] as its own
//! logical client — its own [`FrameEngine::Lane`] (disk heads, flipped
//! segment, [`DeltaSearch`] resident set) — on a `std::thread::scope`
//! worker pool, where workers claim whole sessions from an atomic-counter
//! queue.
//!
//! The server is one driver over any [`FrameEngine`]: the claim queue,
//! admission and shed path, η control, motion prefetch and outcome
//! bookkeeping are the same whether a frame is answered by one
//! [`SharedEnvironment`] or fanned out over tile shards by
//! `hdov_shard::ShardRouter`. What is passed to [`SessionServer::new`]
//! decides which engine runs.
//!
//! All sessions share the engine's lock-striped buffer pools, so pages
//! warmed by one visitor are hits for the next one walking the same streets.
//! Along each session's motion vector the server also *prefetches*: it
//! extrapolates the next viewpoint, and when that lands in a different cell
//! it warms the predicted cell's V-pages through a scratch context, keeping
//! the prefetch cost out of the session's own simulated search time (as an
//! asynchronous prefetch thread would).
//!
//! Query answers are deterministic (the tree is frozen); per-frame simulated
//! search *times* under a shared pool depend on session interleaving, which
//! is the phenomenon the `concurrent_sessions` benchmark measures.

use crate::admission::{BackpressureStats, SessionSlots};
use crate::control::{EtaAction, EtaController};
use crate::frame::frame_time_ms;
use crate::session::Session;
use hdov_core::{
    DeltaSearch, Query, QueryBudget, QueryResult, ResultKey, SearchScratch, SessionCtx,
    SharedEnvironment,
};
use hdov_geom::Vec3;
use hdov_obs::{Counter, Hist};
use hdov_storage::{ReplicaHealth, Result};
use hdov_visibility::CellId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The engine that answers one frame for a [`SessionServer`] visitor.
///
/// Everything around the frame — claim queue, admission, shed path, η
/// control, prefetch scheduling, outcome bookkeeping — belongs to the
/// server; the engine only serves the per-frame delta query.
pub trait FrameEngine: Sync {
    /// Per-visitor state carried between frames; holds the latest answer.
    type Lane;

    /// A fresh lane for one visitor.
    fn lane(&self) -> Self::Lane;

    /// Serves the delta frame at `viewpoint` under `eta` and `budget`,
    /// leaving the answer in `lane`. Returns the frame's simulated search
    /// time (ms) and simulated page reads.
    fn serve(
        &self,
        lane: &mut Self::Lane,
        viewpoint: Vec3,
        eta: f64,
        budget: QueryBudget,
    ) -> Result<(f64, u64)>;

    /// The answer of the lane's latest served frame.
    fn answer<'l>(&self, lane: &'l Self::Lane) -> &'l QueryResult;

    /// Warms `cell`'s V-pages ahead of the visitor, off the visitor's books.
    /// Advisory: a failed warm-up warms nothing. Returns pages warmed.
    fn prefetch(&self, lane: &mut Self::Lane, cell: CellId) -> u64;

    /// The frozen environment behind the engine: cell lookup for frames
    /// and motion prefetch, and the shed path's root LoD.
    fn env(&self) -> &SharedEnvironment;

    /// Replica-set health merged over every pool the engine reads.
    fn storage_health(&self) -> ReplicaHealth;
}

/// A visitor's lane on one [`SharedEnvironment`]: query and prefetch
/// cursors, the result buffer reused across frames, and the delta resident
/// set.
pub struct EnvLane {
    ctx: SessionCtx,
    prefetch_ctx: SessionCtx,
    scratch: SearchScratch,
    delta: DeltaSearch,
}

impl FrameEngine for SharedEnvironment {
    type Lane = EnvLane;

    fn lane(&self) -> EnvLane {
        EnvLane {
            ctx: self.session(),
            prefetch_ctx: self.session(),
            scratch: SearchScratch::new(),
            delta: DeltaSearch::new(),
        }
    }

    fn serve(
        &self,
        lane: &mut EnvLane,
        viewpoint: Vec3,
        eta: f64,
        budget: QueryBudget,
    ) -> Result<(f64, u64)> {
        let q = Query {
            resident: Some(&lane.delta),
            budget,
            prefetch: true,
            ..Query::new(self.cell_of(viewpoint), eta)
        };
        let stats = self.search(&mut lane.ctx, &mut lane.scratch, q)?;
        // A frame that exhausted its budget still answered with full
        // (coarser) coverage, so it replaces the resident set like any other.
        lane.delta.apply(lane.scratch.result());
        Ok((stats.search_time_ms(), stats.total_io().page_reads))
    }

    fn answer<'l>(&self, lane: &'l EnvLane) -> &'l QueryResult {
        lane.scratch.result()
    }

    fn prefetch(&self, lane: &mut EnvLane, cell: CellId) -> u64 {
        self.prefetch_cell(&mut lane.prefetch_ctx, cell)
            .unwrap_or(0)
    }

    fn env(&self) -> &SharedEnvironment {
        self
    }

    fn storage_health(&self) -> ReplicaHealth {
        SharedEnvironment::storage_health(self)
    }
}

/// Fidelity-ladder rank of an internal-LoD entry's level 0.
///
/// `ResultEntry::level` counts within each key's own chain (0 = finest), but
/// the chains live on different ladders: a node's internal LoD — even its
/// finest — replaces its entire subtree's object models, so it is coarser
/// than any object-level entry. Object chains are at most 4 levels deep
/// everywhere in this repo, so ranking internal levels from 4 keeps the
/// mean-served-LoD scale monotone in actual fidelity.
const INTERNAL_LOD_RANK_BASE: u64 = 4;

/// One result entry's rank on the unified served-LoD ladder.
fn served_lod_rank(key: ResultKey, level: usize) -> u64 {
    match key {
        ResultKey::Object(_) => level as u64,
        ResultKey::Internal(_) => INTERNAL_LOD_RANK_BASE + level as u64,
    }
}

/// Server tuning knobs.
///
/// The overload-protection features (DESIGN.md §12) all default *off*:
/// a default-configured server is byte-identical to one without them.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// DoV threshold `η` for every session: static without
    /// [`control`](Self::control), the controller's starting η with it
    /// (clamped into the controller's range, see [`crate::control`]).
    pub eta: f64,
    /// Per-frame traversal budget; an exhausted budget serves the remaining
    /// subtrees as internal LoDs instead of failing or running long.
    /// Through a shard router every fanned-out sub-query gets this budget.
    /// [`QueryBudget::UNLIMITED`] (the default) changes nothing.
    pub budget: QueryBudget,
    /// Closed-loop AIMD η control per session, toward this frame-time
    /// deadline in simulated milliseconds; `None` (the default) keeps η
    /// static at [`eta`](Self::eta).
    pub control: Option<f64>,
    /// Bounded session admission: at most this many sessions drive queries
    /// at once, and a session that finds no free slot is shed. `None` (the
    /// default) admits everything.
    pub admission: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            eta: 0.002,
            budget: QueryBudget::UNLIMITED,
            control: None,
            admission: None,
        }
    }
}

/// One session's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Index of the session in the input slice.
    pub session: usize,
    /// Simulated search time per frame (ms).
    pub search_ms: Vec<f64>,
    /// Simulated end-to-end frame time per frame (ms): search plus the
    /// [frame model](crate::frame)'s render charge.
    pub frame_ms: Vec<f64>,
    /// Σ rendered polygons over all frames (deterministic; used to check
    /// that concurrency never changes answers).
    pub total_polygons: u64,
    /// Simulated page reads charged to this session.
    pub page_reads: u64,
    /// Disk pages warmed by this session's motion prefetch.
    pub prefetched_pages: u64,
    /// Frames answered coarse: at least one read error was absorbed by an
    /// internal-LoD fallback (see [`hdov_core::DegradeReport`]).
    pub degraded_frames: u64,
    /// Frames dropped outright — even the root's internal LoD was
    /// unreadable. Failure stays inside this session; other sessions are
    /// unaffected.
    pub failed_frames: u64,
    /// Subtrees served as internal LoDs because the per-frame
    /// [`QueryBudget`] ran out, summed over frames.
    pub budget_stops: u64,
    /// Frames whose simulated frame time exceeded the η controller's
    /// deadline (always 0 without [`ServerConfig::control`]).
    pub deadline_misses: u64,
    /// η moves toward coarser (cheaper) frames made by the controller.
    pub eta_raises: u64,
    /// η moves toward finer (costlier) frames made by the controller.
    pub eta_drops: u64,
    /// η used for the session's final frame (the static η without control).
    pub eta_final: f64,
    /// True when admission control shed this session: every frame was
    /// served the root's internal LoD without touching the query path.
    pub shed: bool,
    /// Σ served-LoD ranks over every served result entry (0 = finest object
    /// level; internal LoDs rank coarser than any object level), for
    /// fidelity accounting.
    pub lod_level_sum: u64,
    /// Result entries served, the denominator of the mean served LoD.
    pub lod_entries: u64,
}

impl SessionOutcome {
    /// Mean served LoD level over the session's result entries
    /// (0 = everything finest; larger = coarser answers).
    pub fn mean_served_lod(&self) -> f64 {
        if self.lod_entries == 0 {
            0.0
        } else {
            self.lod_level_sum as f64 / self.lod_entries as f64
        }
    }
}

/// Aggregate result of one server run.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Per-session outcomes, in input order.
    pub sessions: Vec<SessionOutcome>,
    /// Wall-clock duration of the run in seconds.
    pub wall_seconds: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Admission counters for the run (all zero without
    /// [`ServerConfig::admission`]).
    pub backpressure: BackpressureStats,
    /// Replica-set health merged over the engine's pools at the end of the
    /// run: failovers served, pages repaired, pages still quarantined.
    /// All-zero (`is_clean`) in fault-free runs.
    pub health: ReplicaHealth,
}

impl ServerReport {
    /// Total frames (= queries) processed.
    pub fn queries(&self) -> u64 {
        self.sessions.iter().map(|s| s.search_ms.len() as u64).sum()
    }

    /// Wall-clock query throughput (queries per second).
    pub fn qps(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.queries() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of per-frame simulated search time (ms)
    /// over every session, by the nearest-rank method.
    pub fn search_ms_quantile(&self, q: f64) -> f64 {
        let mut all: Vec<f64> = self
            .sessions
            .iter()
            .flat_map(|s| s.search_ms.iter().copied())
            .collect();
        if all.is_empty() {
            return 0.0;
        }
        all.sort_by(|a, b| a.partial_cmp(b).expect("search times are finite"));
        let rank = ((q.clamp(0.0, 1.0) * all.len() as f64).ceil() as usize).max(1) - 1;
        all[rank.min(all.len() - 1)]
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of per-frame simulated *frame* time
    /// (ms) over every session (nearest rank), the overload bench's
    /// headline number.
    pub fn frame_ms_quantile(&self, q: f64) -> f64 {
        let mut all: Vec<f64> = self
            .sessions
            .iter()
            .flat_map(|s| s.frame_ms.iter().copied())
            .collect();
        if all.is_empty() {
            return 0.0;
        }
        all.sort_by(|a, b| a.partial_cmp(b).expect("frame times are finite"));
        let rank = ((q.clamp(0.0, 1.0) * all.len() as f64).ceil() as usize).max(1) - 1;
        all[rank.min(all.len() - 1)]
    }

    /// Mean per-frame simulated frame time (ms).
    pub fn mean_frame_ms(&self) -> f64 {
        let n: usize = self.sessions.iter().map(|s| s.frame_ms.len()).sum();
        if n == 0 {
            return 0.0;
        }
        self.sessions
            .iter()
            .flat_map(|s| s.frame_ms.iter())
            .sum::<f64>()
            / n as f64
    }

    /// Mean served-LoD rank of the run (0 = everything finest; rises as the
    /// server degrades under load), weighting each *session* by its frame
    /// count rather than its entry count: a shed session serves one coarse
    /// entry per frame where an admitted one serves hundreds of fine ones,
    /// and fidelity is a per-frame experience, not a per-entry tally.
    pub fn mean_served_lod(&self) -> f64 {
        let frames: u64 = self.sessions.iter().map(|s| s.frame_ms.len() as u64).sum();
        if frames == 0 {
            return 0.0;
        }
        self.sessions
            .iter()
            .map(|s| s.mean_served_lod() * s.frame_ms.len() as f64)
            .sum::<f64>()
            / frames as f64
    }

    /// Sessions shed by admission control.
    pub fn shed_sessions(&self) -> u64 {
        self.sessions.iter().filter(|s| s.shed).count() as u64
    }

    /// Σ per-frame deadline misses over all sessions.
    pub fn deadline_misses(&self) -> u64 {
        self.sessions.iter().map(|s| s.deadline_misses).sum()
    }

    /// Σ budget stops over all sessions.
    pub fn budget_stops(&self) -> u64 {
        self.sessions.iter().map(|s| s.budget_stops).sum()
    }

    /// Mean per-frame simulated search time (ms).
    pub fn mean_search_ms(&self) -> f64 {
        let n = self.queries();
        if n == 0 {
            return 0.0;
        }
        self.sessions
            .iter()
            .flat_map(|s| s.search_ms.iter())
            .sum::<f64>()
            / n as f64
    }

    /// Σ simulated page reads over all sessions.
    pub fn page_reads(&self) -> u64 {
        self.sessions.iter().map(|s| s.page_reads).sum()
    }

    /// The batch makespan in *simulated* milliseconds: the worker pool
    /// replayed in simulated time, where the earliest-free worker claims the
    /// next session (the atomic queue's behaviour) and a session costs the
    /// sum of its per-frame simulated search times.
    ///
    /// Wall-clock throughput only shows thread scaling on a multi-core
    /// host; this figure carries the scaling result on any machine, in the
    /// same simulated-time currency as the rest of the harness.
    pub fn simulated_makespan_ms(&self) -> f64 {
        let mut clocks = vec![0.0f64; self.threads.max(1)];
        for s in &self.sessions {
            let w = clocks
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("clocks are finite"))
                .map(|(i, _)| i)
                .unwrap_or(0);
            clocks[w] += s.search_ms.iter().sum::<f64>();
        }
        clocks.into_iter().fold(0.0, f64::max)
    }

    /// Throughput in simulated time: queries per simulated second over the
    /// [`simulated_makespan_ms`](Self::simulated_makespan_ms).
    pub fn simulated_qps(&self) -> f64 {
        let ms = self.simulated_makespan_ms();
        if ms > 0.0 {
            self.queries() as f64 * 1000.0 / ms
        } else {
            0.0
        }
    }
}

/// Drives recorded sessions concurrently against a [`FrameEngine`]: one
/// [`SharedEnvironment`], or a sharded router.
pub struct SessionServer<'a, E: FrameEngine> {
    engine: &'a E,
    cfg: ServerConfig,
}

impl<'a, E: FrameEngine> SessionServer<'a, E> {
    /// A server over `engine` with configuration `cfg`.
    pub fn new(engine: &'a E, cfg: ServerConfig) -> Self {
        SessionServer { engine, cfg }
    }

    /// Runs every session to completion on `threads` scoped workers, each
    /// worker claiming whole sessions from an atomic work queue.
    ///
    /// With one thread this is an ordinary sequential replay; with N it is N
    /// concurrent visitors sharing the environment's pools. With
    /// [`ServerConfig::admission`] set, each claimed session must take a
    /// slot before driving queries; one that finds none free is shed —
    /// served the root's internal LoD per frame, never an error.
    pub fn run(&self, sessions: &[Session], threads: usize) -> Result<ServerReport> {
        let workers = threads.clamp(1, sessions.len().max(1));
        let next = AtomicUsize::new(0);
        let slots = self.cfg.admission.map(SessionSlots::new);
        // Rendezvous between each worker's first claim and its first drive:
        // thread spawn is slow relative to a short session, so without the
        // barrier early workers can drain the whole queue before late ones
        // exist — which would make an admission-control load factor of "N
        // workers racing K slots" meaningless. Resolving the first wave's
        // admission *before* the rendezvous (while every slot winner is
        // still parked at it) also makes the shed count a pure function of
        // (sessions, slots) whenever workers ≥ sessions, instead of a
        // scheduling race; later waves race slot releases like any live
        // server.
        let barrier = std::sync::Barrier::new(workers);
        let start = Instant::now();

        let per_worker: Vec<Vec<SessionOutcome>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let slots = slots.as_ref();
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut done = Vec::new();
                        let first = next.fetch_add(1, Ordering::Relaxed);
                        let admitted = (first < sessions.len()).then(|| try_admit(slots));
                        barrier.wait();
                        if let Some(adm) = admitted {
                            done.push(self.finish_claim(adm, slots, first, &sessions[first]));
                        }
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= sessions.len() {
                                break done;
                            }
                            let adm = try_admit(slots);
                            done.push(self.finish_claim(adm, slots, i, &sessions[i]));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session worker panicked"))
                .collect()
        });

        let wall_seconds = start.elapsed().as_secs_f64();
        let mut outcomes = Vec::with_capacity(sessions.len());
        for r in per_worker {
            outcomes.extend(r);
        }
        outcomes.sort_by_key(|o| o.session);
        Ok(ServerReport {
            sessions: outcomes,
            wall_seconds,
            threads: workers,
            backpressure: slots.map(|s| s.stats()).unwrap_or_default(),
            health: self.engine.storage_health(),
        })
    }

    /// Drives a claimed session according to its admission decision,
    /// releasing the slot (if one was taken) afterwards.
    fn finish_claim(
        &self,
        admitted: bool,
        slots: Option<&SessionSlots>,
        index: usize,
        session: &Session,
    ) -> SessionOutcome {
        if !admitted {
            return self.drive_shed(index, session);
        }
        let out = self.drive(index, session);
        if let Some(slots) = slots {
            slots.release();
        }
        out
    }

    /// Serves a shed session: every frame gets the root's finest internal
    /// LoD from the in-memory model directory — no query, no I/O, no way to
    /// fail — so the visitor keeps a (coarse) picture while the admitted
    /// sessions keep their frame times.
    fn drive_shed(&self, index: usize, session: &Session) -> SessionOutcome {
        let tree = self.engine.env().tree();
        let root = tree.root_ordinal();
        let level = tree.internal_store().select_level(root as u64, 1.0);
        let h = tree.internal_store().handle(root as u64, level);
        let frames = session.len();
        let frame_ms = frame_time_ms(0.0, h.polygons as u64);

        hdov_obs::add(Counter::ShedSessions, 1);
        hdov_obs::add(Counter::SessionsCompleted, 1);
        SessionOutcome {
            session: index,
            search_ms: vec![0.0; frames],
            frame_ms: vec![frame_ms; frames],
            total_polygons: h.polygons as u64 * frames as u64,
            page_reads: 0,
            prefetched_pages: 0,
            degraded_frames: 0,
            failed_frames: 0,
            budget_stops: 0,
            deadline_misses: 0,
            eta_raises: 0,
            eta_drops: 0,
            eta_final: self.cfg.eta,
            shed: true,
            lod_level_sum: (INTERNAL_LOD_RANK_BASE + level as u64) * frames as u64,
            lod_entries: frames as u64,
        }
    }

    /// Replays one session: delta query per frame, plus motion-vector
    /// prefetch of the predicted next cell through the lane's prefetch
    /// cursors.
    ///
    /// One lane is carried across every frame of the session, so
    /// steady-state frames reuse the previous frame's result buffer instead
    /// of allocating a fresh one.
    ///
    /// Infallible by design: read errors that graceful degradation inside
    /// the query could not absorb drop only the failing frame
    /// ([`SessionOutcome::failed_frames`]) — one visitor's bad disk reads
    /// never take down another visitor's walkthrough.
    fn drive(&self, index: usize, session: &Session) -> SessionOutcome {
        let engine = self.engine;
        let env = engine.env();
        let mut lane = engine.lane();
        let mut controller = self
            .cfg
            .control
            .map(|target_ms| EtaController::new(target_ms, self.cfg.eta));
        let mut search_ms = Vec::with_capacity(session.len());
        let mut frame_ms = Vec::with_capacity(session.len());
        let mut total_polygons = 0u64;
        let mut page_reads = 0u64;
        let mut prefetched_pages = 0u64;
        let mut degraded_frames = 0u64;
        let mut failed_frames = 0u64;
        let mut budget_stops = 0u64;
        let mut deadline_misses = 0u64;
        let mut eta_raises = 0u64;
        let mut eta_drops = 0u64;
        let mut lod_level_sum = 0u64;
        let mut lod_entries = 0u64;

        for (i, &vp) in session.viewpoints.iter().enumerate() {
            let eta = controller.as_ref().map_or(self.cfg.eta, |c| c.eta());
            let wall = hdov_obs::is_enabled().then(Instant::now);
            match engine.serve(&mut lane, vp, eta, self.cfg.budget) {
                Ok((search, reads)) => {
                    if let Some(t0) = wall {
                        hdov_obs::observe(Hist::WallSearchNs, t0.elapsed().as_nanos() as u64);
                    }
                    let answer = engine.answer(&lane);
                    let polygons = answer.total_polygons();
                    let t = frame_time_ms(search, polygons);
                    search_ms.push(search);
                    frame_ms.push(t);
                    total_polygons += polygons;
                    page_reads += reads;
                    if answer.degrade().errors_absorbed() > 0 {
                        degraded_frames += 1;
                    }
                    budget_stops += answer.degrade().budget_stops();
                    for e in answer.entries() {
                        lod_level_sum += served_lod_rank(e.key, e.level);
                        lod_entries += 1;
                    }
                    if let Some(c) = &mut controller {
                        // Closed loop: this frame's simulated cost moves the
                        // next frame's η. All inputs are simulated, so the
                        // new frame metrics stay deterministic and gateable.
                        hdov_obs::observe(Hist::SimFrameTimeNs, (t * 1e6) as u64);
                        if t > c.target_frame_ms() {
                            deadline_misses += 1;
                            hdov_obs::add(Counter::FrameDeadlineMiss, 1);
                        }
                        match c.observe(search, polygons) {
                            EtaAction::Raise => {
                                eta_raises += 1;
                                hdov_obs::add(Counter::EtaRaises, 1);
                            }
                            EtaAction::Drop => {
                                eta_drops += 1;
                                hdov_obs::add(Counter::EtaDrops, 1);
                            }
                            EtaAction::Hold => {}
                        }
                    }
                }
                Err(_) => failed_frames += 1,
            }

            if i > 0 {
                // Dead-reckon the next viewpoint from the current motion
                // vector; if it crosses into another cell, warm that cell.
                // Prefetch is advisory: a failed warm-up costs nothing.
                let predicted = vp + (vp - session.viewpoints[i - 1]);
                let here = env.cell_of(vp);
                let ahead = env.cell_of(predicted);
                if ahead != here {
                    prefetched_pages += engine.prefetch(&mut lane, ahead);
                }
            }
        }
        hdov_obs::add(Counter::SessionsCompleted, 1);
        hdov_obs::add(Counter::SessionPageReads, page_reads);
        hdov_obs::add(Counter::PrefetchedPages, prefetched_pages);
        SessionOutcome {
            session: index,
            search_ms,
            frame_ms,
            total_polygons,
            page_reads,
            prefetched_pages,
            degraded_frames,
            failed_frames,
            budget_stops,
            deadline_misses,
            eta_raises,
            eta_drops,
            eta_final: controller.as_ref().map_or(self.cfg.eta, |c| c.eta()),
            shed: false,
            lod_level_sum,
            lod_entries,
        }
    }
}

/// Whether a claimed session may drive queries: always without admission,
/// otherwise when it takes a free slot. Never waits.
fn try_admit(slots: Option<&SessionSlots>) -> bool {
    slots.is_none_or(SessionSlots::try_acquire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionKind;
    use hdov_core::{HdovBuildConfig, HdovEnvironment, PoolConfig, StorageScheme};
    use hdov_scene::CityConfig;
    use hdov_visibility::CellGridConfig;

    fn shared_env() -> SharedEnvironment {
        let scene = CityConfig::tiny().seed(11).generate();
        let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(3, 3);
        HdovEnvironment::build(
            &scene,
            &grid_cfg,
            HdovBuildConfig::fast_test(),
            StorageScheme::IndexedVertical,
        )
        .unwrap()
        .into_shared(PoolConfig::default())
    }

    fn record_sessions(env: &SharedEnvironment, n: usize, frames: usize) -> Vec<Session> {
        // The grid region doubles as the viewpoint region for recording.
        let b = env.grid().region();
        (0..n)
            .map(|i| Session::record(b, SessionKind::all()[i % 3], frames, 1000 + i as u64))
            .collect()
    }

    #[test]
    fn answers_independent_of_thread_count() {
        let env = shared_env();
        let sessions = record_sessions(&env, 6, 30);
        let server = SessionServer::new(&env, ServerConfig::default());
        let one = server.run(&sessions, 1).unwrap();
        let four = server.run(&sessions, 4).unwrap();
        assert_eq!(one.queries(), four.queries());
        for (a, b) in one.sessions.iter().zip(&four.sessions) {
            assert_eq!(a.session, b.session);
            assert_eq!(
                a.total_polygons, b.total_polygons,
                "session {} answers changed under concurrency",
                a.session
            );
        }
    }

    #[test]
    fn shared_pool_beats_private_pools_on_hit_rate() {
        let env = shared_env();
        let sessions = record_sessions(&env, 6, 40);
        let server = SessionServer::new(&env, ServerConfig::default());
        server.run(&sessions, 4).unwrap();
        let shared_rate = env.pool_hit_rate();

        // Per-session-pool baseline: each session gets a cold private fork.
        let (mut hits, mut misses) = (0, 0);
        for s in &sessions {
            let private = env.fork_with_private_pools();
            let server = SessionServer::new(&private, ServerConfig::default());
            server.run(std::slice::from_ref(s), 1).unwrap();
            let (h, m) = private.pool_hit_stats();
            hits += h;
            misses += m;
        }
        let private_rate = hits as f64 / (hits + misses) as f64;
        assert!(
            shared_rate > private_rate,
            "shared pool rate {shared_rate:.3} should beat private {private_rate:.3}"
        );
    }

    #[test]
    fn motion_prefetch_warms_upcoming_cells() {
        let env = shared_env();
        let sessions = record_sessions(&env, 2, 60);
        let report = SessionServer::new(&env, ServerConfig::default())
            .run(&sessions, 2)
            .unwrap();
        let prefetched: u64 = report.sessions.iter().map(|s| s.prefetched_pages).sum();
        assert!(
            prefetched > 0,
            "60-frame walks should cross cells and trigger prefetch"
        );
    }

    #[test]
    fn report_statistics() {
        let env = shared_env();
        let sessions = record_sessions(&env, 3, 20);
        let report = SessionServer::new(&env, ServerConfig::default())
            .run(&sessions, 2)
            .unwrap();
        assert_eq!(report.queries(), 60);
        assert!(report.qps() > 0.0);
        let p50 = report.search_ms_quantile(0.5);
        let p99 = report.search_ms_quantile(0.99);
        assert!(p50 > 0.0);
        assert!(p99 >= p50);
        assert!(report.mean_search_ms() > 0.0);
        assert!(report.page_reads() > 0);
    }

    /// Defaults must be inert: no budget stops, no controller activity, no
    /// shedding, and the same answers as always.
    #[test]
    fn default_config_leaves_overload_machinery_cold() {
        let env = shared_env();
        let sessions = record_sessions(&env, 4, 25);
        let report = SessionServer::new(&env, ServerConfig::default())
            .run(&sessions, 2)
            .unwrap();
        assert_eq!(report.budget_stops(), 0);
        assert_eq!(report.deadline_misses(), 0);
        assert_eq!(report.shed_sessions(), 0);
        assert_eq!(report.backpressure, BackpressureStats::default());
        for s in &report.sessions {
            assert!(!s.shed);
            assert_eq!((s.eta_raises, s.eta_drops), (0, 0));
            assert_eq!(s.eta_final, 0.002, "static η must pass through");
            assert_eq!(s.failed_frames, 0);
        }
    }

    /// A starvation-level per-frame budget: queries still never fail, every
    /// stop is accounted, and fidelity (mean served LoD) degrades instead.
    #[test]
    fn tight_budget_degrades_fidelity_not_availability() {
        let env = shared_env();
        let sessions = record_sessions(&env, 4, 25);
        let plain = SessionServer::new(&env, ServerConfig::default())
            .run(&sessions, 2)
            .unwrap();
        let starved = SessionServer::new(
            &env.fork_with_private_pools(),
            ServerConfig {
                budget: QueryBudget::sim_ms(0.001),
                ..Default::default()
            },
        )
        .run(&sessions, 2)
        .unwrap();
        assert!(starved.budget_stops() > 0, "1µs frames must stop descents");
        for s in &starved.sessions {
            assert_eq!(s.failed_frames, 0, "budget exhaustion is never an error");
            assert_eq!(s.search_ms.len(), 25, "every frame still answered");
        }
        assert!(
            starved.mean_served_lod() > plain.mean_served_lod(),
            "starved run should serve coarser LoDs: {} vs {}",
            starved.mean_served_lod(),
            plain.mean_served_lod()
        );
    }

    /// The closed loop reacts to an unmeetable deadline by driving η coarser
    /// and recording every miss and raise.
    #[test]
    fn controller_raises_eta_under_unmeetable_deadline() {
        let env = shared_env();
        let sessions = record_sessions(&env, 2, 30);
        let cfg = ServerConfig {
            control: Some(0.001),
            ..Default::default()
        };
        let report = SessionServer::new(&env, cfg).run(&sessions, 1).unwrap();
        assert!(report.deadline_misses() > 0);
        for s in &report.sessions {
            assert!(s.eta_raises > 0, "misses must push η up");
            assert!(
                s.eta_final >= cfg.eta,
                "η should end at or above its start under overload"
            );
            assert_eq!(s.failed_frames, 0);
        }
    }

    /// The controller starts at `ServerConfig::eta`: under a deadline no
    /// frame can miss, a one-frame session ends one drop step below it.
    #[test]
    fn controller_starts_at_the_configured_eta() {
        let env = shared_env();
        let sessions = record_sessions(&env, 1, 1);
        let cfg = ServerConfig {
            eta: 0.004,
            control: Some(1e9),
            ..Default::default()
        };
        let report = SessionServer::new(&env, cfg).run(&sessions, 1).unwrap();
        let s = &report.sessions[0];
        assert_eq!((s.deadline_misses, s.eta_raises, s.eta_drops), (0, 0, 1));
        assert!(
            (s.eta_final - (0.004 - crate::control::DROP_STEP)).abs() < 1e-12,
            "η ended at {}, not 0.0035",
            s.eta_final
        );
    }

    /// Strict admission with more sessions than slots: the overflow is shed
    /// — coarse frames, zero I/O, zero errors — and the books balance.
    #[test]
    fn admission_sheds_overflow_sessions_without_errors() {
        let env = shared_env();
        let sessions = record_sessions(&env, 6, 10);
        let cfg = ServerConfig {
            admission: Some(1),
            ..Default::default()
        };
        let report = SessionServer::new(&env, cfg).run(&sessions, 4).unwrap();
        let shed = report.shed_sessions();
        assert!(shed > 0, "4 workers racing 1 slot must shed someone");
        assert_eq!(report.backpressure.shed, shed);
        assert_eq!(report.backpressure.admitted + shed, 6);
        for s in report.sessions.iter().filter(|s| s.shed) {
            assert_eq!(s.failed_frames, 0, "shedding must never be an error");
            assert_eq!(s.page_reads, 0, "shed sessions stay off the disks");
            assert_eq!(s.frame_ms.len(), 10, "every frame still served");
            assert!(s.total_polygons > 0, "the root LoD is a real picture");
            assert_eq!(s.lod_entries, 10);
        }
        // Plenty of slots: nothing sheds.
        let cfg = ServerConfig {
            admission: Some(16),
            ..Default::default()
        };
        let report = SessionServer::new(&env, cfg).run(&sessions, 4).unwrap();
        assert_eq!(report.shed_sessions(), 0);
        assert_eq!(report.backpressure.admitted, 6);
    }

    #[test]
    fn simulated_throughput_scales_with_workers() {
        // A pool far smaller than the working set keeps every session
        // paying misses, so per-session costs stay balanced and the
        // 4-worker makespan genuinely parallelizes.
        let scene = hdov_scene::CityConfig::tiny().seed(11).generate();
        let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(3, 3);
        let env = HdovEnvironment::build(
            &scene,
            &grid_cfg,
            HdovBuildConfig::fast_test(),
            StorageScheme::IndexedVertical,
        )
        .unwrap()
        .into_shared(PoolConfig {
            capacity_pages: 4,
            shards: 2,
            ..PoolConfig::default()
        });
        let sessions = record_sessions(&env, 8, 30);
        let four = SessionServer::new(&env, ServerConfig::default())
            .run(&sessions, 4)
            .unwrap();
        // Same measured per-frame costs, replayed on a single simulated
        // worker, isolate the scheduling model from the interleaving.
        let one = ServerReport {
            sessions: four.sessions.clone(),
            wall_seconds: four.wall_seconds,
            threads: 1,
            backpressure: BackpressureStats::default(),
            health: ReplicaHealth::default(),
        };
        assert!(one.simulated_makespan_ms() > 0.0);
        assert!(
            four.simulated_qps() >= 2.0 * one.simulated_qps(),
            "4 simulated workers should at least double throughput: {} vs {}",
            four.simulated_qps(),
            one.simulated_qps()
        );
    }
}
