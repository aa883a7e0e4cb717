//! The four serving workloads: set-up, load generation and answer checks.
//!
//! Every workload serves frames at η = [`ETA`] through the engine's public
//! per-frame entry points and times each call with `Instant`:
//!
//! * `walk-hot` — closed loop, one client replaying recorded walk
//!   sessions through `SharedEnvironment::query_delta_into` on the mid city,
//!   `mem` backend. The working set fits the pools, so traversal, overlay
//!   decode and the delta resident set dominate.
//! * `teleport-cold` — closed loop, one client issuing
//!   `SharedEnvironment::query_cell` on uniformly random cells of the mid
//!   city frozen to `file:pread`. The stores dwarf the pools, so eviction,
//!   positioned reads, checksums and codec decode dominate.
//! * `walk-sharded` — the `walk-hot` sessions through `ShardRouter::route`
//!   over four tile shards: same answers, plus fan-out and merge.
//! * `edit-mix` — one open-loop writer committing single-object translates
//!   to a `MutableScene` at a fixed rate, beside one closed-loop reader
//!   walking the current epoch and re-pinning whenever a new one appears.
//!
//! The scenes are fixed (generator seed [`SCENE_SEED`]); the run seed picks
//! the traffic: sessions, cells and edits.

use crate::measure::{
    clock_sample_s, clock_scale, combine, due_latency, frame_digest, highest_supported, percentile,
    pooled_percentile, same_answers, supports,
};
use crate::trace::{SpanLog, Tracer};
use hdov_core::{
    DeltaSearch, HdovBuildConfig, HdovEnvironment, MutableScene, PoolConfig, QueryResult,
    ResultEntry, SearchScratch, SearchStats, SessionCtx, SharedEnvironment, StorageScheme,
};
use hdov_geom::sampling::SplitMix64;
use hdov_geom::Vec3;
use hdov_obs::{Counter, MetricsSnapshot, Phase};
use hdov_scene::{CityConfig, Scene};
use hdov_shard::{RouteStats, RouterConfig, ShardRouter};
use hdov_storage::{FileMode, Scrubber, StorageBackend, PAGE_SIZE};
use hdov_visibility::{CellGridConfig, CellId, DovConfig, DovTable};
use hdov_walkthrough::{Session, SessionKind};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// DoV threshold of every query.
pub const ETA: f64 = 0.002;
/// Closed-loop clients of the read workloads (see [`closed_loop`]). One: on
/// a 2-vCPU host two client threads served only ~15 % more frames than one,
/// each frame took 60 % longer, and the run-to-run spread grew with the
/// contention between them, so a second client measured the host more than
/// the engine.
pub const CLIENTS: usize = 1;
/// Workload names, in run order.
pub const WORKLOADS: [&str; 4] = ["walk-hot", "teleport-cold", "walk-sharded", "edit-mix"];
/// Generator seed of both scenes (the data, not the traffic).
pub const SCENE_SEED: u64 = 2003;
/// DoV estimation threads during set-up. On a 2-vCPU host, two threads
/// took either 0.8 s or 2.1 s for the mid city from one run to the next,
/// while one thread held at 1.4 s ± 4 %, so `setup_s` uses one.
const DOV_THREADS: usize = 1;
/// Tile shards of `walk-sharded`.
const SHARDS: usize = 4;
/// Store name of the mutable scene.
const MUTABLE_NAME: &str = "bench";
/// Warm-up units are numbered from here, so the measured phases always
/// replay units 0, 1, 2, … whatever the warm-up consumed.
const WARMUP_UNIT0: u64 = 1 << 40;
/// A commit that starts more than this after its due time counts as late.
const LATE_S: f64 = 0.001;

/// Digest (see [`answers_digest`]) of every cell's answer in the full-size
/// mid city at η = [`ETA`]. A change that alters any answer alters it.
const MID_CITY_ANSWERS: u64 = 0xe7cc_9f09_8e12_d9ac;
/// The same for the full-size `edit-mix` scene at epoch 0.
const EDIT_CITY_ANSWERS: u64 = 0x059b_f943_e558_931e;

/// Sizes of one benchmark configuration.
#[derive(Debug, Clone)]
pub struct Scale {
    /// City of the three read workloads.
    pub mid_city: CityConfig,
    /// Cells per side of the read workloads' grid.
    pub mid_cells: usize,
    /// `(rays per viewpoint, viewpoints per cell)` of the read workloads' DoV.
    pub mid_dov: (usize, usize),
    /// City of `edit-mix`.
    pub edit_city: CityConfig,
    /// Cells per side of `edit-mix`'s grid.
    pub edit_cells: usize,
    /// DoV sampling of `edit-mix`.
    pub edit_dov: (usize, usize),
    /// Frames per recorded walk session.
    pub session_frames: usize,
    /// Set-ups per run of the read workloads; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Set-ups per run of `edit-mix`, whose set-up is short. A fixed count,
    /// not a time budget, so that a faster host does no more work (and
    /// leaves no different heap behind for `peak_rss_mb`).
    pub edit_setup_repeats: usize,
    /// Unmeasured warm-up before the measured phase, seconds.
    pub warmup_s: f64,
    /// The `edit-mix` writer's commit rate.
    pub commits_per_s: f64,
    /// Whether to compare answer digests with the pinned values (true only
    /// at the sizes the pins were taken at).
    pub pinned: bool,
}

impl Scale {
    /// The benchmark's configuration.
    pub fn full() -> Scale {
        Scale {
            mid_city: CityConfig {
                blocks_x: 12,
                blocks_y: 12,
                ..CityConfig::default_paper()
            }
            .seed(SCENE_SEED),
            mid_cells: 16,
            mid_dov: (2048, 5),
            edit_city: CityConfig::small().seed(SCENE_SEED),
            edit_cells: 8,
            edit_dov: (1024, 3),
            session_frames: 2000,
            setup_repeats: 3,
            edit_setup_repeats: 9,
            warmup_s: 1.0,
            commits_per_s: 2.0,
            pinned: true,
        }
    }
}

#[cfg(test)]
impl Scale {
    /// A seconds-long configuration for the smoke test.
    pub fn tiny() -> Scale {
        Scale {
            mid_city: CityConfig::tiny().seed(SCENE_SEED),
            mid_cells: 4,
            mid_dov: (256, 2),
            edit_city: CityConfig::tiny().seed(SCENE_SEED),
            edit_cells: 4,
            edit_dov: (256, 2),
            session_frames: 25,
            setup_repeats: 1,
            edit_setup_repeats: 1,
            warmup_s: 0.05,
            commits_per_s: 20.0,
            pinned: false,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Traffic seed.
    pub seed: u64,
    /// Measured seconds. A traced run splits them between an untraced and
    /// a traced phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for stores and result files.
    pub dir: PathBuf,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric the run produced, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind the percentiles, by sample set.
    pub samples: BTreeMap<&'static str, u64>,
    /// Frames plus commits attempted in the measured phases.
    pub attempted: u64,
    /// Failed operations: errors, frames served degraded, failed commits.
    pub failed: u64,
    /// Failed answer and health checks; empty when the run is correct.
    pub errors: Vec<String>,
    /// Human-readable lines (health, router totals, pinned digests).
    pub notes: Vec<String>,
    /// Loop shape of the load generator.
    pub load: &'static str,
    /// Benchmark-side spans of set-up and the traced phase.
    pub spans: SpanLog,
    /// Engine counters and phase totals of the traced phase.
    pub obs: Option<MetricsSnapshot>,
    /// Each window of the untraced phase, in time order.
    pub windows: Vec<WindowStat>,
}

/// One measurement window's frame statistics.
#[derive(Debug, Clone, Copy)]
pub struct WindowStat {
    pub frames_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// See [`crate::measure::clock_sample_s`].
    pub clock_s: f64,
}

/// Runs workload `name` at `scale`.
pub fn run(name: &str, scale: &Scale, spec: &RunSpec) -> Result<Outcome, String> {
    let tracer = Tracer::new(Instant::now());
    let mut out = Outcome::default();
    let result = match name {
        "walk-hot" => read_workload(Read::WalkHot, scale, spec, &tracer, &mut out),
        "teleport-cold" => read_workload(Read::TeleportCold, scale, spec, &tracer, &mut out),
        "walk-sharded" => read_workload(Read::WalkSharded, scale, spec, &tracer, &mut out),
        "edit-mix" => edit_mix(scale, spec, &tracer, &mut out),
        other => return Err(format!("unknown workload {other:?}")),
    };
    result.map_err(|e| format!("{name}: {e}"))?;
    out.metrics
        .insert("peak_rss_mb", crate::measure::peak_rss_mib());
    Ok(out)
}

// ---------------------------------------------------------------------------
// Set-up

/// Per-stage set-up times of one set-up, keyed by metric name, and the
/// core clock sampled around every stage.
struct Stages<'a> {
    tracer: &'a Tracer,
    log: &'a mut SpanLog,
    parent: u64,
    secs: BTreeMap<&'static str, f64>,
    clock_s: Vec<f64>,
    /// Seconds spent sampling the clock, which are not set-up time.
    sampling_s: f64,
}

impl Stages<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.sample_clock();
        let t0 = Instant::now();
        let v = f();
        let t1 = Instant::now();
        self.sample_clock();
        self.secs.insert(name, (t1 - t0).as_secs_f64());
        let id = self.tracer.id();
        self.tracer
            .span(self.log, id, name, t0, t1, Some(self.parent));
        v
    }

    fn sample_clock(&mut self) {
        let t0 = Instant::now();
        self.clock_s.push(clock_sample_s());
        self.sampling_s += t0.elapsed().as_secs_f64();
    }
}

/// Every set-up stage metric; a workload without a stage reports it as 0.
const SETUP_STAGES: [&str; 6] = [
    "setup.scene_s",
    "setup.dov_s",
    "setup.build_s",
    "setup.freeze_s",
    "setup.router_s",
    "setup.mutable_create_s",
];

/// Runs `setup` `repeats` times, keeping the last result, and records
/// the median of each stage and of the whole (`setup_s`). Each set-up's
/// times are scaled to the reference clock by the clock sampled around its
/// stages (see [`clock_scale`]).
fn repeat_setup<T>(
    repeats: usize,
    tracer: &Tracer,
    out: &mut Outcome,
    mut setup: impl FnMut(&mut Stages) -> hdov_storage::Result<T>,
) -> hdov_storage::Result<T> {
    let mut runs = Vec::new();
    let mut last = None;
    while runs.len() < repeats.max(1) {
        // Free the previous set-up first, so peaks do not stack.
        drop(last.take());
        let id = tracer.id();
        let t0 = Instant::now();
        let mut st = Stages {
            tracer,
            log: &mut out.spans,
            parent: id,
            secs: BTreeMap::new(),
            clock_s: Vec::new(),
            sampling_s: 0.0,
        };
        let v = setup(&mut st)?;
        let t1 = Instant::now();
        let Stages {
            mut secs,
            clock_s,
            sampling_s,
            ..
        } = st;
        tracer.span(&mut out.spans, id, "setup", t0, t1, None);
        secs.insert("setup_s", (t1 - t0).as_secs_f64() - sampling_s);
        let scale = clock_scale(median(clock_s));
        secs.values_mut().for_each(|s| *s *= scale);
        runs.push(secs);
        last = Some(v);
    }
    for name in SETUP_STAGES.iter().copied().chain(["setup_s"]) {
        let v = runs
            .iter()
            .map(|r| r.get(name).copied().unwrap_or(0.0))
            .collect();
        out.metrics.insert(name, median(v));
    }
    out.samples.insert("setup", runs.len() as u64);
    Ok(last.expect("at least one set-up ran"))
}

fn dov_config((rays, viewpoints): (usize, usize)) -> DovConfig {
    DovConfig {
        rays_per_viewpoint: rays,
        viewpoints_per_cell: viewpoints,
        seed: SCENE_SEED,
        ..Default::default()
    }
}

/// Scene → DoV → build → freeze of the read workloads' mid city.
fn mid_city(
    scale: &Scale,
    backend: &StorageBackend,
    st: &mut Stages,
) -> hdov_storage::Result<SharedEnvironment> {
    let scene = st.time("setup.scene_s", || scale.mid_city.generate());
    let grid = CellGridConfig::for_scene(&scene)
        .with_resolution(scale.mid_cells, scale.mid_cells)
        .build();
    let dov = dov_config(scale.mid_dov);
    let table = st.time("setup.dov_s", || {
        DovTable::compute(&scene, &grid, &dov, DOV_THREADS)
    });
    let cfg = HdovBuildConfig {
        dov,
        threads: DOV_THREADS,
        ..Default::default()
    };
    let mut env = st.time("setup.build_s", || {
        HdovEnvironment::build_with_table(
            &scene,
            Arc::new(grid),
            cfg,
            StorageScheme::IndexedVertical,
            Arc::new(table),
        )
    })?;
    st.time("setup.freeze_s", || env.relocate(backend))?;
    Ok(env.into_shared(PoolConfig::default()))
}

// ---------------------------------------------------------------------------
// Answers

/// Every cell's answer at η = [`ETA`], indexed by cell.
type Answers = Vec<Vec<ResultEntry>>;

/// Queries every cell once on a private-pool fork of `env` (so the pools
/// under test stay as they were).
fn cell_answers(env: &SharedEnvironment) -> hdov_storage::Result<Answers> {
    let fork = env.fork_with_private_pools();
    let mut ctx = fork.session();
    (0..fork.grid().cell_count() as CellId)
        .map(|c| {
            let (r, _) = fork.query_cell(&mut ctx, c, ETA)?;
            Ok(r.entries().to_vec())
        })
        .collect()
}

/// Order-independent digest of a full answer table.
fn answers_digest(answers: &Answers) -> u64 {
    combine(
        answers
            .iter()
            .enumerate()
            .map(|(c, e)| (c as u64, frame_digest(e))),
    )
}

/// Records the table's digest and, at pinned sizes, compares it with `pin`.
fn check_pin(out: &mut Outcome, scale: &Scale, what: &str, answers: &Answers, pin: u64) {
    let d = answers_digest(answers);
    out.notes.push(format!("{what} answers digest {d:#018x}"));
    if scale.pinned && d != pin {
        out.errors.push(format!(
            "{what} answers digest {d:#018x} differs from the pinned {pin:#018x}"
        ));
    }
}

/// Deterministic per-unit seed.
fn unit_seed(seed: u64, unit: u64) -> u64 {
    SplitMix64::new(seed ^ unit.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

fn session(scale: &Scale, region: hdov_geom::Aabb, seed: u64, unit: u64) -> Session {
    Session::record(
        region,
        SessionKind::all()[(unit % 3) as usize],
        scale.session_frames,
        unit_seed(seed, unit),
    )
}

// ---------------------------------------------------------------------------
// Load generation

/// What one frame cost, from the engine's own return values.
#[derive(Default, Clone, Copy)]
struct Cost {
    sim_ms: f64,
    page_reads: u64,
    nodes: u64,
    vpages: u64,
    fanout: u64,
}

impl Cost {
    fn add(&mut self, o: Cost) {
        self.sim_ms += o.sim_ms;
        self.page_reads += o.page_reads;
        self.nodes += o.nodes;
        self.vpages += o.vpages;
        self.fanout += o.fanout;
    }
}

impl From<&SearchStats> for Cost {
    fn from(st: &SearchStats) -> Cost {
        Cost {
            sim_ms: st.search_time_ms(),
            page_reads: st.total_io().page_reads,
            nodes: st.nodes_visited,
            vpages: st.vpages_fetched,
            fanout: 0,
        }
    }
}

impl From<&RouteStats> for Cost {
    fn from(rs: &RouteStats) -> Cost {
        Cost {
            sim_ms: rs.search_ms,
            page_reads: rs.page_reads,
            fanout: u64::from(rs.fanout),
            ..Cost::default()
        }
    }
}

/// Measured phases are cut into windows of about this length. Each
/// end-to-end frame metric reports the phase's best window — the highest
/// frames per second, the lowest p50, the lowest p99 — scaled to the
/// reference clock by the phase's median clock sample. On a shared host
/// other tenants slow the load down for seconds at a time and never speed
/// it up, so the least-disturbed window measures the engine and the rest
/// measure the neighbours; the clock scale takes out the slower drift of
/// the host's core clock between runs.
const WINDOW_S: f64 = 0.5;

/// `(window count, window length)` tiling a phase of `seconds`.
fn windows(seconds: f64) -> (usize, f64) {
    let n = ((seconds / WINDOW_S).floor() as usize).max(1);
    (n, seconds / n as f64)
}

/// Frame measurements of one load thread. Latencies are filed under the
/// window in which the frame completed.
struct Frames {
    origin: Instant,
    window_s: f64,
    windows: Vec<Vec<u32>>,
    /// [`clock_sample_s`] of each window, taken after its first frame.
    clock_s: Vec<f64>,
    cost: Cost,
    failed: u64,
    mismatched: u64,
    log: SpanLog,
}

impl Frames {
    fn new(origin: Instant, window_s: f64) -> Frames {
        Frames {
            origin,
            window_s,
            windows: Vec::new(),
            clock_s: Vec::new(),
            cost: Cost::default(),
            failed: 0,
            mismatched: 0,
            log: SpanLog::default(),
        }
    }

    /// Books one frame timed over `[t0, t1]`: its latency, its cost, and
    /// whether it failed or differs from `want`.
    fn frame<E>(
        &mut self,
        t0: Instant,
        t1: Instant,
        served: Result<(Cost, &QueryResult), E>,
        want: &[ResultEntry],
    ) {
        let ns = u32::try_from((t1 - t0).as_nanos()).unwrap_or(u32::MAX);
        let w = ((t1 - self.origin).as_secs_f64() / self.window_s) as usize;
        if self.windows.len() <= w {
            self.windows.resize_with(w + 1, Vec::new);
            self.clock_s.resize(w + 1, f64::NAN);
        }
        self.windows[w].push(ns);
        if self.clock_s[w].is_nan() {
            self.clock_s[w] = clock_sample_s();
        }
        match served {
            Ok((cost, got)) => {
                self.cost.add(cost);
                if got.degrade().errors_absorbed() > 0 {
                    self.failed += 1;
                } else if !same_answers(got.entries(), want) {
                    self.mismatched += 1;
                }
            }
            Err(_) => self.failed += 1,
        }
    }
}

/// The load thread: its measurements plus the engine state it reuses
/// across frames.
struct Client {
    f: Frames,
    scratch: SearchScratch,
    ctx: SessionCtx,
}

impl Client {
    fn new(origin: Instant, window_s: f64) -> Client {
        Client {
            f: Frames::new(origin, window_s),
            scratch: SearchScratch::new(),
            ctx: SessionCtx::new(),
        }
    }
}

/// One measured phase.
struct PhaseStats {
    f: Frames,
    /// Whole windows of the phase. Frames still in flight at the deadline
    /// land in later windows, which only the pooled statistics count.
    n_windows: usize,
    /// Frames in every window.
    frames: u64,
    /// Pool `(hits, misses)` caused by the phase's frames.
    pool: (u64, u64),
}

impl PhaseStats {
    fn new(mut f: Frames, n_windows: usize, pool: (u64, u64)) -> PhaseStats {
        if f.windows.len() < n_windows {
            f.windows.resize_with(n_windows, Vec::new);
            f.clock_s.resize(n_windows, f64::NAN);
        }
        for w in &mut f.windows {
            w.sort_unstable();
        }
        let frames = f.windows.iter().map(|w| w.len() as u64).sum();
        PhaseStats {
            f,
            n_windows,
            frames,
            pool,
        }
    }

    /// The phase's whole windows; an empty one counts (0 frames/s).
    fn whole_windows(&self) -> &[Vec<u32>] {
        &self.f.windows[..self.n_windows]
    }

    fn window_stats(&self) -> Vec<WindowStat> {
        self.whole_windows()
            .iter()
            .zip(&self.f.clock_s)
            .map(|(w, &clock_s)| WindowStat {
                frames_per_s: w.len() as f64 / self.f.window_s,
                p50_us: w.first().map_or(f64::NAN, |_| us(percentile(w, 0.5))),
                p99_us: w.first().map_or(f64::NAN, |_| us(percentile(w, 0.99))),
                clock_s,
            })
            .collect()
    }

    /// [`clock_scale`] of the median clock sample of the whole windows.
    fn clock_scale(&self) -> f64 {
        clock_scale(median(self.f.clock_s[..self.n_windows].to_vec()))
    }

    /// Frames per second of the best window, at the reference clock.
    fn frames_per_s(&self) -> f64 {
        let best = self.whole_windows().iter().map(Vec::len).max();
        best.unwrap_or(0) as f64 / self.f.window_s / self.clock_scale()
    }
}

/// Nearest-rank median, ignoring NaN; NaN (reported as "not measured")
/// when nothing is left.
fn median(mut v: Vec<f64>) -> f64 {
    v.retain(|x| !x.is_nan());
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Smallest value, ignoring NaN; NaN when nothing is left.
fn least(v: impl Iterator<Item = f64>) -> f64 {
    v.filter(|x| !x.is_nan())
        .reduce(f64::min)
        .unwrap_or(f64::NAN)
}

/// Runs `unit` as the one closed-loop client, on this thread, with unit
/// numbers from `first_unit` upward, until `seconds` have passed. A unit in
/// flight at the deadline stops after its current frame. Returns the frames
/// and the phase's whole-window count.
fn closed_loop(
    seconds: f64,
    first_unit: u64,
    mut unit: impl FnMut(u64, &mut Client, Instant),
) -> (Frames, usize) {
    let (n_windows, window_s) = windows(seconds);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut c = Client::new(start, window_s);
    for u in first_unit.. {
        if Instant::now() >= deadline {
            break;
        }
        unit(u, &mut c, deadline);
    }
    (c.f, n_windows)
}

#[derive(Clone, Copy, PartialEq)]
enum Read {
    WalkHot,
    TeleportCold,
    WalkSharded,
}

impl Read {
    fn name(self) -> &'static str {
        match self {
            Read::WalkHot => "walk-hot",
            Read::TeleportCold => "teleport-cold",
            Read::WalkSharded => "walk-sharded",
        }
    }
}

/// The engine one read workload drives, with its reference answers.
struct ReadEngine<'a> {
    kind: Read,
    env: &'a SharedEnvironment,
    router: Option<&'a ShardRouter>,
    answers: &'a Answers,
    scale: &'a Scale,
    seed: u64,
}

impl ReadEngine<'_> {
    /// `(hits, misses)` of every pool that serves this workload's frames.
    fn pool_hit_stats(&self) -> (u64, u64) {
        match self.router {
            Some(r) => r.engines().iter().fold((0, 0), |(h, m), e| {
                let (a, b) = e.env().pool_hit_stats();
                (h + a, m + b)
            }),
            None => self.env.pool_hit_stats(),
        }
    }

    fn phase(&self, seconds: f64, first_unit: u64, tracer: Option<&Tracer>) -> PhaseStats {
        let (h0, m0) = self.pool_hit_stats();
        let (f, n_windows) = closed_loop(seconds, first_unit, |u, c, deadline| match self.kind {
            Read::TeleportCold => self.teleport(u, c, tracer),
            Read::WalkHot | Read::WalkSharded => self.walk(u, c, deadline, tracer),
        });
        let (h1, m1) = self.pool_hit_stats();
        PhaseStats::new(f, n_windows, (h1 - h0, m1 - m0))
    }

    /// One query on a uniformly random cell: a visitor spawning or
    /// teleporting. Each client keeps one query context throughout.
    fn teleport(&self, unit: u64, c: &mut Client, tracer: Option<&Tracer>) {
        let cell = (unit_seed(self.seed, unit) % self.answers.len() as u64) as CellId;
        let t0 = Instant::now();
        let r = self.env.query_cell(&mut c.ctx, cell, ETA);
        let t1 = Instant::now();
        let served = r.as_ref().map(|(res, st)| (Cost::from(st), res));
        c.f.frame(t0, t1, served, &self.answers[cell as usize]);
        if let Some(t) = tracer {
            t.frame(&mut c.f.log, "query_cell", t0, t1, None);
        }
    }

    /// One recorded walk session, frame by frame, with a fresh context and
    /// resident set (a new visitor).
    fn walk(&self, unit: u64, c: &mut Client, deadline: Instant, tracer: Option<&Tracer>) {
        let grid = self.env.grid();
        let s = session(self.scale, grid.region(), self.seed, unit);
        let sid = tracer.map(Tracer::id);
        let s0 = Instant::now();
        if let Some(router) = self.router {
            let mut lane = router.lane();
            for &vp in &s.viewpoints {
                let t0 = Instant::now();
                let rs = router.route(&mut lane, vp, ETA);
                let t1 = Instant::now();
                let want = &self.answers[grid.clamped_cell_of(vp) as usize];
                c.f.frame::<()>(t0, t1, Ok((Cost::from(&rs), lane.merged())), want);
                if rs.degraded_shards > 0 {
                    c.f.failed += 1;
                }
                if let Some(t) = tracer {
                    t.frame(&mut c.f.log, "route", t0, t1, sid);
                }
                if t1 >= deadline {
                    break;
                }
            }
        } else {
            let mut ctx = self.env.session();
            let mut delta = DeltaSearch::new();
            for &vp in &s.viewpoints {
                let t0 = Instant::now();
                let r = self
                    .env
                    .query_delta_into(&mut ctx, &mut c.scratch, vp, ETA, &mut delta);
                let t1 = Instant::now();
                let want = &self.answers[grid.clamped_cell_of(vp) as usize];
                let served = r.map(|(st, _)| (Cost::from(&st), c.scratch.result()));
                c.f.frame(t0, t1, served, want);
                if let Some(t) = tracer {
                    t.frame(&mut c.f.log, "query_delta_into", t0, t1, sid);
                }
                if t1 >= deadline {
                    break;
                }
            }
        }
        if let (Some(t), Some(id)) = (tracer, sid) {
            t.span(&mut c.f.log, id, "session", s0, Instant::now(), None);
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics

fn us(ns: u32) -> f64 {
    f64::from(ns) / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// End-to-end frame metrics of the untraced phase (see [`WINDOW_S`]); the
/// windows, unscaled, go to the report.
fn frame_metrics(p: &PhaseStats, out: &mut Outcome) {
    out.samples.insert("frames", p.frames);
    out.samples.insert("windows", p.n_windows as u64);
    let thin = p
        .whole_windows()
        .iter()
        .filter(|w| !supports(w.len(), 0.99))
        .count();
    if thin > 0 {
        out.notes.push(format!(
            "warning: {thin} windows hold fewer than 10 frames beyond their p99"
        ));
    }
    out.windows = p.window_stats();
    let ws = &out.windows;
    let (p50, p99) = (
        least(ws.iter().map(|w| w.p50_us)),
        least(ws.iter().map(|w| w.p99_us)),
    );
    let scale = p.clock_scale();
    let m = &mut out.metrics;
    m.insert("frames_per_s", p.frames_per_s());
    m.insert("frame_p50_us", p50 * scale);
    m.insert("frame_p99_us", p99 * scale);
    m.insert("load.clock_scale", scale);
    m.insert(
        "load.window_slowdown",
        median(ws.iter().map(|w| w.p50_us).collect()) / p50,
    );
    let parts: Vec<&[u32]> = p.f.windows.iter().map(Vec::as_slice).collect();
    m.insert(
        "frame_p999_us",
        us(pooled_percentile(&parts, 0.999)) * scale,
    );
    m.insert("sim_search_ms_mean", p.f.cost.sim_ms / p.frames as f64);
    out.notes.push(format!(
        "clock scale {scale:.3}; unscaled best window: frames_per_s {:.0} frame_p50_us {p50:.2} frame_p99_us {p99:.2}",
        p.frames_per_s() * scale
    ));
}

/// Per-layer metrics of the traced phase `p`; `untraced` is the same run's
/// untraced phase, the baseline of the tracing overhead.
fn layer_metrics(p: &PhaseStats, untraced: &PhaseStats, snap: &MetricsSnapshot, out: &mut Outcome) {
    let frames = p.frames as f64;
    let counter = |c: Counter| snap.counters.get(c.name()).copied().unwrap_or(0) as f64;
    let phase_us = |ph: Phase| {
        let key = format!("phase.{}.wall_ns", ph.name());
        snap.counters.get(&key).copied().unwrap_or(0) as f64 / 1e3
    };
    let per_frame = |v: f64| ratio(v, frames);
    let (node, vpage, lod) = (
        phase_us(Phase::NodeRead),
        phase_us(Phase::VPageRead),
        phase_us(Phase::LodFetch),
    );
    let decodes = counter(Counter::DecodeHits) + counter(Counter::DecodeMisses);
    let commits = counter(Counter::Commits);
    let m = &mut out.metrics;
    m.insert("load.frames", frames);
    m.insert(
        "trace.overhead_frac",
        1.0 - ratio(p.frames_per_s(), untraced.frames_per_s()),
    );
    m.insert("core.nodes_per_frame", per_frame(p.f.cost.nodes as f64));
    m.insert("core.vpages_per_frame", per_frame(p.f.cost.vpages as f64));
    m.insert(
        "core.traversal_self_us",
        per_frame((phase_us(Phase::Traversal) - node - vpage - lod).max(0.0)),
    );
    m.insert("core.node_read_us", per_frame(node));
    m.insert("core.vpage_read_us", per_frame(vpage));
    m.insert("core.lod_fetch_us", per_frame(lod));
    m.insert(
        "core.decode_hit_rate",
        ratio(counter(Counter::DecodeHits), decodes),
    );
    m.insert(
        "storage.pool_hit_rate",
        ratio(p.pool.0 as f64, (p.pool.0 + p.pool.1) as f64),
    );
    m.insert(
        "storage.pool_misses_per_frame",
        per_frame(counter(Counter::PoolMisses)),
    );
    m.insert(
        "storage.cache_probe_us",
        per_frame(phase_us(Phase::CacheProbe)),
    );
    m.insert(
        "storage.phys_reads_per_frame",
        per_frame(counter(Counter::PhysReads)),
    );
    m.insert(
        "storage.prefetch_runs_per_frame",
        per_frame(counter(Counter::PrefetchRuns)),
    );
    m.insert(
        "storage.codec_decodes_per_frame",
        per_frame(counter(Counter::CodecDecodes)),
    );
    m.insert(
        "storage.sim_page_reads_per_frame",
        per_frame(p.f.cost.page_reads as f64),
    );
    m.insert("shard.fanout_mean", per_frame(p.f.cost.fanout as f64));
    m.insert(
        "mutable.wal_appends_per_commit",
        ratio(counter(Counter::WalAppends), commits),
    );
    m.insert(
        "mutable.cow_pages_per_commit",
        ratio(counter(Counter::CowPages), commits),
    );
    m.insert(
        "mutable.dov_repatches_per_commit",
        ratio(counter(Counter::DovRepatches), commits),
    );
}

/// Per-layer metrics of layers a workload does not exercise; they read 0
/// there.
const OFF_PATH_DEFAULTS: [&str; 12] = [
    "storage.scrub_mb_per_s",
    "storage.store_mb",
    "shard.degraded_frames",
    "shard.timeouts",
    "shard.breaker_opens",
    "edit.commit_p50_ms",
    "edit.commit_tail_ms",
    "edit.wal_kb_per_commit",
    "edit.first_frame_after_epoch_us_p50",
    "edit.epochs_seen",
    "load.late_commits",
    "load.commit_late_ms_max",
];

/// Books a measured phase's attempts and failures into the outcome.
fn book(p: &PhaseStats, out: &mut Outcome) {
    out.attempted += p.frames;
    out.failed += p.f.failed;
    if p.f.mismatched > 0 {
        out.errors.push(format!(
            "{} frames differ from the reference answers",
            p.f.mismatched
        ));
    }
}

/// Runs the measured phases — untraced for the whole run or, in a traced
/// run, untraced for the first half and traced for the second — and books
/// their metrics. The traced phase's engine counters land in `out.obs` and
/// its spans in `out.spans`.
fn measure(
    spec: &RunSpec,
    tracer: &Tracer,
    out: &mut Outcome,
    mut phase: impl FnMut(f64, Option<&Tracer>) -> PhaseStats,
) {
    // End-to-end numbers never include tracing.
    hdov_obs::disable();
    let untraced_s = if spec.trace {
        spec.seconds / 2.0
    } else {
        spec.seconds
    };
    let a = phase(untraced_s, None);
    book(&a, out);
    frame_metrics(&a, out);
    if spec.trace {
        hdov_obs::reset();
        hdov_obs::enable();
        let b = phase(spec.seconds - untraced_s, Some(tracer));
        hdov_obs::disable();
        let snap = hdov_obs::snapshot("hdov_perf");
        book(&b, out);
        layer_metrics(&b, &a, &snap, out);
        out.obs = Some(snap);
        out.spans.merge(b.f.log);
    }
    for name in OFF_PATH_DEFAULTS {
        out.metrics.entry(name).or_insert(0.0);
    }
}

/// Times one full scrub sweep, which re-reads and checksums every page of
/// every store file from disk (mem stores have none).
fn scrub(env: &SharedEnvironment, out: &mut Outcome) -> hdov_storage::Result<()> {
    let t0 = Instant::now();
    let report = env.scrub(&Scrubber::default())?;
    let secs = t0.elapsed().as_secs_f64();
    let mib = (report.pages_scanned * PAGE_SIZE as u64) as f64 / (1024.0 * 1024.0);
    out.metrics
        .insert("storage.scrub_mb_per_s", ratio(mib, secs));
    out.notes.push(format!(
        "scrub: scanned={} corrupt_found={} repaired={}",
        report.pages_scanned, report.corrupt_found, report.repaired
    ));
    if report.corrupt_found > 0 || !report.is_clean() {
        out.errors
            .push("scrub found corrupt pages in a fault-free run".into());
    }
    Ok(())
}

fn check_health(health: hdov_storage::ReplicaHealth, out: &mut Outcome) {
    out.notes.push(format!(
        "storage_health: failover_reads={} pages_repaired={} quarantined_pages={}",
        health.failover_reads, health.pages_repaired, health.quarantined_pages
    ));
    if !health.is_clean() {
        out.errors
            .push("storage health is not clean after a fault-free run".into());
    }
}

fn store_mib(dir: &std::path::Path) -> f64 {
    crate::measure::dir_bytes(dir) as f64 / (1024.0 * 1024.0)
}

// ---------------------------------------------------------------------------
// Read workloads

fn read_workload(
    kind: Read,
    scale: &Scale,
    spec: &RunSpec,
    tracer: &Tracer,
    out: &mut Outcome,
) -> hdov_storage::Result<()> {
    out.load = "closed";
    let store = spec.dir.join("store").join(kind.name());
    let backend = if kind == Read::TeleportCold {
        StorageBackend::File {
            dir: store.clone(),
            mode: FileMode::Pread,
            replicas: 1,
        }
    } else {
        StorageBackend::Mem
    };
    let (env, router) = repeat_setup(scale.setup_repeats, tracer, out, |st| {
        let env = mid_city(scale, &backend, st)?;
        let router = if kind == Read::WalkSharded {
            Some(st.time("setup.router_s", || {
                ShardRouter::new(&env, SHARDS, RouterConfig::default())
            })?)
        } else {
            None
        };
        Ok((env, router))
    })?;
    let answers = cell_answers(&env)?;
    check_pin(out, scale, "mid city", &answers, MID_CITY_ANSWERS);

    let engine = ReadEngine {
        kind,
        env: &env,
        router: router.as_ref(),
        answers: &answers,
        scale,
        seed: spec.seed,
    };
    engine.phase(scale.warmup_s, WARMUP_UNIT0, None);
    measure(spec, tracer, out, |secs, t| engine.phase(secs, 0, t));
    out.metrics.insert("storage.store_mb", store_mib(&store));

    scrub(&env, out)?;
    match &router {
        Some(r) => {
            check_health(r.storage_health(), out);
            let t = r.totals();
            out.notes.push(format!(
                "router: frames={} degraded_frames={} timeouts={} hedged={} breaker_opens={}",
                t.frames, t.degraded_frames, t.timeouts, t.hedged, t.breaker_opens
            ));
            let m = &mut out.metrics;
            m.insert("shard.degraded_frames", t.degraded_frames as f64);
            m.insert("shard.timeouts", t.timeouts as f64);
            m.insert("shard.breaker_opens", t.breaker_opens as f64);
            if t.degraded_frames + t.timeouts + t.hedged + t.breaker_opens > 0 {
                out.errors
                    .push("router totals are not zero after a fault-free run".into());
            }
        }
        None => check_health(env.storage_health(), out),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// edit-mix

/// One committed epoch as readers see it: its environment and every cell's
/// answer.
struct Published {
    epoch: u64,
    env: Arc<SharedEnvironment>,
    answers: Arc<Answers>,
}

/// The writer's measurements of one phase.
#[derive(Default)]
struct WriterStats {
    commit_ms: Vec<f64>,
    late_ms: Vec<f64>,
    wal_bytes: u64,
    failed: u64,
}

/// The reader's measurements beyond its frames.
#[derive(Default)]
struct ReaderStats {
    first_after_epoch_ns: Vec<u32>,
    epochs_seen: u64,
}

/// Shared state of the `edit-mix` phases.
struct EditRig<'a> {
    scale: &'a Scale,
    seed: u64,
    slot: Mutex<Published>,
}

fn edit_mix(
    scale: &Scale,
    spec: &RunSpec,
    tracer: &Tracer,
    out: &mut Outcome,
) -> hdov_storage::Result<()> {
    out.load = "open-loop writer + closed-loop reader";
    let store = spec.dir.join("store").join("edit-mix");
    let cfg = HdovBuildConfig {
        dov: dov_config(scale.edit_dov),
        threads: DOV_THREADS,
        ..Default::default()
    };
    let (scene, mut ms): (Scene, MutableScene) =
        repeat_setup(scale.edit_setup_repeats, tracer, out, |st| {
            let scene = st.time("setup.scene_s", || scale.edit_city.generate());
            let grid_cfg = CellGridConfig::for_scene(&scene)
                .with_resolution(scale.edit_cells, scale.edit_cells);
            // A fresh store every time: `create` must not meet an old WAL.
            std::fs::remove_dir_all(&store).ok();
            let ms = st.time("setup.mutable_create_s", || {
                MutableScene::create(
                    &store,
                    MUTABLE_NAME,
                    &scene,
                    &grid_cfg,
                    cfg.clone(),
                    StorageScheme::IndexedVertical,
                    PoolConfig::default(),
                )
            })?;
            Ok((scene, ms))
        })?;
    let epoch0 = ms.epoch();
    let answers0 = cell_answers(&ms.current())?;
    check_pin(
        out,
        scale,
        "edit city (epoch 0)",
        &answers0,
        EDIT_CITY_ANSWERS,
    );
    let rig = EditRig {
        scale,
        seed: spec.seed,
        slot: Mutex::new(Published {
            epoch: epoch0,
            env: ms.current(),
            answers: Arc::new(answers0),
        }),
    };

    let mut edits = SplitMix64::new(unit_seed(spec.seed, u64::MAX));
    let mut acked = 0u64;
    let mut failed_commits = 0u64;
    // The per-layer write metrics come from the last phase run: the traced
    // one in a traced run.
    let mut last = (WriterStats::default(), ReaderStats::default());
    measure(spec, tracer, out, |secs, t| {
        let (p, w, r) = rig.phase(&mut ms, &mut edits, secs, t);
        acked += w.commit_ms.len() as u64;
        failed_commits += w.failed;
        last = (w, r);
        p
    });
    out.attempted += acked + failed_commits;
    out.failed += failed_commits;
    edit_metrics(&last.0, &last.1, out);
    out.metrics.insert("storage.store_mb", store_mib(&store));

    let live = ms.current();
    scrub(&live, out)?;
    check_health(live.storage_health(), out);

    // Recovery: reopen from the files alone; the epoch must count every
    // acknowledged commit and every cell must answer as the live epoch did.
    let epoch = ms.epoch();
    let live_answers = Arc::clone(&rig.slot.lock().expect("publish slot poisoned").answers);
    drop((live, rig, ms));
    let reopened = MutableScene::open(
        &store,
        MUTABLE_NAME,
        scene.prototypes().clone(),
        cfg,
        StorageScheme::IndexedVertical,
        PoolConfig::default(),
    )?;
    out.notes.push(format!(
        "recovery: reopened at epoch {} (live {epoch}) after {acked} acknowledged commits",
        reopened.epoch()
    ));
    if reopened.epoch() != epoch0 + acked {
        out.errors.push(format!(
            "recovered epoch {} does not count the {acked} acknowledged commits",
            reopened.epoch()
        ));
    }
    if answers_digest(&cell_answers(&reopened.current())?) != answers_digest(&live_answers) {
        out.errors
            .push("recovered answers differ from the live epoch's".into());
    }
    Ok(())
}

impl EditRig<'_> {
    fn pin(&self) -> (u64, Arc<SharedEnvironment>, Arc<Answers>) {
        let p = self.slot.lock().expect("publish slot poisoned");
        (p.epoch, Arc::clone(&p.env), Arc::clone(&p.answers))
    }

    /// One phase: the writer commits on its schedule while the reader walks
    /// sessions against whichever epoch is current.
    fn phase(
        &self,
        ms: &mut MutableScene,
        edits: &mut SplitMix64,
        seconds: f64,
        tracer: Option<&Tracer>,
    ) -> (PhaseStats, WriterStats, ReaderStats) {
        let (n_windows, window_s) = windows(seconds);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let latest = AtomicU64::new(self.pin().0);
        let ((mut f, reader, pool), (writer, wlog)) = std::thread::scope(|s| {
            let reader =
                s.spawn(|| self.read(&latest, Client::new(start, window_s), deadline, tracer));
            let writer = self.write(ms, edits, &latest, start, deadline, tracer);
            (reader.join().expect("reader thread panicked"), writer)
        });
        f.log.merge(wlog);
        (PhaseStats::new(f, n_windows, pool), writer, reader)
    }

    /// The closed-loop reader: walk sessions, re-pinning to each new epoch.
    fn read(
        &self,
        latest: &AtomicU64,
        mut c: Client,
        deadline: Instant,
        tracer: Option<&Tracer>,
    ) -> (Frames, ReaderStats, (u64, u64)) {
        let mut rs = ReaderStats::default();
        let mut pool = (0u64, 0u64);
        let (mut epoch, mut env, mut answers) = self.pin();
        let mut first = false;
        let mut unit = 0u64;
        'run: while Instant::now() < deadline {
            let s = session(self.scale, env.grid().region(), self.seed, unit);
            unit += 1;
            let sid = tracer.map(Tracer::id);
            let s0 = Instant::now();
            let mut ctx = env.session();
            let mut delta = DeltaSearch::new();
            for &vp in &s.viewpoints {
                if latest.load(Ordering::Acquire) != epoch {
                    let (h, m) = env.pool_hit_stats();
                    pool = (pool.0 + h, pool.1 + m);
                    (epoch, env, answers) = self.pin();
                    ctx = env.session();
                    rs.epochs_seen += 1;
                    first = true;
                }
                let t0 = Instant::now();
                let r = env.query_delta_into(&mut ctx, &mut c.scratch, vp, ETA, &mut delta);
                let t1 = Instant::now();
                let want = &answers[env.grid().clamped_cell_of(vp) as usize];
                let served = r.map(|(st, _)| (Cost::from(&st), c.scratch.result()));
                c.f.frame(t0, t1, served, want);
                if std::mem::take(&mut first) {
                    rs.first_after_epoch_ns
                        .push(u32::try_from((t1 - t0).as_nanos()).unwrap_or(u32::MAX));
                }
                if let Some(t) = tracer {
                    t.frame(&mut c.f.log, "query_delta_into", t0, t1, sid);
                }
                if t1 >= deadline {
                    break 'run;
                }
            }
            if let (Some(t), Some(id)) = (tracer, sid) {
                t.span(&mut c.f.log, id, "session", s0, Instant::now(), None);
            }
        }
        let (h, m) = env.pool_hit_stats();
        (c.f, rs, (pool.0 + h, pool.1 + m))
    }

    /// The open-loop writer: commit `k` is due at `k / commits_per_s` and is
    /// timed from then, however late it starts.
    fn write(
        &self,
        ms: &mut MutableScene,
        edits: &mut SplitMix64,
        latest: &AtomicU64,
        start: Instant,
        deadline: Instant,
        tracer: Option<&Tracer>,
    ) -> (WriterStats, SpanLog) {
        let mut w = WriterStats::default();
        let mut log = SpanLog::default();
        for k in 0u64.. {
            let due_s = k as f64 / self.scale.commits_per_s;
            let due = start + Duration::from_secs_f64(due_s);
            if due >= deadline {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let t0 = Instant::now();
            let handles = ms.handles();
            let h = handles[(edits.next_u64() % handles.len() as u64) as usize];
            let d = Vec3::new(
                (edits.next_f64() - 0.5) * 20.0,
                (edits.next_f64() - 0.5) * 20.0,
                0.0,
            );
            let wal0 = ms.store().wal_len();
            let r = ms.translate(h, d).and_then(|()| ms.commit());
            let t1 = Instant::now();
            let epoch = match r {
                Ok(epoch) => epoch,
                Err(_) => {
                    ms.rollback();
                    w.failed += 1;
                    continue;
                }
            };
            let since = |t: Instant| (t - start).as_secs_f64();
            let (lat, late) = due_latency(due_s, since(t0), since(t1));
            w.commit_ms.push(lat * 1e3);
            w.late_ms.push(late * 1e3);
            w.wal_bytes += ms.store().wal_len() - wal0;
            if let Some(t) = tracer {
                t.span(&mut log, t.id(), "commit", t0, t1, None);
            }
            // Reference answers come from a private fork, so the published
            // pools start cold, as a new epoch's do.
            let env = ms.current();
            match cell_answers(&env) {
                Ok(answers) => {
                    *self.slot.lock().expect("publish slot poisoned") = Published {
                        epoch,
                        env,
                        answers: Arc::new(answers),
                    };
                    latest.store(epoch, Ordering::Release);
                }
                Err(_) => w.failed += 1,
            }
        }
        (w, log)
    }
}

/// Write-path and open-loop metrics of `edit-mix`.
fn edit_metrics(w: &WriterStats, r: &ReaderStats, out: &mut Outcome) {
    let mut commit = w.commit_ms.clone();
    commit.sort_by(f64::total_cmp);
    let n = commit.len();
    out.samples.insert("commits", n as u64);
    let m = &mut out.metrics;
    if n > 0 {
        // The highest percentile with at least ten commits beyond it.
        let q = highest_supported(n, &[0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 0.99]).unwrap_or(0.5);
        out.samples
            .insert("commit_tail_percentile", (q * 100.0).round() as u64);
        m.insert("edit.commit_p50_ms", percentile(&commit, 0.5));
        m.insert("edit.commit_tail_ms", percentile(&commit, q));
        m.insert(
            "edit.wal_kb_per_commit",
            w.wal_bytes as f64 / 1024.0 / n as f64,
        );
        m.insert(
            "load.commit_late_ms_max",
            w.late_ms.iter().copied().fold(0.0, f64::max),
        );
    }
    m.insert(
        "load.late_commits",
        w.late_ms.iter().filter(|&&l| l > LATE_S * 1e3).count() as f64,
    );
    if !r.first_after_epoch_ns.is_empty() {
        let first = r.first_after_epoch_ns.iter().map(|&ns| us(ns)).collect();
        m.insert("edit.first_frame_after_epoch_us_p50", median(first));
    }
    m.insert("edit.epochs_seen", r.epochs_seen as f64);
}
