//! **Concurrent sessions** — multi-session query throughput over ONE shared,
//! immutable HDoV-tree.
//!
//! Beyond the paper: §5.4 replays one walkthrough at a time, but a deployed
//! virtual-city server hosts many visitors of the same scene. This harness
//! freezes one environment (`SharedEnvironment`) and replays a fixed set of
//! recorded sessions on 1/2/4/8 worker threads in two modes:
//!
//! * `shared` — all sessions share one lock-striped buffer pool, so pages
//!   warmed by one visitor are hits for the others (plus motion-vector
//!   prefetch along each path);
//! * `private` — the per-session-pool baseline: every session queries a cold
//!   private fork of the pools (same frozen data, no sharing).
//!
//! Two throughput figures are reported: `wall_qps` (real elapsed time —
//! scales with threads only on a multi-core host) and `sim_qps` (the worker
//! pool replayed in *simulated* time, the same currency as every other
//! number in this harness; carries the thread-scaling result on any
//! machine). Expected shape: `sim_qps` scales with threads, and the shared
//! pool's hit rate beats the private baseline at every thread count — its
//! p99 also drops, because another visitor has usually warmed the cold
//! pages.
//!
//! Output: `results/concurrent_sessions.csv`.
//!
//! Self-healing drill (`--backend file:pread@2 --corrupt-pages N [--scrub]`):
//! after the stores are open, flip one byte in `N` data pages spread across
//! the *primary* replica files. The session runs must then serve every frame
//! by failing over to the healthy copy and repairing the primary in place —
//! the binary asserts **zero degraded frames** and `pages_repaired > 0`, and
//! with `--scrub` a background sweep (running concurrently with a session
//! run) plus a final full sweep must leave every replica verifying clean
//! from disk.

use hdov_bench::{print_table, write_csv, EvalScene, RunOptions};
use hdov_core::{PoolConfig, StorageScheme};
use hdov_storage::frozen::{read_layout, StoreLayout};
use hdov_storage::{verify_pool, ReplicaHealth, ScrubConfig, Scrubber, StorageBackend};
use hdov_walkthrough::{ServerConfig, ServerReport, Session, SessionKind, SessionServer};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Parses `--flag <v>` / `--flag=<v>` out of the raw argument list.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let eq = format!("{flag}=");
    args.iter().enumerate().find_map(|(i, a)| {
        a.strip_prefix(&eq)
            .map(str::to_string)
            .or_else(|| (a == flag).then(|| args.get(i + 1).cloned()).flatten())
    })
}

/// Flips one byte in each of up to `n` distinct data pages, round-robin
/// across the primary (`<name>.hdov`, never `<name>.rK.hdov`) store files
/// under `dir`. Returns the number of pages actually corrupted.
fn corrupt_primary_pages(dir: &Path, n: usize) -> usize {
    let is_replica = |stem: &str| {
        stem.rsplit_once(".r")
            .is_some_and(|(_, k)| !k.is_empty() && k.bytes().all(|b| b.is_ascii_digit()))
    };
    let mut primaries: Vec<_> = std::fs::read_dir(dir)
        .expect("store directory")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "hdov"))
        .filter(|p| !is_replica(p.file_stem().unwrap().to_str().unwrap()))
        .collect();
    primaries.sort();
    assert!(!primaries.is_empty(), "no stores under {}", dir.display());
    let pages: Vec<u64> = primaries
        .iter()
        .map(|p| {
            let f = std::fs::File::open(p).unwrap();
            read_layout(&f, p).unwrap().page_count
        })
        .collect();
    let mut hit = std::collections::BTreeSet::new();
    for i in 0..n.max(1) * primaries.len() {
        if hit.len() >= n {
            break;
        }
        let file = i % primaries.len();
        let page = (i / primaries.len()) as u64;
        if page >= pages[file] || !hit.insert((file, page)) {
            continue;
        }
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&primaries[file])
            .unwrap();
        let off = StoreLayout::page_offset(page) + 7;
        let mut b = [0u8; 1];
        f.read_exact_at(&mut b, off).unwrap();
        b[0] ^= 0x5a;
        f.write_all_at(&b, off).unwrap();
        f.sync_all().unwrap();
    }
    hit.len()
}

fn main() {
    let opts = RunOptions::from_args();
    let args: Vec<String> = std::env::args().collect();
    let corrupt_pages: usize = arg_value(&args, "--corrupt-pages")
        .map(|v| v.parse().expect("--corrupt-pages takes a page count"))
        .unwrap_or(0);
    let scrub = args.iter().any(|a| a == "--scrub");
    hdov_bench::start_metrics();
    let eval = EvalScene::standard(&opts);
    let n_sessions = if opts.quick { 8 } else { 16 };
    let frames = if opts.quick { 40 } else { 200 };

    let mut built = eval.environment(StorageScheme::IndexedVertical);
    opts.relocate("concurrent_sessions", &mut built);
    let env = built.into_shared(PoolConfig {
        replicas: opts.backend.replicas(),
        ..PoolConfig::default()
    });

    if corrupt_pages > 0 {
        assert!(
            opts.backend.replicas() >= 2,
            "--corrupt-pages needs a replicated file backend \
             (e.g. --backend file:pread@2) so a healthy copy exists to heal from"
        );
        // The stores were verified page-by-page when they were opened above;
        // flipping bytes *now* means only failover + repair (or the
        // scrubber) can be the reason the answers stay intact.
        let dir = match opts.storage("concurrent_sessions") {
            StorageBackend::File { dir, .. } => dir,
            StorageBackend::Mem => unreachable!("is_file checked above"),
        };
        let flipped = corrupt_primary_pages(&dir, corrupt_pages);
        println!(
            "corrupted {flipped} primary data pages under {}",
            dir.display()
        );
    }
    let sessions: Vec<Session> = (0..n_sessions)
        .map(|i| {
            Session::record(
                eval.scene.viewpoint_region(),
                SessionKind::all()[i % 3],
                frames,
                2003 + i as u64,
            )
        })
        .collect();
    let cfg = ServerConfig::default();

    let mut rows = Vec::new();
    let mut sim_qps_shared_1 = 0.0;
    let mut sim_qps_shared_4 = 0.0;
    let mut total_health = ReplicaHealth::default();
    let mut total_degraded = 0u64;
    for &threads in &[1usize, 2, 4, 8] {
        // Shared pool: fresh fork per run so every row starts cold.
        let run_env = env.fork_with_private_pools();
        let report = SessionServer::new(&run_env, cfg)
            .run(&sessions, threads)
            .expect("shared run");
        if threads == 1 {
            sim_qps_shared_1 = report.simulated_qps();
        }
        if threads == 4 {
            sim_qps_shared_4 = report.simulated_qps();
        }
        total_health.merge(&report.health);
        total_degraded += degraded(&report);
        let (hits, misses) = run_env.pool_hit_stats();
        rows.push(row("shared", threads, n_sessions, &report, hits, misses));

        // Per-session-pool baseline: each session runs against its own cold
        // fork, so nothing is shared between visitors. Threads still run
        // sessions concurrently (each on private pools) for a fair
        // wall-clock comparison.
        let forks: Vec<_> = sessions
            .iter()
            .map(|_| env.fork_with_private_pools())
            .collect();
        let start = std::time::Instant::now();
        let next = AtomicUsize::new(0);
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let next = &next;
                    let forks = &forks;
                    let sessions = &sessions;
                    s.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= sessions.len() {
                                break done;
                            }
                            let r = SessionServer::new(&forks[i], cfg)
                                .run(std::slice::from_ref(&sessions[i]), 1)
                                .expect("private run");
                            done.extend(r.sessions.into_iter().map(|mut o| {
                                o.session = i;
                                o
                            }));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        let mut outcomes = outcomes;
        // Completion order varies with scheduling; session order keeps the
        // simulated makespan deterministic.
        outcomes.sort_by_key(|o| o.session);
        let mut health = ReplicaHealth::default();
        for f in &forks {
            health.merge(&f.storage_health());
        }
        let report = ServerReport {
            sessions: outcomes,
            wall_seconds: start.elapsed().as_secs_f64(),
            threads: threads.min(n_sessions),
            backpressure: Default::default(),
            health,
        };
        total_health.merge(&report.health);
        total_degraded += degraded(&report);
        let (mut hits, mut misses) = (0u64, 0u64);
        for f in &forks {
            let (h, m) = f.pool_hit_stats();
            hits += h;
            misses += m;
        }
        rows.push(row("private", threads, n_sessions, &report, hits, misses));
    }

    print_table(
        "Concurrent sessions: shared pool vs per-session pools",
        &[
            "mode",
            "threads",
            "sessions",
            "wall qps",
            "sim qps",
            "p50 search (ms)",
            "p99 search (ms)",
            "pool hit rate",
            "pool lookups",
            "page reads",
        ],
        &rows,
    );
    println!(
        "simulated speedup (shared, 4 threads vs 1): {:.2}x",
        if sim_qps_shared_1 > 0.0 {
            sim_qps_shared_4 / sim_qps_shared_1
        } else {
            0.0
        }
    );
    println!(
        "expected shape: sim qps scales with threads; shared hit rate > private at every thread count"
    );
    write_csv(
        "concurrent_sessions",
        &[
            "mode",
            "threads",
            "sessions",
            "wall_qps",
            "sim_qps",
            "p50_ms",
            "p99_ms",
            "hit_rate",
            "pool_lookups",
            "page_reads",
        ],
        &rows,
    );
    hdov_bench::write_metrics_snapshot(
        "concurrent_sessions",
        2,
        &[
            "mode",
            "threads",
            "sessions",
            "wall_qps",
            "sim_qps",
            "p50_ms",
            "p99_ms",
            "hit_rate",
            "pool_lookups",
            "page_reads",
        ],
        &rows,
    );

    if scrub {
        // Background scrub racing a live session run: the sweep is throttled
        // by a pages/second wall-clock budget, the foreground queries keep
        // their own read path (a scrub read is never charged to a session).
        let run_env = env.fork_with_private_pools();
        let throttled = Scrubber::new(ScrubConfig {
            pages_per_second: Some(50_000.0),
            ..ScrubConfig::default()
        });
        let (live_report, bg) = std::thread::scope(|s| {
            let sweeper = s.spawn(|| run_env.scrub(&throttled));
            let r = SessionServer::new(&run_env, cfg)
                .run(&sessions, 4)
                .expect("run under background scrub");
            (
                r,
                sweeper.join().expect("scrub thread").expect("scrub sweep"),
            )
        });
        // Not `live_report.health`: that snapshot was taken when the session
        // run returned, and the sweeper may still have been repairing.
        total_health.merge(&run_env.storage_health());
        total_degraded += degraded(&live_report);
        println!(
            "background scrub (concurrent with a 4-thread run): \
             scanned={} corrupt_found={} repaired={} unrepairable={}",
            bg.pages_scanned,
            bg.corrupt_found,
            bg.repaired,
            bg.unrepairable.len()
        );
        // Final synchronous sweep: whatever the foreground repaired on
        // demand and the throttled pass caught, this must leave nothing.
        let last = env.scrub(&Scrubber::default()).expect("final scrub sweep");
        println!(
            "final scrub sweep: scanned={} corrupt_found={} repaired={} unrepairable={}",
            last.pages_scanned,
            last.corrupt_found,
            last.repaired,
            last.unrepairable.len()
        );
        total_health.merge(&env.storage_health());
        let mut bad = Vec::new();
        env.for_each_pool(|pool| bad.extend(verify_pool(pool).expect("re-verify from disk")));
        assert!(bad.is_empty(), "pages still corrupt after scrub: {bad:?}");
        println!("post-scrub verify: every replica of every store reads back clean");
    }

    println!(
        "health: failover_reads={} pages_repaired={} quarantined_pages={}",
        total_health.failover_reads, total_health.pages_repaired, total_health.quarantined_pages
    );
    println!("degraded frames: {total_degraded}");
    if corrupt_pages > 0 {
        // The self-healing contract this drill exists to enforce: loss of
        // one replica's pages is absorbed by failover and repaired in
        // place — it never reaches the picture as a coarser frame.
        assert_eq!(total_degraded, 0, "corruption leaked into degraded frames");
        assert!(total_health.failover_reads > 0, "no read ever failed over");
        assert!(
            total_health.pages_repaired > 0,
            "nothing was repaired in place"
        );
    }
}

/// Degraded-frame total of one report.
fn degraded(report: &ServerReport) -> u64 {
    report.sessions.iter().map(|o| o.degraded_frames).sum()
}

fn row(
    mode: &str,
    threads: usize,
    n_sessions: usize,
    report: &ServerReport,
    hits: u64,
    misses: u64,
) -> Vec<String> {
    vec![
        mode.to_string(),
        threads.to_string(),
        n_sessions.to_string(),
        format!("{:.0}", report.qps()),
        format!("{:.0}", report.simulated_qps()),
        format!("{:.3}", report.search_ms_quantile(0.5)),
        format!("{:.3}", report.search_ms_quantile(0.99)),
        format!("{:.4}", hits as f64 / (hits + misses).max(1) as f64),
        (hits + misses).to_string(),
        report.page_reads().to_string(),
    ]
}
