//! `hdov_perf` — the repository's wall-clock serving benchmark.
//!
//! ```text
//! hdov_perf [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]
//! ```
//!
//! With `--workload`, runs that one workload in this process: set-up (three
//! or more times; the median is `setup_s`), a short warm-up, then
//! `--seconds` of measured load. It prints every metric as `<workload>
//! <metric> <value> <unit>`, writes `results/bench/<workload>.json` (or `.trace.json`), and
//! ends with one JSON line: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics — or, with `--trace 1`, the per-layer metrics of a run
//! whose second half has the engine's instrumentation on. It exits non-zero
//! when any answer or health check fails.
//!
//! Without `--workload`, runs every workload in turn, each in its own child
//! process, so peak memory and set-up time are per workload.
//!
//! See README.md in this directory for the workloads and metrics.

mod measure;
mod trace;
mod workloads;

use hdov_obs::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Outcome, RunSpec, Scale, CLIENTS, WORKLOADS};

/// End-to-end metrics `(name, unit)`: reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("frame_p50_us", "us"),
    ("frame_p99_us", "us"),
    ("sim_search_ms_mean", "sim_ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`: reported by every traced run.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("core.nodes_per_frame", "count"),
    ("core.vpages_per_frame", "count"),
    ("core.traversal_self_us", "us"),
    ("core.node_read_us", "us"),
    ("core.vpage_read_us", "us"),
    ("core.lod_fetch_us", "us"),
    ("core.decode_hit_rate", "ratio"),
    ("storage.pool_hit_rate", "ratio"),
    ("storage.pool_misses_per_frame", "count"),
    ("storage.cache_probe_us", "us"),
    ("storage.phys_reads_per_frame", "count"),
    ("storage.prefetch_runs_per_frame", "count"),
    ("storage.codec_decodes_per_frame", "count"),
    ("storage.sim_page_reads_per_frame", "count"),
    ("storage.scrub_mb_per_s", "MiB/s"),
    ("storage.store_mb", "MiB"),
    ("shard.fanout_mean", "count"),
    ("shard.degraded_frames", "count"),
    ("shard.timeouts", "count"),
    ("shard.breaker_opens", "count"),
    ("mutable.wal_appends_per_commit", "count"),
    ("mutable.cow_pages_per_commit", "count"),
    ("mutable.dov_repatches_per_commit", "count"),
    ("edit.commit_p50_ms", "ms"),
    ("edit.commit_tail_ms", "ms"),
    ("edit.wal_kb_per_commit", "KiB"),
    ("edit.first_frame_after_epoch_us_p50", "us"),
    ("edit.epochs_seen", "count"),
    ("setup.scene_s", "s"),
    ("setup.dov_s", "s"),
    ("setup.build_s", "s"),
    ("setup.freeze_s", "s"),
    ("setup.router_s", "s"),
    ("setup.mutable_create_s", "s"),
    ("load.frames", "count"),
    ("load.late_commits", "count"),
    ("load.commit_late_ms_max", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("frame_p999_us", "us"),
    ("load.window_slowdown", "ratio"),
    ("load.clock_scale", "ratio"),
];

const USAGE: &str =
    "usage: hdov_perf [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 2003,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

/// Every workload, one child process each, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{w}: failed ({s})");
                ok = false;
            }
            Err(e) => {
                eprintln!("{w}: could not start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(workload: &str, args: &Args) -> ExitCode {
    let dir = PathBuf::from("results/bench");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let spec = RunSpec {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: dir.clone(),
    };
    let mut out = match workloads::run(workload, &Scale::full(), &spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let reported: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, _) in reported {
        match out.metrics.get(name) {
            Some(v) if v.is_finite() => {}
            _ => out.errors.push(format!("metric {name} was not measured")),
        }
    }

    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(v) = out.metrics.get(name) {
            println!("{workload} {name} {v} {unit}");
        }
    }
    for (set, n) in &out.samples {
        println!("{workload} samples.{set} {n} count");
    }
    for note in &out.notes {
        println!("{workload} note: {note}");
    }
    for e in &out.errors {
        println!("{workload} CHECK FAILED: {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0;

    let file = dir.join(format!(
        "{workload}{}.json",
        if args.trace { ".trace" } else { "" }
    ));
    let report = report_json(workload, args, &out, correct, reported);
    if let Err(e) = std::fs::write(&file, report.to_pretty()) {
        eprintln!("cannot write {}: {e}", file.display());
    }

    println!("{}", result_line(&out, correct, reported));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(out: &Outcome, correct: bool, reported: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = reported
        .iter()
        .map(|&(name, unit)| {
            let v = out.metrics.get(name).copied().filter(|v| v.is_finite());
            format!(
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                v.unwrap_or(0.0)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn str_value(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn int_value(v: u64) -> Value {
    Value::Int(i128::from(v))
}

/// `results/bench/<workload>[.trace].json`: the run stamp, every metric,
/// the checks, and in a traced run the spans and engine counters.
fn report_json(
    workload: &str,
    args: &Args,
    out: &Outcome,
    correct: bool,
    reported: &[(&str, &str)],
) -> Value {
    let mut stamp = BTreeMap::new();
    stamp.insert("workload".into(), str_value(workload));
    stamp.insert("seed".into(), int_value(args.seed));
    stamp.insert("seconds".into(), Value::Float(args.seconds));
    stamp.insert("trace".into(), Value::Bool(args.trace));
    stamp.insert("git_rev".into(), str_value(git_rev()));
    stamp.insert(
        "nproc".into(),
        int_value(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
    );
    stamp.insert("cpu_model".into(), str_value(cpu_model()));
    stamp.insert("loop".into(), str_value(out.load));
    stamp.insert("clients".into(), int_value(CLIENTS as u64));
    stamp.insert(
        "samples".into(),
        Value::Obj(
            out.samples
                .iter()
                .map(|(k, &v)| (k.to_string(), int_value(v)))
                .collect(),
        ),
    );

    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
    let metrics = out
        .metrics
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(name, &v)| {
            let mut m = BTreeMap::new();
            m.insert("value".to_string(), Value::Float(v));
            m.insert(
                "unit".to_string(),
                str_value(units.get(name).copied().unwrap_or("")),
            );
            m.insert(
                "reported".to_string(),
                Value::Bool(reported.iter().any(|(n, _)| n == name)),
            );
            (name.to_string(), Value::Obj(m))
        })
        .collect();

    let mut root = BTreeMap::new();
    root.insert("stamp".into(), Value::Obj(stamp));
    root.insert("metrics".into(), Value::Obj(metrics));
    root.insert("correct".into(), Value::Bool(correct));
    root.insert("attempted".into(), int_value(out.attempted));
    root.insert("failed".into(), int_value(out.failed));
    let lines = |v: &[String]| Value::Arr(v.iter().map(|s| str_value(s.as_str())).collect());
    root.insert("notes".into(), lines(&out.notes));
    root.insert(
        "windows".into(),
        Value::Arr(
            out.windows
                .iter()
                .map(|w| {
                    // An empty window has no percentiles.
                    let f = |v: f64| {
                        if v.is_finite() {
                            Value::Float(v)
                        } else {
                            Value::Null
                        }
                    };
                    let mut o = BTreeMap::new();
                    o.insert("frames_per_s".to_string(), f(w.frames_per_s));
                    o.insert("p50_us".to_string(), f(w.p50_us));
                    o.insert("p99_us".to_string(), f(w.p99_us));
                    o.insert("clock_s".to_string(), f(w.clock_s));
                    Value::Obj(o)
                })
                .collect(),
        ),
    );
    root.insert("errors".into(), lines(&out.errors));
    if args.trace {
        root.insert("trace".into(), out.spans.to_json());
        if let Some(snap) = &out.obs {
            root.insert(
                "engine_counters".into(),
                Value::Obj(
                    snap.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), int_value(v)))
                        .collect(),
                ),
            );
        }
    }
    Value::Obj(root)
}

/// The checkout's commit, when it is a git work tree. Git is not allowed to
/// search above the current directory.
fn git_rev() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unavailable".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn command_line_arguments_parse() {
        let a = parse_args(&argv("--workload walk-hot --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("walk-hot"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        assert!(parse_args(&argv("--trace 1")).unwrap().trace);
        assert!(parse_args(&argv("--trace")).unwrap().trace);
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.workload, d.seed, d.trace), (None, 2003, false));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this binary reports, with the same units, and these workloads.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = hdov_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    /// Every workload on a tiny scene, untraced and traced: every listed
    /// metric is emitted with a finite value, and every check passes.
    #[test]
    fn smoke_all_workloads_on_a_tiny_scene() {
        let dir = std::env::temp_dir().join(format!("hdov_perf_smoke_{}", std::process::id()));
        for w in WORKLOADS {
            for trace in [false, true] {
                let spec = RunSpec {
                    seed: 7,
                    seconds: 0.4,
                    trace,
                    dir: dir.clone(),
                };
                let out = workloads::run(w, &Scale::tiny(), &spec).expect("workload runs");
                assert!(out.errors.is_empty(), "{w}: {:?}", out.errors);
                assert_eq!(out.failed, 0, "{w}: failed operations");
                assert!(out.attempted > 0, "{w}: nothing attempted");
                let reported: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                for (name, _) in reported {
                    let v = out.metrics.get(name);
                    assert!(v.is_some_and(|v| v.is_finite()), "{w}: {name} = {v:?}");
                }
                for name in out.metrics.keys() {
                    assert!(
                        END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| n == name),
                        "{w}: {name} is not a listed metric"
                    );
                }
                let line = result_line(&out, true, reported);
                let parsed = hdov_obs::json::parse(&line).expect("result line is JSON");
                assert_eq!(
                    parsed.get("metrics").unwrap().as_obj().unwrap().len(),
                    reported.len()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
