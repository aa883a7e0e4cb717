//! CI perf-regression gate: diffs two directories of metrics snapshots.
//!
//! ```text
//! bench_report --baseline results/metrics-baseline \
//!              [--current results/metrics] \
//!              [--tolerance-file ci/tolerances.toml]
//! ```
//!
//! Exits 0 when every tracked metric is within its tolerance of the
//! baseline, 1 when any metric regressed (or a tracked metric vanished),
//! and 2 on usage/IO errors. See `hdov_bench::report` for the comparison
//! semantics and DESIGN.md §9 for how tolerances are chosen.

use hdov_bench::report::{compare, load_snapshot_dir, ToleranceConfig};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    baseline: PathBuf,
    current: PathBuf,
    tolerance_file: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut baseline = None;
    let mut current = PathBuf::from("results/metrics");
    let mut tolerance_file = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} requires a value"))
                .map(PathBuf::from)
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(value("--baseline")?),
            "--current" => current = value("--current")?,
            "--tolerance-file" => tolerance_file = Some(value("--tolerance-file")?),
            "--help" | "-h" => {
                return Err(
                    "usage: bench_report --baseline DIR [--current DIR] [--tolerance-file FILE]"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or("--baseline DIR is required")?,
        current,
        tolerance_file,
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let cfg = match &args.tolerance_file {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            ToleranceConfig::parse(&text)?
        }
        None => ToleranceConfig::default(),
    };
    let baseline = load_snapshot_dir(&args.baseline)?;
    let current = load_snapshot_dir(&args.current)?;
    if baseline.is_empty() {
        return Err(format!("no snapshots in {}", args.baseline.display()));
    }

    let out = compare(&baseline, &current, &cfg);
    println!(
        "bench_report: {} metrics compared, {} ignored, {} new",
        out.compared,
        out.ignored,
        out.new_in_current.len()
    );
    for id in &out.new_in_current {
        println!("  new (no baseline yet): {id}");
    }
    for id in &out.missing_in_current {
        println!("  FAIL missing in current run: {id}");
    }
    for r in &out.regressions {
        println!(
            "  FAIL {}: baseline {:.6} -> current {:.6} ({:+.2}%, + is worse; tolerance {:.2}%)",
            r.metric,
            r.baseline,
            r.current,
            r.rel_change * 100.0,
            r.tolerance * 100.0
        );
    }
    if out.failed() {
        println!(
            "bench_report: GATE FAILED ({} regression(s), {} missing)",
            out.regressions.len(),
            out.missing_in_current.len()
        );
    } else {
        println!("bench_report: gate passed");
    }
    Ok(out.failed())
}

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("bench_report: {msg}");
            ExitCode::from(2)
        }
    }
}
