//! The perf-regression diff engine behind the `bench_report` binary.
//!
//! Two directories of [`MetricsSnapshot`] JSON files (a checked-in baseline
//! and a fresh run) are flattened to `snapshot/metric → f64` maps and
//! compared metric-by-metric under a per-metric relative tolerance loaded
//! from `ci/tolerances.toml`. A tracked metric that moves in its *worse*
//! direction by more than its tolerance is a regression, and so is any
//! move at all, either way, of a metric whose tolerance is exactly zero
//! (those metrics are deterministic, so a change in either direction is a
//! change of behaviour); `bench_report` exits nonzero when any exist,
//! which is what turns the metrics files into a CI gate instead of a CSV a
//! human has to eyeball.
//!
//! ## Tolerance file
//!
//! A deliberately tiny TOML subset (the container has no TOML crate):
//! top-level `default_tolerance = <float>`, then three sections whose
//! entries are `"pattern" = <float>` (`[tolerances]`) or
//! `patterns = ["...", ...]` (`[ignore]`, `[higher_is_better]`):
//!
//! ```toml
//! default_tolerance = 0.05
//!
//! [ignore]            # reported but never gated (wall-clock noise)
//! patterns = ["hist.wall_", "*wall_ns"]
//!
//! [higher_is_better]  # regressions point down, not up
//! patterns = ["*hit_rate", "*sim_qps"]
//!
//! [tolerances]        # per-metric overrides, longest match wins
//! "fig8_io/" = 0.0
//! ```
//!
//! A pattern starting with `*` is a suffix match; anything else is a prefix
//! match against the full `snapshot/metric` id *or* the bare metric part.

use hdov_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::path::Path;

/// How a pattern from the tolerance file matches a metric id.
fn matches(pattern: &str, id: &str) -> bool {
    if let Some(suffix) = pattern.strip_prefix('*') {
        id.ends_with(suffix)
    } else {
        id.starts_with(pattern)
            || id
                .split_once('/')
                .is_some_and(|(_, metric)| metric.starts_with(pattern))
    }
}

/// Parsed `ci/tolerances.toml`.
#[derive(Debug, Clone)]
pub struct ToleranceConfig {
    /// Relative tolerance when no override matches.
    pub default_tolerance: f64,
    /// Metrics matching any of these are reported but never gated.
    pub ignore: Vec<String>,
    /// Metrics matching any of these regress *downward* (rates, throughput).
    pub higher_is_better: Vec<String>,
    /// Per-metric overrides; the longest matching pattern wins.
    pub overrides: Vec<(String, f64)>,
}

impl Default for ToleranceConfig {
    fn default() -> Self {
        ToleranceConfig {
            default_tolerance: 0.05,
            ignore: vec!["hist.wall_".into(), "*wall_ns".into(), "*wall_qps".into()],
            higher_is_better: vec!["*hit_rate".into(), "*sim_qps".into(), "*pool_hits".into()],
            overrides: Vec::new(),
        }
    }
}

impl ToleranceConfig {
    /// Parses the TOML subset described in the module docs.
    pub fn parse(text: &str) -> Result<ToleranceConfig, String> {
        let mut cfg = ToleranceConfig {
            default_tolerance: 0.05,
            ignore: Vec::new(),
            higher_is_better: Vec::new(),
            overrides: Vec::new(),
        };
        let mut section = String::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let fail = |msg: &str| format!("tolerances line {}: {msg}", lineno + 1);
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| fail("expected key = value"))?;
            let key = key.trim_matches('"').to_string();
            match section.as_str() {
                "" => {
                    if key == "default_tolerance" {
                        cfg.default_tolerance = value
                            .parse()
                            .map_err(|_| fail("default_tolerance must be a number"))?;
                    } else {
                        return Err(fail(&format!("unknown top-level key {key}")));
                    }
                }
                "ignore" | "higher_is_better" => {
                    if key != "patterns" {
                        return Err(fail("expected patterns = [\"...\"]"));
                    }
                    let list = parse_string_array(value).ok_or_else(|| fail("bad array"))?;
                    if section == "ignore" {
                        cfg.ignore.extend(list);
                    } else {
                        cfg.higher_is_better.extend(list);
                    }
                }
                "tolerances" => {
                    let tol: f64 = value
                        .parse()
                        .map_err(|_| fail("tolerance must be a number"))?;
                    if tol < 0.0 {
                        return Err(fail("tolerance must be non-negative"));
                    }
                    cfg.overrides.push((key, tol));
                }
                other => return Err(fail(&format!("unknown section [{other}]"))),
            }
        }
        Ok(cfg)
    }

    /// The gating tolerance for `id`, or `None` when the metric is ignored.
    pub fn tolerance_for(&self, id: &str) -> Option<f64> {
        if self.ignore.iter().any(|p| matches(p, id)) {
            return None;
        }
        self.overrides
            .iter()
            .filter(|(p, _)| matches(p, id))
            .max_by_key(|(p, _)| p.len())
            .map(|&(_, t)| t)
            .or(Some(self.default_tolerance))
    }

    /// Whether a *drop* in `id` is the regression direction.
    pub fn is_higher_better(&self, id: &str) -> bool {
        self.higher_is_better.iter().any(|p| matches(p, id))
    }
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let inner = value.strip_prefix('[')?.strip_suffix(']')?.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(|item| {
            let item = item.trim();
            item.strip_prefix('"')?
                .strip_suffix('"')
                .map(|s| s.to_string())
        })
        .collect()
}

/// Flattens one snapshot into `metric → value` (no snapshot-name prefix).
///
/// Counters become `counter.<name>`, gauges `gauge.<name>`, histograms
/// `hist.<name>.{count,sum,mean,p50,p99,max}`.
pub fn flatten(snap: &MetricsSnapshot) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (k, &v) in &snap.counters {
        out.insert(format!("counter.{k}"), v as f64);
    }
    for (k, &v) in &snap.gauges {
        out.insert(format!("gauge.{k}"), v);
    }
    for (k, h) in &snap.histograms {
        out.insert(format!("hist.{k}.count"), h.count as f64);
        out.insert(format!("hist.{k}.sum"), h.sum as f64);
        out.insert(format!("hist.{k}.mean"), h.mean());
        out.insert(format!("hist.{k}.p50"), h.quantile(0.5) as f64);
        out.insert(format!("hist.{k}.p99"), h.quantile(0.99) as f64);
        out.insert(format!("hist.{k}.max"), h.max as f64);
    }
    out
}

/// One gated metric that moved beyond its tolerance in the worse direction,
/// or moved at all under a zero tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Full `snapshot/metric` id.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Signed relative change, positive = worse (negative only under a
    /// zero tolerance).
    pub rel_change: f64,
    /// The tolerance it exceeded.
    pub tolerance: f64,
}

/// Everything `bench_report` learned from one comparison.
#[derive(Debug, Clone, Default)]
pub struct ReportOutcome {
    /// Metrics compared under a tolerance.
    pub compared: usize,
    /// Metrics present but ignored by configuration.
    pub ignored: usize,
    /// Gated regressions (nonzero exit when non-empty).
    pub regressions: Vec<Regression>,
    /// Tracked metrics the current run no longer produces (also gate
    /// failures: a vanished metric must be a deliberate baseline update).
    pub missing_in_current: Vec<String>,
    /// New metrics with no baseline yet and a nonzero tolerance
    /// (informational only; a zero-tolerance one is gated as if its
    /// baseline were zero).
    pub new_in_current: Vec<String>,
}

impl ReportOutcome {
    /// Whether the gate should fail.
    pub fn failed(&self) -> bool {
        !self.regressions.is_empty() || !self.missing_in_current.is_empty()
    }
}

/// Compares `current` against `baseline` under `cfg`.
///
/// Snapshots pair by name; metric ids are `name/flattened-key`. The signed
/// relative change is `(cur - base) / |base|` (flipped for higher-is-better
/// metrics); a zero baseline compares exactly. A change beyond the
/// tolerance in the worse direction is a regression; at a tolerance of
/// exactly zero, any nonzero change is. A metric only the current run has
/// is gated against a zero baseline when its tolerance is exactly zero, and
/// is informational otherwise.
pub fn compare(
    baseline: &[MetricsSnapshot],
    current: &[MetricsSnapshot],
    cfg: &ToleranceConfig,
) -> ReportOutcome {
    let mut base_metrics = BTreeMap::new();
    for snap in baseline {
        for (k, v) in flatten(snap) {
            base_metrics.insert(format!("{}/{}", snap.name, k), v);
        }
    }
    let mut cur_metrics = BTreeMap::new();
    for snap in current {
        for (k, v) in flatten(snap) {
            cur_metrics.insert(format!("{}/{}", snap.name, k), v);
        }
    }

    let mut out = ReportOutcome::default();
    for (id, &base) in &base_metrics {
        let Some(&cur) = cur_metrics.get(id) else {
            if cfg.tolerance_for(id).is_some() {
                out.missing_in_current.push(id.clone());
            }
            continue;
        };
        let Some(tolerance) = cfg.tolerance_for(id) else {
            out.ignored += 1;
            continue;
        };
        out.compared += 1;
        out.regressions.extend(gate(cfg, id, base, cur, tolerance));
    }
    for (id, &cur) in &cur_metrics {
        if base_metrics.contains_key(id) {
            continue;
        }
        // Zero-valued counters are left out of snapshots, so an absent
        // baseline reads as zero: a metric pinned there at tolerance 0
        // fails once it appears with a value. Any other new metric has no
        // baseline yet.
        if cfg.tolerance_for(id) == Some(0.0) {
            out.compared += 1;
            out.regressions.extend(gate(cfg, id, 0.0, cur, 0.0));
        } else {
            out.new_in_current.push(id.clone());
        }
    }
    out
}

/// The regression, if any, of metric `id` moving from `base` to `cur`
/// under `tolerance` (see [`compare`]).
fn gate(
    cfg: &ToleranceConfig,
    id: &str,
    base: f64,
    cur: f64,
    tolerance: f64,
) -> Option<Regression> {
    let signed = if base == 0.0 {
        if cur == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (cur - base) / base.abs()
    };
    let rel_change = if cfg.is_higher_better(id) {
        -signed
    } else {
        signed
    };
    let regressed = if tolerance == 0.0 {
        rel_change != 0.0
    } else {
        rel_change > tolerance
    };
    regressed.then(|| Regression {
        metric: id.to_string(),
        baseline: base,
        current: cur,
        rel_change,
        tolerance,
    })
}

/// Loads one metrics snapshot JSON file.
///
/// A missing file is a *usage* error (`bench_report` exits 2), not a gate
/// failure: the caller pointed at something that was never produced, and
/// the message says how to produce it.
pub fn load_snapshot_file(path: &Path) -> Result<MetricsSnapshot, String> {
    if !path.is_file() {
        return Err(format!(
            "metrics file {} does not exist — run the bench bin that writes it \
             (they write results/metrics/<name>.json), or fix the path",
            path.display()
        ));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    MetricsSnapshot::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads every `*.json` snapshot in `dir`, sorted by file name.
///
/// A missing directory is a usage error with the same contract as
/// [`load_snapshot_file`]: exit 2, with a hint at what should have created
/// the directory.
pub fn load_snapshot_dir(dir: &Path) -> Result<Vec<MetricsSnapshot>, String> {
    if !dir.is_dir() {
        return Err(format!(
            "snapshot directory {} does not exist — pass --baseline/--current a directory \
             of *.json metrics snapshots (CI keeps the baseline in results/metrics-baseline)",
            dir.display()
        ));
    }
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut snaps = Vec::with_capacity(paths.len());
    for path in paths {
        snaps.push(load_snapshot_file(&path)?);
    }
    Ok(snaps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(name: &str, pairs: &[(&str, f64)]) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new(name);
        for &(k, v) in pairs {
            s.set_gauge(k, v);
        }
        s
    }

    #[test]
    fn tolerance_file_parses_and_matches() {
        let cfg = ToleranceConfig::parse(
            r#"
            # comment
            default_tolerance = 0.10

            [ignore]
            patterns = ["hist.wall_", "*wall_ns"]  # noise

            [higher_is_better]
            patterns = ["*hit_rate"]

            [tolerances]
            "fig8_io/" = 0.0
            "fig8_io/gauge.eta0.008" = 0.5
            "#,
        )
        .unwrap();
        assert_eq!(cfg.default_tolerance, 0.10);
        assert_eq!(cfg.tolerance_for("x/counter.phase.traversal.wall_ns"), None);
        assert_eq!(cfg.tolerance_for("x/hist.wall_search_ns.count"), None);
        assert_eq!(
            cfg.tolerance_for("fig8_io/gauge.eta0.hdov_total"),
            Some(0.0)
        );
        // Longest match wins.
        assert_eq!(cfg.tolerance_for("fig8_io/gauge.eta0.008.x"), Some(0.5));
        assert_eq!(cfg.tolerance_for("other/gauge.y"), Some(0.10));
        assert!(cfg.is_higher_better("a/gauge.pool.hit_rate"));
        assert!(!cfg.is_higher_better("a/gauge.search_ms"));

        assert!(ToleranceConfig::parse("nonsense").is_err());
        assert!(ToleranceConfig::parse("[tolerances]\n\"x\" = -1").is_err());
        assert!(ToleranceConfig::parse("[bogus]\nx = 1").is_err());
    }

    #[test]
    fn regression_detected_beyond_tolerance() {
        let cfg = ToleranceConfig {
            default_tolerance: 0.05,
            ignore: vec![],
            higher_is_better: vec!["*qps".into()],
            overrides: vec![],
        };
        let base = [snap("run", &[("latency_ms", 100.0), ("qps", 1000.0)])];

        // Within tolerance: pass.
        let ok = compare(
            &base,
            &[snap("run", &[("latency_ms", 104.0), ("qps", 990.0)])],
            &cfg,
        );
        assert!(!ok.failed(), "{:?}", ok.regressions);
        assert_eq!(ok.compared, 2);

        // Latency up 20%: regression.
        let slow = compare(
            &base,
            &[snap("run", &[("latency_ms", 120.0), ("qps", 1000.0)])],
            &cfg,
        );
        assert!(slow.failed());
        assert_eq!(slow.regressions.len(), 1);
        let r = &slow.regressions[0];
        assert_eq!(r.metric, "run/gauge.latency_ms");
        assert!((r.rel_change - 0.20).abs() < 1e-12);

        // Throughput down 20%: regression in the flipped direction; a
        // throughput *gain* is not.
        let throttled = compare(
            &base,
            &[snap("run", &[("latency_ms", 100.0), ("qps", 800.0)])],
            &cfg,
        );
        assert_eq!(throttled.regressions.len(), 1);
        assert_eq!(throttled.regressions[0].metric, "run/gauge.qps");
        let faster = compare(
            &base,
            &[snap("run", &[("latency_ms", 80.0), ("qps", 1300.0)])],
            &cfg,
        );
        assert!(!faster.failed());
    }

    #[test]
    fn identical_snapshots_pass_at_zero_tolerance() {
        let cfg = ToleranceConfig {
            default_tolerance: 0.0,
            ignore: vec![],
            higher_is_better: vec![],
            overrides: vec![],
        };
        let a = [snap("run", &[("x", 41.5), ("zero", 0.0)])];
        let out = compare(&a, &a, &cfg);
        assert!(!out.failed());
        assert_eq!(out.compared, 2);
        // A zero baseline that becomes nonzero is an infinite regression.
        let out = compare(&a, &[snap("run", &[("x", 41.5), ("zero", 1.0)])], &cfg);
        assert!(out.failed());
        assert!(out.regressions[0].rel_change.is_infinite());
    }

    /// A deterministic metric gated at zero tolerance fails on any move:
    /// a counter that falls is as much a behaviour change as one that
    /// rises, and a throughput that rises as one that falls. A nonzero
    /// tolerance still forgives moves in the better direction.
    #[test]
    fn zero_tolerance_gates_both_directions() {
        let cfg = ToleranceConfig {
            default_tolerance: 0.0,
            ignore: vec![],
            higher_is_better: vec!["*qps".into()],
            overrides: vec![("loose/".into(), 0.05)],
        };
        let base = [
            snap("run", &[("codec_decodes", 3_580_930.0), ("qps", 1000.0)]),
            snap("loose", &[("codec_decodes", 100.0)]),
        ];
        let cur = [
            snap("run", &[("codec_decodes", 9_405.0), ("qps", 1200.0)]),
            snap("loose", &[("codec_decodes", 50.0)]),
        ];
        let out = compare(&base, &cur, &cfg);
        assert!(out.failed());
        let moved: Vec<&str> = out.regressions.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(moved, ["run/gauge.codec_decodes", "run/gauge.qps"]);
        assert!(out.regressions.iter().all(|r| r.rel_change < 0.0));
        assert_eq!(out.compared, 3);
    }

    #[test]
    fn missing_and_new_metrics() {
        let cfg = ToleranceConfig::default();
        let base = [snap("run", &[("a", 1.0), ("b", 2.0)])];
        let cur = [snap("run", &[("a", 1.0), ("c", 3.0)])];
        let out = compare(&base, &cur, &cfg);
        assert_eq!(out.missing_in_current, vec!["run/gauge.b".to_string()]);
        assert_eq!(out.new_in_current, vec!["run/gauge.c".to_string()]);
        assert!(out.failed(), "a vanished tracked metric fails the gate");

        // An ignored metric may vanish freely.
        let cfg = ToleranceConfig {
            ignore: vec!["gauge.b".into()],
            ..ToleranceConfig::default()
        };
        assert!(!compare(&base, &cur, &cfg).failed());
    }

    /// A metric only the current run has is pinned to the absent (zero)
    /// baseline when its tolerance is exactly zero, and is informational
    /// under a nonzero one.
    #[test]
    fn new_metrics_gate_only_at_zero_tolerance() {
        let cfg = ToleranceConfig {
            default_tolerance: 0.05,
            ignore: vec![],
            higher_is_better: vec![],
            overrides: vec![("pinned/".into(), 0.0)],
        };
        let base = [snap("pinned", &[("a", 1.0)]), snap("loose", &[("a", 1.0)])];
        let cur = [
            snap(
                "pinned",
                &[("a", 1.0), ("breaker_opens", 3.0), ("idle", 0.0)],
            ),
            snap("loose", &[("a", 1.0), ("breaker_opens", 3.0)]),
        ];
        let out = compare(&base, &cur, &cfg);
        assert!(out.failed());
        assert_eq!(out.regressions.len(), 1);
        let r = &out.regressions[0];
        assert_eq!(r.metric, "pinned/gauge.breaker_opens");
        assert_eq!((r.baseline, r.current), (0.0, 3.0));
        assert!(r.rel_change.is_infinite());
        assert_eq!(out.new_in_current, ["loose/gauge.breaker_opens"]);
        // A zero value matches the absent baseline; both gated new metrics
        // count as compared.
        assert_eq!(out.compared, 4);

        // The same new metric under a nonzero tolerance alone passes.
        let out = compare(&base[1..], &cur[1..], &cfg);
        assert!(!out.failed());
        assert_eq!(out.new_in_current, ["loose/gauge.breaker_opens"]);
    }

    /// A `--baseline`/`--current` path that is not a directory is a usage
    /// error (exit 2 in `bench_report`), and the message says so plainly
    /// instead of leaking a raw `read_dir` errno.
    #[test]
    fn missing_baseline_dir_is_a_usage_error() {
        let bogus = Path::new("/nonexistent/hdov-metrics-baseline");
        let err = load_snapshot_dir(bogus).unwrap_err();
        assert!(err.contains("does not exist"), "unhelpful error: {err}");
        assert!(err.contains("--baseline"), "should name the flag: {err}");
        assert!(
            err.contains(&bogus.display().to_string()),
            "should name the path: {err}"
        );
    }

    /// A missing metrics file gets the same treatment: a clear pointer at
    /// what should have produced it, not a bare I/O error.
    #[test]
    fn missing_metrics_file_is_a_usage_error() {
        let bogus = Path::new("/nonexistent/results/metrics/fig7_search.json");
        let err = load_snapshot_file(bogus).unwrap_err();
        assert!(err.contains("does not exist"), "unhelpful error: {err}");
        assert!(
            err.contains("bench bin"),
            "should say how to produce it: {err}"
        );
        assert!(
            err.contains(&bogus.display().to_string()),
            "should name the path: {err}"
        );
    }

    /// Round-trip through a real directory: written snapshots load back in
    /// file-name order, and a malformed file is reported by path.
    #[test]
    fn snapshot_dir_round_trips_and_reports_bad_json_by_path() {
        let dir =
            std::env::temp_dir().join(format!("hdov-bench-report-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let b = snap("b_run", &[("x", 2.0)]);
        let a = snap("a_run", &[("x", 1.0)]);
        std::fs::write(dir.join("b.json"), b.to_json()).unwrap();
        std::fs::write(dir.join("a.json"), a.to_json()).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored: not json").unwrap();

        let snaps = load_snapshot_dir(&dir).unwrap();
        assert_eq!(snaps.len(), 2, "non-json files are skipped");
        assert_eq!(snaps[0].name, "a_run", "sorted by file name");
        assert_eq!(snaps[1].name, "b_run");

        std::fs::write(dir.join("c.json"), "{ not json").unwrap();
        let err = load_snapshot_dir(&dir).unwrap_err();
        assert!(err.contains("c.json"), "bad file not named: {err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counters_and_histograms_flatten() {
        let mut s = MetricsSnapshot::new("f");
        s.set_counter("pool_hits", 7);
        let h = hdov_obs::Histogram::new();
        for v in [10u64, 20, 30] {
            h.observe(v);
        }
        s.set_histogram("sim_search_us", h.snapshot());
        let flat = flatten(&s);
        assert_eq!(flat["counter.pool_hits"], 7.0);
        assert_eq!(flat["hist.sim_search_us.count"], 3.0);
        assert_eq!(flat["hist.sim_search_us.sum"], 60.0);
        assert_eq!(flat["hist.sim_search_us.mean"], 20.0);
        assert_eq!(flat["hist.sim_search_us.max"], 30.0);
    }
}
