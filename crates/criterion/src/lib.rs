//! A self-contained, offline drop-in for the subset of the `criterion` API
//! this workspace's benches use.
//!
//! The build container cannot reach crates.io, so the real `criterion`
//! cannot be vendored. This shim keeps `benches/` compiling and useful: each
//! benchmark runs a warm-up pass, then `sample_size` timed samples, and
//! prints the median and min per-iteration time. There are no statistics,
//! plots, or baselines. As upstream, the first non-flag command-line
//! argument filters benchmarks by substring (`cargo bench --bench micro --
//! mesh/` runs only the names containing `mesh/`).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export for code written against `criterion::black_box`.
pub use std::hint::black_box;

/// Top-level benchmark driver (subset of upstream).
pub struct Criterion {
    sample_size: usize,
    target_time: Duration,
    filter: Option<String>,
}

impl Default for Criterion {
    /// Reads the name filter from the process arguments.
    fn default() -> Self {
        Criterion {
            sample_size: 50,
            target_time: Duration::from_millis(400),
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
        }
    }
}

impl Criterion {
    /// Sets how many timed samples each benchmark collects.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Sets the per-benchmark time budget samples are fitted into.
    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.target_time = t;
        self
    }

    /// Runs one benchmark, unless the name filter excludes it.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.run(name, f);
        self
    }

    /// Times `f` under `name` when the filter (if any) is a substring of it.
    fn run<F: FnMut(&mut Bencher)>(&self, name: &str, mut f: F) {
        if self
            .filter
            .as_ref()
            .is_some_and(|w| !name.contains(w.as_str()))
        {
            return;
        }
        let mut b = Bencher::new(self.sample_size, self.target_time);
        f(&mut b);
        b.report(name);
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
        }
    }
}

/// A group of related benchmarks (subset of upstream).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark in the group with an input value, unless the
    /// name filter excludes it.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let name = format!("{}/{}", self.name, id.0);
        self.criterion.run(&name, |b| f(b, input));
        self
    }

    /// Runs one benchmark in the group, unless the name filter excludes it.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: BenchmarkId, f: F) -> &mut Self {
        let name = format!("{}/{}", self.name, id.0);
        self.criterion.run(&name, f);
        self
    }

    /// Ends the group (no-op; exists for API compatibility).
    pub fn finish(self) {}
}

/// Identifies a benchmark within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id rendered from a parameter value.
    pub fn from_parameter<P: Display>(p: P) -> Self {
        BenchmarkId(p.to_string())
    }

    /// An id with a function name and a parameter value.
    pub fn new<P: Display>(function: &str, p: P) -> Self {
        BenchmarkId(format!("{function}/{p}"))
    }
}

/// Collects timed iterations of a closure.
pub struct Bencher {
    sample_size: usize,
    target_time: Duration,
    samples_ns: Vec<f64>,
}

impl Bencher {
    fn new(sample_size: usize, target_time: Duration) -> Self {
        Bencher {
            sample_size,
            target_time,
            samples_ns: Vec::new(),
        }
    }

    /// Times `routine`, discarding its output via an implicit sink.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up + calibration: find an iteration count that makes one
        // sample take long enough to time reliably.
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let budget = self.target_time / self.sample_size.max(1) as u32;
        let iters = (budget.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as usize;

        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let dt = t0.elapsed();
            self.samples_ns.push(dt.as_nanos() as f64 / iters as f64);
        }
    }

    fn report(&self, name: &str) {
        if self.samples_ns.is_empty() {
            println!("{name:<44} (no samples)");
            return;
        }
        let mut s = self.samples_ns.clone();
        s.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
        let median = s[s.len() / 2];
        let min = s[0];
        println!(
            "{name:<44} median {:>12}  min {:>12}",
            fmt_ns(median),
            fmt_ns(min)
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Declares a group of benchmark functions (subset of upstream syntax).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(5));
        c.bench_function("smoke/add", |b| b.iter(|| black_box(1u64) + black_box(2)));
        let mut g = c.benchmark_group("group");
        g.bench_with_input(BenchmarkId::from_parameter(7), &7u64, |b, &x| {
            b.iter(|| black_box(x) * 2)
        });
        g.finish();
    }

    #[test]
    fn filter_skips_names_without_the_substring() {
        let mut c = Criterion {
            filter: Some("mesh/".to_string()),
            ..Criterion::default()
        }
        .sample_size(1)
        .measurement_time(Duration::from_millis(1));
        let mut ran = Vec::new();
        c.bench_function("mesh/simplify", |_| ran.push("mesh/simplify"));
        c.bench_function("dov/first_hit", |_| ran.push("dov/first_hit"));
        let mut g = c.benchmark_group("hdov");
        g.bench_with_input(BenchmarkId::from_parameter("mesh/x"), &(), |_, _| {
            ran.push("hdov/mesh/x")
        });
        g.bench_function(BenchmarkId::from_parameter("search"), |_| {
            ran.push("hdov/search")
        });
        g.finish();
        assert_eq!(ran, ["mesh/simplify", "hdov/mesh/x"]);
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::from_parameter(3).0, "3");
        assert_eq!(BenchmarkId::new("f", 3).0, "f/3");
    }
}
