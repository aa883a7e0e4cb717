//! Measurement helpers: nearest-rank percentiles, answer digests, the core
//! clock, and process statistics.

use hdov_core::{ResultEntry, ResultKey};
use hdov_storage::page_checksum;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples: the smallest rank
/// with at least `q · n` samples at or below it.
fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let exact = q * n as f64;
    // `0.99 * 1000.0` is 990.0000000000001; snap such products to the
    // integer they stand for before rounding up.
    let r = if (exact - exact.round()).abs() < 1e-9 {
        exact.round()
    } else {
        exact.ceil()
    };
    (r as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    sorted[rank(sorted.len(), q) - 1]
}

/// Nearest-rank percentile of the union of ascending samples `parts`,
/// without merging them: the answer, the `k`-th largest sample overall, is
/// among the `k` largest of the part it comes from.
pub fn pooled_percentile(parts: &[&[u32]], q: f64) -> u32 {
    let n = parts.iter().map(|p| p.len()).sum();
    let k = beyond(n, q) + 1;
    let mut top: Vec<u32> = parts
        .iter()
        .flat_map(|p| &p[p.len().saturating_sub(k)..])
        .copied()
        .collect();
    top.sort_unstable();
    top[top.len() - k]
}

/// Samples strictly above the nearest-rank `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Whether `n` samples support a `q` percentile: at least [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// The highest of `quantiles` (ascending) that `n` samples support, if any.
pub fn highest_supported(n: usize, quantiles: &[f64]) -> Option<f64> {
    quantiles.iter().rev().copied().find(|&q| supports(n, q))
}

/// Digest of one answer set: FNV (`page_checksum`) over each entry's key,
/// level, polygons, bytes and DoV bits, in answer order. The `cached` flag
/// and every cost are left out, so an optimisation that keeps the answers
/// keeps the digest.
pub fn frame_digest(entries: &[ResultEntry]) -> u64 {
    let mut bytes = Vec::with_capacity(entries.len() * 37);
    for e in entries {
        match e.key {
            ResultKey::Object(h) => {
                bytes.push(0);
                bytes.extend_from_slice(&h.to_le_bytes());
            }
            ResultKey::Internal(o) => {
                bytes.push(1);
                bytes.extend_from_slice(&u64::from(o).to_le_bytes());
            }
        }
        bytes.extend_from_slice(&(e.level as u64).to_le_bytes());
        bytes.extend_from_slice(&e.polygons.to_le_bytes());
        bytes.extend_from_slice(&e.bytes.to_le_bytes());
        bytes.extend_from_slice(&e.dov.to_bits().to_le_bytes());
    }
    page_checksum(&bytes)
}

/// Order-dependent step: folds digest `d` into running digest `h`.
pub fn chain(h: u64, d: u64) -> u64 {
    let mut buf = [0u8; 16];
    buf[..8].copy_from_slice(&h.to_le_bytes());
    buf[8..].copy_from_slice(&d.to_le_bytes());
    page_checksum(&buf)
}

/// Order-independent combination of `(index, digest)` parts: the same parts
/// in any order give the same value, and a part seen twice counts twice.
pub fn combine(parts: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    parts
        .into_iter()
        .fold(0u64, |acc, (i, d)| acc.wrapping_add(chain(i, d)))
}

/// Whether two answer sets agree on everything [`frame_digest`] covers.
pub fn same_answers(a: &[ResultEntry], b: &[ResultEntry]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.key == y.key
                && x.level == y.level
                && x.polygons == y.polygons
                && x.bytes == y.bytes
                && x.dov.to_bits() == y.dov.to_bits()
        })
}

/// Latency of an open-loop operation, timed from when it was due rather
/// than when it started, so a stall also charges the operations queued
/// behind it. Returns `(latency, lateness)` in seconds.
pub fn due_latency(due_s: f64, start_s: f64, end_s: f64) -> (f64, f64) {
    (end_s - due_s, (start_s - due_s).max(0.0))
}

/// `u32` slots of the clock kernel's pointer-chasing ring: 64 KiB, so the
/// warm ring stays in the core's own caches and the kernel's time follows
/// the core clock, not the state the engine left the shared caches in.
const RING_LEN: usize = 1 << 14;
/// Dependent loads, hashed bytes and dependent float steps per kernel run.
const KERNEL_STEPS: usize = 1 << 13;
/// Timed kernel runs per sample.
const KERNEL_RUNS: usize = 5;
/// Kernel time on the reference host, a 2-vCPU Intel Xeon virtual machine,
/// at the fastest clock step seen there; see [`clock_scale`].
pub const REFERENCE_KERNEL_S: f64 = 38.5e-6;

/// The clock kernel's fixed data: a single-cycle ring (Sattolo's shuffle)
/// and bytes to hash, built once per process.
struct Kernel {
    ring: Vec<u32>,
    bytes: Vec<u8>,
}

fn kernel() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut rng = hdov_geom::sampling::SplitMix64::new(0x5eed);
        let mut ring: Vec<u32> = (0..RING_LEN as u32).collect();
        for i in (1..RING_LEN).rev() {
            ring.swap(i, (rng.next_u64() % i as u64) as usize);
        }
        let bytes = (0..KERNEL_STEPS).map(|_| rng.next_u64() as u8).collect();
        Kernel { ring, bytes }
    })
}

impl Kernel {
    /// Fixed work in the engine's mix — dependent loads, byte hashing,
    /// dependent float arithmetic — and none of the engine's own code, so
    /// an engine change cannot move it. Returns its time in seconds.
    fn run(&self) -> f64 {
        let t0 = Instant::now();
        let mut at = 0u32;
        for _ in 0..KERNEL_STEPS {
            at = self.ring[at as usize];
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &self.bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut x = 1.0f64;
        for _ in 0..KERNEL_STEPS {
            x = x.mul_add(0.999_999_9, 1e-7);
        }
        black_box((at, h, x));
        t0.elapsed().as_secs_f64()
    }
}

/// One sample of the core clock: the fastest of [`KERNEL_RUNS`] timed runs
/// of the clock kernel after one untimed run that warms it, in seconds.
/// The fastest, because an interrupt or a neighbour only ever adds time.
pub fn clock_sample_s() -> f64 {
    let k = kernel();
    k.run();
    (0..KERNEL_RUNS)
        .map(|_| k.run())
        .fold(f64::INFINITY, f64::min)
}

/// Factor that turns a time measured while the clock kernel took
/// `kernel_s` into the time at the reference host's clock: a host whose
/// cores run 10 % slower takes 10 % longer for the kernel and the engine
/// alike, and the factor takes that back out.
pub fn clock_scale(kernel_s: f64) -> f64 {
    REFERENCE_KERNEL_S / kernel_s
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total size of the regular files directly under `dir`, in bytes.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        let w: Vec<u32> = (1..=1000).collect();
        // 0.99 · 1000 is not exactly 990 in floating point.
        assert_eq!(percentile(&w, 0.99), 990);
        assert_eq!(percentile(&[7u32], 0.99), 7);
        assert_eq!(percentile(&[1u32, 2, 3], 0.5), 2);
    }

    #[test]
    fn pooled_percentile_equals_percentile_of_the_union() {
        let mut rng = hdov_geom::sampling::SplitMix64::new(5);
        let parts: Vec<Vec<u32>> = (0..7)
            .map(|i| {
                let mut p: Vec<u32> = (0..i * 300)
                    .map(|_| (rng.next_u64() % 10_000) as u32)
                    .collect();
                p.sort_unstable();
                p
            })
            .collect();
        let mut union = parts.concat();
        union.sort_unstable();
        let parts: Vec<&[u32]> = parts.iter().map(Vec::as_slice).collect();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                pooled_percentile(&parts, q),
                percentile(&union, q),
                "q = {q}"
            );
        }
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(!supports(100, 0.99));
        assert!(supports(100, 0.9));
        assert_eq!(highest_supported(100, &[0.5, 0.9, 0.99]), Some(0.9));
        assert_eq!(highest_supported(150_000, &[0.5, 0.99, 0.999]), Some(0.999));
        assert_eq!(highest_supported(5, &[0.5, 0.9]), None);
    }

    #[test]
    fn combining_is_order_independent_and_counts_repeats() {
        let parts = [(0u64, 11u64), (1, 22), (2, 33), (1, 22)];
        let forward = combine(parts);
        let mut rev = parts;
        rev.reverse();
        assert_eq!(forward, combine(rev));
        assert_eq!(forward, combine([parts[2], parts[0], parts[3], parts[1]]));
        // A repeated part is not cancelled out, and index matters.
        assert_ne!(forward, combine([(0, 11), (2, 33)]));
        assert_ne!(combine([(0, 11), (1, 22)]), combine([(1, 11), (0, 22)]));
        // Chaining, by contrast, is order-dependent.
        assert_ne!(chain(chain(0, 1), 2), chain(chain(0, 2), 1));
    }

    #[test]
    fn digest_ignores_cached_flag_but_not_answers() {
        let e = ResultEntry {
            key: ResultKey::Object(3),
            level: 1,
            polygons: 100,
            bytes: 4096,
            dov: 0.25,
            cached: false,
        };
        let cached = ResultEntry { cached: true, ..e };
        let coarser = ResultEntry { level: 2, ..e };
        assert_eq!(frame_digest(&[e]), frame_digest(&[cached]));
        assert!(same_answers(&[e], &[cached]));
        assert_ne!(frame_digest(&[e]), frame_digest(&[coarser]));
        assert!(!same_answers(&[e], &[coarser]));
        assert!(!same_answers(&[e], &[e, e]));
    }

    #[test]
    fn clock_scale_takes_a_slower_clock_back_out() {
        assert_eq!(clock_scale(REFERENCE_KERNEL_S), 1.0);
        // Twice the kernel time: times measured then are halved.
        assert!((clock_scale(2.0 * REFERENCE_KERNEL_S) - 0.5).abs() < 1e-12);
        let s = clock_sample_s();
        assert!(s.is_finite() && s > 0.0, "clock sample {s}");
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        // On time: latency is the service time.
        assert_eq!(due_latency(1.0, 1.0, 1.25), (0.25, 0.0));
        // Started 0.5 s late behind a stall: the wait is charged too.
        let (lat, late) = due_latency(1.0, 1.5, 1.75);
        assert!((lat - 0.75).abs() < 1e-12 && (late - 0.5).abs() < 1e-12);
        // Early start (the writer slept past its due time by 0) is not late.
        assert_eq!(due_latency(2.0, 1.999, 2.1).1, 0.0);
    }
}
