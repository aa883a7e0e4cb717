//! Session playback and aggregate metrics.

use crate::frame::FrameRecord;
use crate::session::Session;
use crate::system::WalkthroughSystem;
use hdov_storage::Result;

/// Aggregates over one played-back session — the quantities of the paper's
/// Table 3 and Figs. 10/12.
#[derive(Debug, Clone)]
pub struct WalkthroughMetrics {
    /// System name.
    pub system: String,
    /// Per-frame records, in order.
    pub frames: Vec<FrameRecord>,
    /// Peak resident model bytes.
    pub peak_memory_bytes: u64,
}

impl WalkthroughMetrics {
    /// Mean frame time (ms) — Table 3 column 2.
    pub fn avg_frame_time_ms(&self) -> f64 {
        mean(self.frames.iter().map(|f| f.frame_ms))
    }

    /// Population variance of frame time (ms²) — Table 3 column 3.
    pub fn variance_frame_time(&self) -> f64 {
        variance(self.frames.iter().map(|f| f.frame_ms))
    }

    /// Standard deviation of frame time (ms).
    pub fn stddev_frame_time(&self) -> f64 {
        self.variance_frame_time().sqrt()
    }

    /// Mean per-query search time (ms) — Fig. 12(a).
    pub fn avg_search_time_ms(&self) -> f64 {
        mean(self.frames.iter().map(|f| f.search_ms))
    }

    /// Mean page I/Os per query — Fig. 12(b).
    pub fn avg_page_reads(&self) -> f64 {
        mean(self.frames.iter().map(|f| f.page_reads as f64))
    }

    /// Mean DoV coverage (1.0 = everything visible represented).
    pub fn avg_dov_coverage(&self) -> f64 {
        mean(self.frames.iter().map(|f| f.dov_coverage))
    }

    /// Worst-frame DoV coverage.
    pub fn min_dov_coverage(&self) -> f64 {
        self.frames
            .iter()
            .map(|f| f.dov_coverage)
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean missed visible objects per frame.
    pub fn avg_missed_objects(&self) -> f64 {
        mean(self.frames.iter().map(|f| f.missed_objects as f64))
    }

    /// Mean polygons rendered per frame.
    pub fn avg_polygons(&self) -> f64 {
        mean(self.frames.iter().map(|f| f.polygons as f64))
    }

    /// Total bytes fetched over the session.
    pub fn total_fetched_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.fetched_bytes).sum()
    }

    /// The tallest frame-time spike (ms) — the "choppiness" of Fig. 10.
    pub fn max_frame_time_ms(&self) -> f64 {
        self.frames
            .iter()
            .map(|f| f.frame_ms)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Frame-time percentile in `[0, 100]` (nearest-rank; e.g. 95.0 for the
    /// p95 the smoothness discussion around Table 3 really cares about).
    ///
    /// Returns 0 for an empty session.
    pub fn frame_time_percentile(&self, pct: f64) -> f64 {
        assert!((0.0..=100.0).contains(&pct), "percentile out of range");
        if self.frames.is_empty() {
            return 0.0;
        }
        let mut times: Vec<f64> = self.frames.iter().map(|f| f.frame_ms).collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = ((pct / 100.0) * times.len() as f64).ceil() as usize;
        times[rank.clamp(1, times.len()) - 1]
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = it.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

fn variance(it: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = it.collect();
    if v.is_empty() {
        return 0.0;
    }
    let m = v.iter().sum::<f64>() / v.len() as f64;
    v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
}

/// Plays `session` through `system` (after a reset) and collects metrics.
pub fn run_session(
    system: &mut dyn WalkthroughSystem,
    session: &Session,
) -> Result<WalkthroughMetrics> {
    system.reset();
    let mut frames = Vec::with_capacity(session.len());
    for &vp in &session.viewpoints {
        frames.push(system.frame(vp)?);
    }
    Ok(WalkthroughMetrics {
        system: system.name(),
        frames,
        peak_memory_bytes: system.peak_memory_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(frame_ms: f64) -> FrameRecord {
        FrameRecord {
            search_ms: frame_ms / 2.0,
            frame_ms,
            polygons: 100,
            fetched_bytes: 10,
            page_reads: 3,
            dov_coverage: 0.9,
            missed_objects: 1,
            resident_bytes: 50,
        }
    }

    fn metrics(times: &[f64]) -> WalkthroughMetrics {
        WalkthroughMetrics {
            system: "test".into(),
            frames: times.iter().map(|&t| rec(t)).collect(),
            peak_memory_bytes: 123,
        }
    }

    #[test]
    fn averages_and_variance() {
        let m = metrics(&[10.0, 20.0, 30.0]);
        assert!((m.avg_frame_time_ms() - 20.0).abs() < 1e-9);
        let var = m.variance_frame_time();
        assert!((var - 200.0 / 3.0).abs() < 1e-9);
        assert!((m.stddev_frame_time() - var.sqrt()).abs() < 1e-12);
        assert_eq!(m.max_frame_time_ms(), 30.0);
        assert!((m.avg_search_time_ms() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let m = metrics(&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]);
        assert_eq!(m.frame_time_percentile(50.0), 50.0);
        assert_eq!(m.frame_time_percentile(95.0), 100.0);
        assert_eq!(m.frame_time_percentile(100.0), 100.0);
        assert_eq!(m.frame_time_percentile(0.0), 10.0);
        assert_eq!(metrics(&[]).frame_time_percentile(95.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_percentile_panics() {
        metrics(&[1.0]).frame_time_percentile(101.0);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = metrics(&[]);
        assert_eq!(m.avg_frame_time_ms(), 0.0);
        assert_eq!(m.variance_frame_time(), 0.0);
    }

    #[test]
    fn io_and_coverage_aggregates() {
        let m = metrics(&[10.0, 10.0]);
        assert!((m.avg_page_reads() - 3.0).abs() < 1e-9);
        assert!((m.avg_dov_coverage() - 0.9).abs() < 1e-9);
        assert!((m.min_dov_coverage() - 0.9).abs() < 1e-9);
        assert!((m.avg_missed_objects() - 1.0).abs() < 1e-9);
        assert!((m.avg_polygons() - 100.0).abs() < 1e-9);
        assert_eq!(m.total_fetched_bytes(), 20);
    }
}
