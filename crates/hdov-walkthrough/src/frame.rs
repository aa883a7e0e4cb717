//! The analytic frame-time model.
//!
//! The paper measures wall-clock frame times on a Pentium 4 with OpenGL
//! rendering. We substitute a deterministic model: a frame costs the
//! (simulated) database search time, plus a fixed per-frame overhead, plus a
//! per-polygon render charge. Frame-time *differences* between systems in
//! the paper are driven by query I/O and retrieved polygon counts, both of
//! which we measure exactly, so the model preserves the comparison shape
//! (see `DESIGN.md` §3).
//!
//! The constants are calibrated so the default city at VISUAL's typical
//! answer-set size lands in the paper's 12–16 ms frame range.

/// Fixed per-frame cost (scene setup, culling, buffer swap) in µs.
pub(crate) const BASE_US: f64 = 2000.0;

/// Render cost per polygon in µs (≈ 2002-era fixed-function throughput of
/// ~15–20 M triangles/s).
pub(crate) const PER_POLYGON_US: f64 = 0.06;

/// Total frame time in milliseconds: search plus the render charge.
pub fn frame_time_ms(search_ms: f64, polygons: u64) -> f64 {
    search_ms + (BASE_US + polygons as f64 * PER_POLYGON_US) / 1000.0
}

/// Everything measured about one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    /// Simulated database search time (ms).
    pub search_ms: f64,
    /// Total frame time (ms): search + render model.
    pub frame_ms: f64,
    /// Polygons rendered this frame.
    pub polygons: u64,
    /// Model bytes fetched this frame (delta/complement search discount
    /// applied).
    pub fetched_bytes: u64,
    /// Page reads this frame (all files).
    pub page_reads: u64,
    /// Fraction of the cell's visible DoV mass represented, `[0, 1]`.
    pub dov_coverage: f64,
    /// Visible objects with no representation this frame.
    pub missed_objects: usize,
    /// Bytes resident in memory after this frame.
    pub resident_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_time_composition() {
        // 2 ms search + 2 ms base + 50_000 * 0.06 us = 3 ms render.
        assert!((frame_time_ms(2.0, 50_000) - 7.0).abs() < 1e-9);
        assert_eq!(frame_time_ms(0.0, 0), 2.0);
    }

    #[test]
    fn more_polygons_cost_more() {
        assert!(frame_time_ms(1.0, 200_000) > frame_time_ms(1.0, 50_000));
    }
}
