//! Property tests: snapshot JSON round-trip, histogram bucket laws, and
//! recorder merge under concurrent writers.

use hdov_obs::{
    bucket_bounds, bucket_index, Counter, Hist, Histogram, HistogramSnapshot, MetricsSnapshot,
    Phase, Registry, BUCKET_COUNT,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A metric-name strategy: short ASCII keys, including the dotted and
/// suffixed shapes real snapshots use.
fn name_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..8, 1..4).prop_map(|parts| {
        let atoms = [
            "phase", "pool", "hits", "wall_ns", "spans", "eta0.002", "sim", "p99",
        ];
        parts
            .into_iter()
            .map(|i| atoms[i])
            .collect::<Vec<_>>()
            .join(".")
    })
}

fn snapshot_strategy() -> impl Strategy<Value = MetricsSnapshot> {
    (
        prop::collection::btree_map(name_strategy(), 0u64..u64::MAX, 0..6),
        prop::collection::btree_map(name_strategy(), -1e12f64..1e12, 0..6),
        prop::collection::vec(0u64..1 << 40, 0..64),
    )
        .prop_map(|(counters, gauges, samples)| {
            let mut s = MetricsSnapshot::new("prop");
            s.counters = counters;
            for (k, v) in gauges {
                s.set_gauge(k, v);
            }
            if !samples.is_empty() {
                let h = Histogram::new();
                for v in &samples {
                    h.observe(*v);
                }
                s.set_histogram("sim_search_us", h.snapshot());
            }
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_json_round_trip(snap in snapshot_strategy()) {
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("parse own output");
        prop_assert_eq!(&back, &snap);
        // Serialization is a fixed point: re-emitting is byte-identical,
        // which is what lets CI diff snapshot files directly.
        prop_assert_eq!(back.to_json(), json);
    }

    #[test]
    fn bucket_index_matches_bounds(v in 0u64..u64::MAX) {
        let i = bucket_index(v);
        prop_assert!(i < BUCKET_COUNT);
        let (lo, hi) = bucket_bounds(i);
        prop_assert!(lo <= v && v <= hi, "{v} outside bucket {i} [{lo}, {hi}]");
        // Buckets tile the range: the next bucket starts right after hi.
        if i + 1 < BUCKET_COUNT {
            prop_assert_eq!(bucket_bounds(i + 1).0, hi + 1);
        }
    }

    #[test]
    fn histogram_totals_match_inputs(samples in prop::collection::vec(0u64..1 << 48, 1..200)) {
        let h = Histogram::new();
        for &v in &samples {
            h.observe(v);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count, samples.len() as u64);
        prop_assert_eq!(s.sum, samples.iter().sum::<u64>());
        prop_assert_eq!(s.min, *samples.iter().min().unwrap());
        prop_assert_eq!(s.max, *samples.iter().max().unwrap());
        prop_assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), s.count);
        // Quantiles are monotone and end at the observed max.
        prop_assert!(s.quantile(0.5) <= s.quantile(0.99));
        prop_assert_eq!(s.quantile(1.0), s.max);
    }

    #[test]
    fn merge_is_order_independent(
        a in prop::collection::vec(0u64..1 << 32, 0..64),
        b in prop::collection::vec(0u64..1 << 32, 0..64),
    ) {
        let snap = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.observe(v);
            }
            h.snapshot()
        };
        let (ha, hb) = (snap(&a), snap(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        // Merging equals observing the concatenation.
        let mut all = a.clone();
        all.extend(&b);
        prop_assert_eq!(ab, snap(&all));
    }

    #[test]
    fn concurrent_recorders_lose_nothing(
        per_thread in prop::collection::vec(1u64..500, 1..6),
    ) {
        let reg = Arc::new(Registry::new());
        reg.set_enabled(true);
        std::thread::scope(|s| {
            for &n in &per_thread {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    let rec = reg.recorder();
                    for i in 0..n {
                        rec.add(Counter::PoolMisses, 1);
                        rec.record_span(Phase::LodFetch, 3);
                        rec.observe(Hist::SimFrameTimeNs, i);
                    }
                });
            }
        });
        let total: u64 = per_thread.iter().sum();
        let s = reg.snapshot("prop-concurrent");
        prop_assert_eq!(s.counters["pool_misses"], total);
        prop_assert_eq!(s.counters["phase.lod_fetch.spans"], total);
        prop_assert_eq!(s.counters["phase.lod_fetch.wall_ns"], 3 * total);
        let h = &s.histograms["sim_frame_time_ns"];
        prop_assert_eq!(h.count, total);
        prop_assert_eq!(h.max, per_thread.iter().max().unwrap() - 1);
    }
}

#[test]
fn merged_snapshot_survives_json() {
    // End-to-end: concurrent recording -> merge -> JSON -> parse -> equal.
    let reg = Registry::new();
    reg.set_enabled(true);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let reg = &reg;
            s.spawn(move || {
                let rec = reg.recorder();
                for i in 0..100 {
                    rec.add(Counter::Queries, 1);
                    rec.observe(Hist::SimSearchUs, t * 1000 + i);
                }
            });
        }
    });
    let snap = reg.snapshot("e2e");
    let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(back, snap);
    assert_eq!(back.counters["queries"], 400);
    assert_eq!(back.histograms["sim_search_us"].count, 400);
    let _ = HistogramSnapshot::default();
}
