//! Benchmark-side spans.
//!
//! The benchmark wraps every call it makes into the engine (and every
//! set-up stage) in a span: name, start, end, parent and, for per-frame
//! calls, a frame id. Spans stay in memory and are written out once, at the
//! end of a traced run. Only the first [`KEEP_FRAMES`] frames keep their
//! individual spans; every later call is folded into per-name totals, so a
//! long run's trace stays small.

use hdov_obs::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Frames whose call spans are kept individually.
pub const KEEP_FRAMES: u64 = 10_000;

/// One recorded span; times are nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub frame: Option<u64>,
}

/// Span ids and frame ids, shared by every thread of one run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    frames: AtomicU64,
}

/// One thread's spans plus per-name `(calls, total ns)` totals.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    pub totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            next_id: AtomicU64::new(0),
            frames: AtomicU64::new(0),
        }
    }

    /// A fresh span id (allocate a parent's id before its children run).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records span `id` covering `[start, end]`.
    pub fn span(
        &self,
        log: &mut SpanLog,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
    ) {
        log.fold(name, start, end);
        log.spans.push(Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            frame: None,
        });
    }

    /// Records one per-frame call: kept verbatim for the first
    /// [`KEEP_FRAMES`] frames of the run, counted in the totals always.
    pub fn frame(
        &self,
        log: &mut SpanLog,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
    ) {
        log.fold(name, start, end);
        let frame = self.frames.fetch_add(1, Ordering::Relaxed);
        if frame < KEEP_FRAMES {
            log.spans.push(Span {
                id: self.id(),
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent,
                frame: Some(frame),
            });
        }
    }
}

impl SpanLog {
    fn fold(&mut self, name: &'static str, start: Instant, end: Instant) {
        let ns = u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        let t = self.totals.entry(name).or_default();
        t.0 += 1;
        t.1 = t.1.saturating_add(ns);
    }

    /// Appends another thread's log.
    pub fn merge(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
        for (name, (calls, ns)) in other.totals {
            let t = self.totals.entry(name).or_default();
            t.0 += calls;
            t.1 = t.1.saturating_add(ns);
        }
    }

    /// Spans (sorted by start) and totals as JSON.
    pub fn to_json(&self) -> Value {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let int = |v: u64| Value::Int(i128::from(v));
        let spans = spans
            .into_iter()
            .map(|s| {
                let mut o = BTreeMap::new();
                o.insert("id".to_string(), int(s.id));
                o.insert("name".to_string(), Value::Str(s.name.to_string()));
                o.insert("start_ns".to_string(), int(s.start_ns));
                o.insert("end_ns".to_string(), int(s.end_ns));
                o.insert("parent".to_string(), s.parent.map_or(Value::Null, int));
                o.insert("frame".to_string(), s.frame.map_or(Value::Null, int));
                Value::Obj(o)
            })
            .collect();
        let totals = self
            .totals
            .iter()
            .map(|(name, &(calls, ns))| {
                let mut o = BTreeMap::new();
                o.insert("calls".to_string(), int(calls));
                o.insert("total_ns".to_string(), int(ns));
                (name.to_string(), Value::Obj(o))
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("spans".to_string(), Value::Arr(spans));
        root.insert("totals".to_string(), Value::Obj(totals));
        Value::Obj(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn frames_past_the_cap_fold_into_totals_only() {
        let origin = Instant::now();
        let t = Tracer::new(origin);
        let mut log = SpanLog::default();
        let end = origin + Duration::from_nanos(500);
        for _ in 0..KEEP_FRAMES + 5 {
            t.frame(&mut log, "query", origin, end, None);
        }
        assert_eq!(log.spans.len() as u64, KEEP_FRAMES);
        assert_eq!(
            log.totals["query"],
            (KEEP_FRAMES + 5, 500 * (KEEP_FRAMES + 5))
        );

        let parent = t.id();
        let mut other = SpanLog::default();
        t.span(&mut other, parent, "session", origin, end, None);
        log.merge(other);
        assert_eq!(log.totals["session"], (1, 500));
        assert!(log
            .spans
            .iter()
            .any(|s| s.id == parent && s.frame.is_none()));
    }
}
