//! Frustum-prioritized traversal — the paper's third claimed advantage and
//! stated future work (§3.2, §6).
//!
//! "The spatial structure being used facilitates the design of a traversal
//! algorithm that prioritizes the nodes to be searched. In other words,
//! regions that are closer to the current view frustum can be traversed
//! first, while regions that are outside the view frustum can be delayed.
//! This can further improve the response time significantly."
//!
//! [`search_prioritized`] replaces Fig. 3's depth-first recursion with a
//! best-first queue ordered by *(inside frustum, distance to eye)*. Semantics
//! are unchanged — run to completion and the answer set equals the plain
//! search — but content in front of the viewer is fetched first, so a
//! *budgeted* query (a frame deadline) captures far more of the visually
//! important mass before the deadline than blind truncation would.

use crate::search::{select_level, QueryResult, ResultEntry, ResultKey, CPU_PER_NODE_US};
use crate::shared::{SessionCtx, SharedEnvironment, SharedStorage};
use crate::SearchStats;
use hdov_geom::solid_angle::MAX_DOV;
use hdov_geom::{Aabb, Frustum};
use hdov_storage::Result;
use hdov_visibility::CellId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// Loading priority of a work item: in-frustum content strictly before
/// out-of-frustum content, nearer before farther within each class.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Priority {
    in_frustum: bool,
    neg_distance: f64, // max-heap: larger = higher priority
}

impl Priority {
    fn of(mbr: &Aabb, frustum: &Frustum) -> Priority {
        Priority {
            in_frustum: frustum.intersects_aabb(mbr),
            neg_distance: -mbr.distance_to_point(frustum.eye),
        }
    }
}

impl Eq for Priority {}
impl PartialOrd for Priority {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Priority {
    fn cmp(&self, other: &Self) -> Ordering {
        self.in_frustum.cmp(&other.in_frustum).then_with(|| {
            self.neg_distance
                .partial_cmp(&other.neg_distance)
                .unwrap_or(Ordering::Equal)
        })
    }
}

enum Work {
    Node(u32),
    Object { id: u64, dov: f32 },
    Internal { ordinal: u32, dov: f32 },
}

struct Item {
    priority: Priority,
    seq: u64, // FIFO tie-break keeps identical-priority order deterministic
    work: Work,
}

impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Item {}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Item {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Outcome of a prioritized (possibly budgeted) query.
#[derive(Debug, Clone)]
pub struct PrioritizedOutcome {
    /// Entries in *load order* (highest priority first).
    pub result: QueryResult,
    /// True when the traversal ran to completion; false when the time budget
    /// expired with work remaining.
    pub completed: bool,
    /// Simulated time spent when the traversal stopped (ms).
    pub spent_ms: f64,
}

/// Best-first variant of the Fig. 3 search, charged to `ctx`'s cursors.
///
/// * `frustum` — the camera volume driving prioritization (its `eye` is the
///   distance reference).
/// * `budget_ms` — optional simulated-time deadline; when it expires,
///   already-loaded entries are returned with `completed = false`.
///
/// Run without a budget the answer set is identical to
/// [`search_shared`](crate::shared::search_shared) (entry order differs).
pub fn search_prioritized(
    env: &SharedEnvironment,
    ctx: &mut SessionCtx,
    cell: CellId,
    eta: f64,
    frustum: &Frustum,
    budget_ms: Option<f64>,
) -> Result<(PrioritizedOutcome, SearchStats)> {
    search_prioritized_delta(env, ctx, cell, eta, frustum, budget_ms, None)
}

/// [`search_prioritized`] with a delta-search skip map (resident key →
/// resident LoD level): matching entries are returned `cached` and cost no
/// model I/O, so a walkthrough's per-frame budget is spent on *new* content.
pub fn search_prioritized_delta(
    env: &SharedEnvironment,
    ctx: &mut SessionCtx,
    cell: CellId,
    eta: f64,
    frustum: &Frustum,
    budget_ms: Option<f64>,
    skip: Option<&HashMap<ResultKey, usize>>,
) -> Result<(PrioritizedOutcome, SearchStats)> {
    assert!(eta >= 0.0, "eta must be non-negative");
    let mut storage = SharedStorage {
        env,
        ctx,
        prefetch: false,
    };
    let meters = storage.begin();
    let io0 = storage.io_elapsed_us();
    storage.enter_cell(cell)?;

    let mut stats = SearchStats::default();
    let mut out = QueryResult::default();
    let mut heap: BinaryHeap<Item> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Item>, seq: &mut u64, mbr: &Aabb, work: Work| {
        heap.push(Item {
            priority: Priority::of(mbr, frustum),
            seq: *seq,
            work,
        });
        *seq += 1;
    };

    // Seed with the root.
    let root_mbr = Aabb::new(frustum.eye, frustum.eye); // highest priority
    push(
        &mut heap,
        &mut seq,
        &root_mbr,
        Work::Node(env.tree().root_ordinal()),
    );

    let mut completed = true;
    while let Some(item) = heap.pop() {
        if let Some(budget) = budget_ms {
            let io = storage.io_elapsed_us() - io0;
            let spent_ms = (io + stats.nodes_visited as f64 * CPU_PER_NODE_US) / 1000.0;
            if spent_ms >= budget {
                completed = false;
                break;
            }
        }
        match item.work {
            Work::Node(ordinal) => {
                let Some(vpage) = storage.vpage(ordinal)? else {
                    continue;
                };
                stats.vpages_fetched += 1;
                if !vpage.any_visible() {
                    continue;
                }
                let node = storage.node(ordinal)?;
                stats.nodes_visited += 1;
                for (entry, ve) in node.entries.iter().zip(&vpage.entries) {
                    if ve.dov <= 0.0 {
                        continue;
                    }
                    let work = if entry.is_object() {
                        Work::Object {
                            id: entry.child,
                            dov: ve.dov,
                        }
                    } else if (ve.dov as f64) <= eta && storage.terminates(entry, ve) {
                        Work::Internal {
                            ordinal: entry.child_ordinal,
                            dov: ve.dov,
                        }
                    } else {
                        Work::Node(entry.child_ordinal)
                    };
                    push(&mut heap, &mut seq, &entry.mbr, work);
                }
            }
            Work::Object { id, dov } => {
                let k = (dov as f64 / MAX_DOV).min(1.0);
                let level = select_level(storage.object_store(), id, k);
                let key = ResultKey::Object(id);
                let cached = skip.and_then(|s| s.get(&key)).is_some_and(|&l| l == level);
                let h = if cached {
                    storage.object_store().handle(id, level)
                } else {
                    storage.fetch_object(id, level)?
                };
                out.push_for_test(ResultEntry {
                    key,
                    level,
                    polygons: h.polygons as u64,
                    bytes: h.bytes as u64,
                    dov,
                    cached,
                });
            }
            Work::Internal { ordinal, dov } => {
                let k = if eta > 0.0 {
                    (dov as f64 / eta).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let level = select_level(storage.internal_store(), ordinal as u64, k);
                let key = ResultKey::Internal(ordinal);
                let cached = skip.and_then(|s| s.get(&key)).is_some_and(|&l| l == level);
                let h = if cached {
                    storage.internal_store().handle(ordinal as u64, level)
                } else {
                    storage.fetch_internal(ordinal, level)?
                };
                out.push_for_test(ResultEntry {
                    key,
                    level,
                    polygons: h.polygons as u64,
                    bytes: h.bytes as u64,
                    dov,
                    cached,
                });
            }
        }
    }

    storage.finish(&meters, &mut stats);
    let spent_ms = stats.search_time_ms();
    Ok((
        PrioritizedOutcome {
            result: out,
            completed,
            spent_ms,
        },
        stats,
    ))
}
