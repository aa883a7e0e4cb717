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

use crate::search::{Query, QueryResult, ResultKey, CPU_PER_NODE_US};
use crate::shared::{SessionCtx, SharedEnvironment, SharedStorage, Step};
use crate::SearchStats;
use hdov_geom::{Aabb, Frustum};
use hdov_storage::Result;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
    /// Visit a node (Fig. 3 lines 1–10).
    Node(u32),
    /// Fetch an answer entry at blend factor `k` (Eq. 5/6).
    Lod { key: ResultKey, k: f64, dov: f32 },
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

/// Best-first variant of the Fig. 3 search for query `q`, charged to
/// `ctx`'s cursors. `frustum` drives the prioritization (its `eye` is the
/// distance reference).
///
/// The per-entry decision and the LoD step are the depth-first walk's, so
/// entries resident in `q.resident` are returned `cached` and cost no model
/// I/O — a walkthrough's per-frame budget is spent on *new* content. When
/// `q.budget`'s simulated cap (I/O plus per-node CPU, checked before each
/// work item) runs out, the entries loaded so far are returned with
/// `completed = false`.
///
/// Run without a budget the answer set is identical to
/// [`SharedEnvironment::search`] (entry order differs). Fails with
/// [`StorageError::InvalidPlan`](hdov_storage::StorageError) on a cell
/// outside the grid or a negative or NaN η.
pub fn search_prioritized(
    env: &SharedEnvironment,
    ctx: &mut SessionCtx,
    q: Query<'_>,
    frustum: &Frustum,
) -> Result<(PrioritizedOutcome, SearchStats)> {
    q.check(env)?;
    let mut storage = SharedStorage {
        env,
        ctx,
        prefetch: q.prefetch,
    };
    let meters = storage.begin();
    let io0 = storage.io_elapsed_us();
    storage.enter_cell(q.cell)?;

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
        if q.budget.is_limited() {
            let io = storage.io_elapsed_us() - io0;
            let spent_ms = (io + stats.nodes_visited as f64 * CPU_PER_NODE_US) / 1000.0;
            if spent_ms >= q.budget.sim_ms {
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
                for (entry, ve) in node.entries().zip(&vpage.entries) {
                    let work = match storage.step(&entry, ve, q.eta) {
                        Step::Prune => continue,
                        Step::Emit { key, k } => Work::Lod {
                            key,
                            k,
                            dov: ve.dov,
                        },
                        Step::Descend(child) => Work::Node(child),
                    };
                    push(&mut heap, &mut seq, &entry.mbr, work);
                }
            }
            Work::Lod { key, k, dov } => {
                out.push(storage.lod(key, k, dov, q.resident, false)?);
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
