//! The one depth-first traversal of the HDoV-tree visibility query (paper
//! Fig. 3).
//!
//! ```text
//! Algorithm Search(Node)
//! 1. for each entry E in Node
//! 3.   if E.DoV = 0          -> prune the branch
//! 4.   if E is leaf          -> add E.ptr->LoD_leaf      (Eq. 6)
//! 7.   else if E.DoV <= eta and h(1 + log_M s) < log_M(E.NVO)
//! 8.                         -> add E.ptr->LoD_internal  (Eq. 5)
//! 10.  else                  -> Search(E.ptr)
//! ```
//!
//! Every depth-first query runs this one walk over a frozen
//! [`SharedEnvironment`](crate::SharedEnvironment), read and charged
//! through one session's [`SessionCtx`](crate::SessionCtx) — the
//! single-user [`HdovEnvironment`](crate::HdovEnvironment) is just such a
//! session — as one [`Query`] describes it. What differs between callers is
//! an [`Emit`] sink, fixed at compile time: it says where answers go and
//! which of them to keep — a [`QueryResult`](crate::QueryResult) keeps
//! everything, a shard frame keeps only what its shard owns and tags each
//! entry with its [`PathKey`](crate::PathKey). The per-entry decision
//! (lines 3–10) and the Eq. 5/6 LoD step are the storage adapter's, shared
//! with the best-first search and the naïve baseline.
//!
//! Around the walk sit the behaviours every caller shares: the
//! [`QueryBudget`](crate::QueryBudget) check before each descent (DESIGN.md
//! §12), graceful degradation of unreadable subtrees to their internal LoD
//! (§11), the last-resort root fallback, and the per-query `hdov-obs`
//! report.

use crate::budget::BudgetClock;
use crate::delta::DeltaSearch;
use crate::search::{DegradeCause, DegradeEvent, Query, ResultEntry, ResultKey, SearchStats};
use crate::shared::{SessionCtx, SharedEnvironment, SharedStorage, SharedTree, Step};
use crate::vpage::{VEntry, VPage};
use hdov_obs::{Counter, Hist, Phase};
use hdov_storage::Result;
use hdov_visibility::CellId;

/// The `error` string recorded on a [`DegradeCause::BudgetExhausted`] event
/// (kept non-empty so every event explains itself, like absorbed errors do).
const BUDGET_EXHAUSTED_DETAIL: &str = "query budget exhausted before descent";

/// The root ordinal (nodes are numbered in DFS preorder).
const ROOT: u32 = 0;

/// Where the walk's answers go, and which positions this sink keeps (by
/// default: every one).
pub(crate) trait Emit {
    /// A tree position, as far as the sink needs one for ordering; the
    /// default value is the root.
    type Path: Copy + Default;

    /// The position of entry `index` of the node at `parent`.
    fn child(&self, parent: Self::Path, index: usize) -> Self::Path;
    /// Keep the answer entry for `key` (and fetch its model) — an object,
    /// or an η-terminated subtree's internal LoD?
    fn emits(&self, _key: ResultKey) -> bool {
        true
    }
    /// Descend into the subtree rooted at `ordinal`?
    fn descends(&self, _ordinal: u32) -> bool {
        true
    }
    /// Objects the last-resort root fallback stands in for.
    fn root_objects(&self, tree: &SharedTree) -> u64 {
        tree.object_count()
    }
    /// Appends an entry at `at`.
    fn push(&mut self, at: Self::Path, entry: ResultEntry);
    /// Appends a degrade event at `at`.
    fn degrade(&mut self, at: Self::Path, event: DegradeEvent);
    /// Snapshot of `(entries, degrade events)` lengths, for
    /// [`rollback`](Self::rollback) when a descent fails mid-subtree.
    fn mark(&self) -> (usize, usize);
    /// Drops everything pushed since `mark` — a failed subtree's partial
    /// entries (and any fallbacks it recorded before dying) are superseded
    /// by the single ancestor fallback that absorbs the propagated error.
    fn rollback(&mut self, mark: (usize, usize));
    /// Drops everything.
    fn clear(&mut self);
    /// The degrade events recorded so far.
    fn events(&self) -> impl Iterator<Item = &DegradeEvent>;
}

/// Runs query `q` from the root, charged to `ctx`: flips into the cell,
/// walks, falls back to the root's internal LoD if even the root is
/// unreadable, and reports the query to `hdov-obs`. Returns this query's
/// cost breakdown; an invalid `q` is rejected before anything is charged.
///
/// Under an exhausted budget the walk stops descending and serves every
/// remaining subtree as its internal LoD; an unlimited budget costs one
/// branch per descent and touches no clock or meter.
pub(crate) fn run<E: Emit>(
    env: &SharedEnvironment,
    ctx: &mut SessionCtx,
    sink: &mut E,
    q: Query<'_>,
) -> Result<SearchStats> {
    q.check(env)?;
    let mut storage = SharedStorage::new(env, ctx, q.prefetch);
    let meters = storage.begin();
    let bclock = BudgetClock::start(q.budget, storage.io_elapsed_us());
    sink.clear();
    let mut walk = Walk {
        storage: &mut storage,
        sink,
        eta: q.eta,
        resident: q.resident,
        bclock,
        stats: SearchStats::default(),
    };
    if let Err(e) = walk.enter_and_walk(q.cell) {
        // Even the root's own reads failed (or the segment flip did): the
        // last resort of graceful degradation serves the whole scene as the
        // root's internal LoD. Only an unreadable root LoD fails the query.
        walk.sink.clear();
        let coarse = walk.sink.root_objects(&walk.storage.env.tree);
        let cause = DegradeCause::ReadError;
        walk.degrade(ROOT, E::Path::default(), 0.0, coarse, cause, e.to_string())?;
    }
    let mut stats = walk.stats;
    storage.finish(&meters, &mut stats);
    record_query_obs(&stats, sink.events());
    Ok(stats)
}

/// One query's walk state.
struct Walk<'a, 's, E> {
    storage: &'a mut SharedStorage<'s>,
    sink: &'a mut E,
    eta: f64,
    resident: Option<&'a DeltaSearch>,
    bclock: BudgetClock,
    stats: SearchStats,
}

impl<E: Emit> Walk<'_, '_, E> {
    fn enter_and_walk(&mut self, cell: CellId) -> Result<()> {
        self.storage.enter_cell(cell)?;
        let _traversal = hdov_obs::span(Phase::Traversal);
        self.visit(ROOT, E::Path::default())
    }

    /// Fig. 3 lines 1–10 for node `ordinal` at position `path`.
    fn visit(&mut self, ordinal: u32, path: E::Path) -> Result<()> {
        let Some(vpage) = ({
            let _vp = hdov_obs::span(Phase::VPageRead);
            self.storage.vpage(ordinal)?
        }) else {
            return Ok(()); // invisible (vertical/indexed prove it for free)
        };
        let vpage: &VPage = &vpage;
        self.stats.vpages_fetched += 1;
        if !vpage.any_visible() {
            return Ok(()); // horizontal placeholder for a hidden node
        }
        let node = {
            let _nr = hdov_obs::span(Phase::NodeRead);
            self.storage.node(ordinal)?
        };
        self.stats.nodes_visited += 1;

        for (i, (entry, ve)) in node.entries().zip(&vpage.entries).enumerate() {
            match self.storage.step(&entry, ve, self.eta) {
                Step::Emit { key, k } if self.sink.emits(key) => {
                    let e = self.storage.lod(key, k, ve.dov, self.resident, true)?;
                    let at = self.sink.child(path, i);
                    self.sink.push(at, e);
                }
                Step::Descend(child) if self.sink.descends(child) => {
                    let at = self.sink.child(path, i);
                    self.descend(child, at, ve)?;
                }
                Step::Prune | Step::Emit { .. } | Step::Descend(_) => {}
            }
        }
        Ok(())
    }

    /// Line 10: descends into `child` at `at` (its V-entry is `ve`) — or,
    /// once the budget is spent or the subtree proves unreadable, serves
    /// the child's internal LoD instead.
    fn descend(&mut self, child: u32, at: E::Path, ve: &VEntry) -> Result<()> {
        // Budget check, charged nothing itself: once the query's spend
        // reaches its cap, every remaining subtree is served as its
        // internal LoD instead of being descended (DESIGN.md §12). The
        // unlimited path is one branch — no meter reads, no clock.
        let spent = self.bclock.is_limited()
            && self.bclock.exhausted(
                self.storage.io_elapsed_us(),
                self.stats.nodes_visited,
                self.stats.vpages_fetched,
            );
        let fallback = if spent {
            let detail = BUDGET_EXHAUSTED_DETAIL.to_string();
            Some((DegradeCause::BudgetExhausted, detail))
        } else {
            // Absorb read failures beneath this entry by dropping the
            // subtree's partial answer and serving the child's internal LoD
            // instead.
            let mark = self.sink.mark();
            let descent = self.visit(child, at);
            descent.err().map(|e| {
                self.sink.rollback(mark);
                (DegradeCause::ReadError, e.to_string())
            })
        };
        match fallback {
            Some((cause, detail)) => self.degrade(child, at, ve.dov, ve.nvo as u64, cause, detail),
            None => Ok(()),
        }
    }

    /// Serves node `ordinal`'s finest internal LoD at `at` in place of its
    /// untraversed subtree and records the degrade `cause` (graceful
    /// degradation, DESIGN.md §11; budget stops, §12). Propagates the fetch
    /// error when even the internal LoD cannot be read — the caller's
    /// ancestor then degrades in turn, so the answer falls back to the
    /// *deepest readable ancestor*.
    fn degrade(
        &mut self,
        ordinal: u32,
        at: E::Path,
        dov: f32,
        objects_coarse: u64,
        cause: DegradeCause,
        error: String,
    ) -> Result<()> {
        let key = ResultKey::Internal(ordinal);
        let e = self.storage.lod(key, 1.0, dov, self.resident, true)?;
        self.sink.push(at, e);
        let event = DegradeEvent {
            ordinal,
            objects_coarse,
            cause,
            error,
        };
        self.sink.degrade(at, event);
        Ok(())
    }
}

/// Reports one finished query (or shard sub-query) to `hdov-obs`: event
/// counters plus the *simulated* latency histogram (deterministic — safe
/// for the CI gate). A no-op when recording is disabled.
fn record_query_obs<'a>(stats: &SearchStats, events: impl Iterator<Item = &'a DegradeEvent>) {
    if !hdov_obs::is_enabled() {
        return;
    }
    hdov_obs::add(Counter::Queries, 1);
    hdov_obs::add(Counter::NodesVisited, stats.nodes_visited);
    hdov_obs::add(Counter::VPagesFetched, stats.vpages_fetched);
    hdov_obs::observe(Hist::SimSearchUs, (stats.search_time_ms() * 1000.0) as u64);
    let (mut errors, mut stops) = (0, 0);
    for e in events {
        match e.cause {
            DegradeCause::ReadError => errors += 1,
            DegradeCause::BudgetExhausted => stops += 1,
            DegradeCause::ShardUnavailable => {}
        }
    }
    if errors > 0 {
        hdov_obs::add(Counter::DegradedQueries, 1);
        hdov_obs::add(Counter::LodFallbacks, errors);
    }
    if stops > 0 {
        hdov_obs::add(Counter::BudgetStops, stops);
    }
}
