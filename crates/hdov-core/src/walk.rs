//! The one traversal of the HDoV-tree visibility query (paper Fig. 3).
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
//! Every query engine runs this one walk. What differs between them is
//! fixed at compile time by two type parameters:
//!
//! * a [`Storage`] adapter says how pages are reached and charged — the
//!   sequential `(HdovTree, VisibilityStore, ObjectModels)` triple, or a
//!   frozen [`SharedEnvironment`](crate::SharedEnvironment) read through a
//!   per-session [`SessionCtx`](crate::SessionCtx);
//! * an [`Emit`] sink says where answers go and which of them to keep — a
//!   [`QueryResult`] keeps everything, a shard frame keeps only what its
//!   shard owns and tags each entry with its [`PathKey`](crate::PathKey).
//!
//! Around the walk sit the behaviours every engine shares: the
//! [`QueryBudget`] check before each descent (DESIGN.md §12), graceful
//! degradation of unreadable subtrees to their internal LoD (§11), the
//! last-resort root fallback, and the per-query `hdov-obs` report.

use crate::budget::{BudgetClock, QueryBudget};
use crate::node::{HdovEntry, HdovNode};
use crate::search::{
    select_level, DegradeCause, DegradeEvent, ResultEntry, ResultKey, SearchStats,
};
use crate::vpage::{VEntry, VPage};
use hdov_geom::solid_angle::MAX_DOV;
use hdov_obs::{Counter, Hist, Phase};
use hdov_scene::{ModelHandle, ModelStore};
use hdov_storage::Result;
use hdov_visibility::CellId;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

/// Resident keys and their LoD levels (the walkthrough delta, §5.4).
pub(crate) type Skip<'a> = Option<&'a HashMap<ResultKey, usize>>;

/// The `error` string recorded on a [`DegradeCause::BudgetExhausted`] event
/// (kept non-empty so every event explains itself, like absorbed errors do).
const BUDGET_EXHAUSTED_DETAIL: &str = "query budget exhausted before descent";

/// The root ordinal (nodes are numbered in DFS preorder).
const ROOT: u32 = 0;

/// How the walk reaches the tree's pages, and what they cost. Each
/// implementation keeps its engine's own charging rules.
pub(crate) trait Storage {
    /// A fetched V-page (owned, or shared from a pooled frame).
    type VPage: Borrow<VPage>;
    /// A snapshot of the I/O meters at query start.
    type Meters;

    /// Snapshots the meters a query will be charged against.
    fn begin(&mut self) -> Self::Meters;
    /// Cumulative simulated I/O charged to the meters, for the budget clock.
    /// Pure accessor reads: it charges nothing.
    fn io_elapsed_us(&self) -> f64;
    /// The segment flip into `cell` (plus any batched V-page prefetch).
    fn enter_cell(&mut self, cell: CellId) -> Result<()>;
    /// The V-page of `ordinal` in the current cell; `None` when the scheme
    /// proves the node invisible for free.
    fn vpage(&mut self, ordinal: u32) -> Result<Option<Self::VPage>>;
    /// Node `ordinal`.
    fn node(&mut self, ordinal: u32) -> Result<Arc<HdovNode>>;
    /// The object-model directory.
    fn object_store(&self) -> &ModelStore;
    /// The internal-LoD directory (key = node ordinal).
    fn internal_store(&self) -> &ModelStore;
    /// Charges the page reads of object `id` at `level`.
    fn fetch_object(&mut self, id: u64, level: usize) -> Result<ModelHandle>;
    /// Charges the page reads of node `ordinal`'s internal LoD at `level`.
    fn fetch_internal(&mut self, ordinal: u32, level: usize) -> Result<ModelHandle>;
    /// The second condition of Fig. 3 line 7.
    fn terminates(&self, entry: &HdovEntry, ve: &VEntry) -> bool;
    /// Objects indexed by the tree (the root fallback's coverage).
    fn object_count(&self) -> u64;
    /// This query's I/O since `start`, into `stats`.
    fn finish(&self, start: &Self::Meters, stats: &mut SearchStats);
}

/// Where the walk's answers go, and which positions this sink keeps (by
/// default: every one).
pub(crate) trait Emit {
    /// A tree position, as far as the sink needs one for ordering; the
    /// default value is the root.
    type Path: Copy + Default;

    /// The position of entry `index` of the node at `parent`.
    fn child(&self, parent: Self::Path, index: usize) -> Self::Path;
    /// Keep object `id` (and fetch its model)?
    fn emits_object(&self, _id: u64) -> bool {
        true
    }
    /// Keep the η-terminated subtree rooted at `ordinal`?
    fn emits_subtree(&self, _ordinal: u32) -> bool {
        true
    }
    /// Descend into the subtree rooted at `ordinal`?
    fn descends(&self, _ordinal: u32) -> bool {
        true
    }
    /// Objects the last-resort root fallback stands in for.
    fn root_objects(&self, storage: &impl Storage) -> u64 {
        storage.object_count()
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

/// Runs one Fig. 3 query from the root: flips into `cell`, walks, falls
/// back to the root's internal LoD if even the root is unreadable, and
/// reports the query to `hdov-obs`. Returns this query's cost breakdown.
///
/// Under an exhausted [`QueryBudget`] the walk stops descending and serves
/// every remaining subtree as its internal LoD; an unlimited budget costs
/// one branch per descent and touches no clock or meter.
pub(crate) fn run<S: Storage, E: Emit>(
    storage: &mut S,
    sink: &mut E,
    cell: CellId,
    eta: f64,
    skip: Skip<'_>,
    budget: QueryBudget,
) -> Result<SearchStats> {
    assert!(eta >= 0.0, "eta must be non-negative");
    let meters = storage.begin();
    let bclock = BudgetClock::start(budget, storage.io_elapsed_us());
    sink.clear();
    let mut walk = Walk {
        storage,
        sink,
        eta,
        skip,
        bclock,
        stats: SearchStats::default(),
    };
    if let Err(e) = walk.enter_and_walk(cell) {
        // Even the root's own reads failed (or the segment flip did): the
        // last resort of graceful degradation serves the whole scene as the
        // root's internal LoD. Only an unreadable root LoD fails the query.
        walk.sink.clear();
        let coarse = walk.sink.root_objects(&*walk.storage);
        let cause = DegradeCause::ReadError;
        walk.degrade(ROOT, E::Path::default(), 0.0, coarse, cause, e.to_string())?;
    }
    let mut stats = walk.stats;
    storage.finish(&meters, &mut stats);
    record_query_obs(&stats, sink.events());
    Ok(stats)
}

/// One query's walk state.
struct Walk<'a, S, E> {
    storage: &'a mut S,
    sink: &'a mut E,
    eta: f64,
    skip: Skip<'a>,
    bclock: BudgetClock,
    stats: SearchStats,
}

impl<S: Storage, E: Emit> Walk<'_, S, E> {
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
        let vpage: &VPage = vpage.borrow();
        self.stats.vpages_fetched += 1;
        if !vpage.any_visible() {
            return Ok(()); // horizontal placeholder for a hidden node
        }
        let node = {
            let _nr = hdov_obs::span(Phase::NodeRead);
            self.storage.node(ordinal)?
        };
        self.stats.nodes_visited += 1;

        for (i, (entry, ve)) in node.entries.iter().zip(&vpage.entries).enumerate() {
            if ve.dov <= 0.0 {
                continue; // line 3: completely hidden branch
            }
            let at = self.sink.child(path, i);
            if entry.is_object() {
                // Lines 4–5: leaf entry, Eq. 6.
                if !self.sink.emits_object(entry.child) {
                    continue;
                }
                let k = (ve.dov as f64 / MAX_DOV).min(1.0);
                let e = self.lod(ResultKey::Object(entry.child), k, ve.dov)?;
                self.sink.push(at, e);
            } else if (ve.dov as f64) <= self.eta && self.storage.terminates(entry, ve) {
                // Lines 7–8: barely visible subtree, Eq. 5.
                if !self.sink.emits_subtree(entry.child_ordinal) {
                    continue;
                }
                let k = if self.eta > 0.0 {
                    (ve.dov as f64 / self.eta).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let e = self.lod(ResultKey::Internal(entry.child_ordinal), k, ve.dov)?;
                self.sink.push(at, e);
            } else if self.sink.descends(entry.child_ordinal) {
                let child = entry.child_ordinal;
                // Budget check, charged nothing itself: once the query's
                // spend reaches its cap, every remaining subtree is served
                // as its internal LoD instead of being descended (DESIGN.md
                // §12). The unlimited path is one branch — no meter reads,
                // no clock.
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
                    // Line 10: descend — absorbing read failures beneath
                    // this entry by dropping the subtree's partial answer
                    // and serving the child's internal LoD instead.
                    let mark = self.sink.mark();
                    let descent = self.visit(child, at);
                    descent.err().map(|e| {
                        self.sink.rollback(mark);
                        (DegradeCause::ReadError, e.to_string())
                    })
                };
                if let Some((cause, detail)) = fallback {
                    self.degrade(child, at, ve.dov, ve.nvo as u64, cause, detail)?;
                }
            }
        }
        Ok(())
    }

    /// The entry for `key` at blend factor `k` (Eq. 5/6): model I/O is
    /// charged unless the delta `skip` map already holds that level.
    fn lod(&mut self, key: ResultKey, k: f64, dov: f32) -> Result<ResultEntry> {
        let (store, id) = match key {
            ResultKey::Object(id) => (self.storage.object_store(), id),
            ResultKey::Internal(ordinal) => (self.storage.internal_store(), ordinal as u64),
        };
        let level = select_level(store, id, k);
        let cached = self
            .skip
            .and_then(|s| s.get(&key))
            .is_some_and(|&l| l == level);
        let h = if cached {
            store.handle(id, level)
        } else {
            let _lf = hdov_obs::span(Phase::LodFetch);
            match key {
                ResultKey::Object(id) => self.storage.fetch_object(id, level)?,
                ResultKey::Internal(ordinal) => self.storage.fetch_internal(ordinal, level)?,
            }
        };
        Ok(ResultEntry {
            key,
            level,
            polygons: h.polygons as u64,
            bytes: h.bytes as u64,
            dov,
            cached,
        })
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
        let e = self.lod(ResultKey::Internal(ordinal), 1.0, dov)?;
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
