//! Fault-domain sharding: the data plane (DESIGN.md §17).
//!
//! A sharded deployment runs one engine per spatial tile — each a full
//! replica of the frozen environment with its own pools and fault plan —
//! and a router fans a visitor's query out to the shards that can
//! contribute, then merges the per-shard answers back into one frame. This
//! module provides the pieces that must agree with the traversal itself:
//!
//! * [`ShardPlan`] — a one-time walk of the frozen tree that assigns every
//!   object an owning shard, every node an owner and a *subtree shard
//!   mask*, precomputes each cell's fan-out mask, and each shard's coarse
//!   cover (the ready-made entries served when the shard is down).
//! * [`search_shard`] — the one Fig. 3 walk that
//!   [`SharedEnvironment::search`] runs, for the same [`Query`], with a
//!   shard frame as its emission filter: shard `S` skips subtrees whose
//!   mask lacks its bit and emits only the entries it owns, each tagged
//!   with a [`PathKey`].
//! * [`merge_frames`] — concatenates per-shard frames (in shard order) and
//!   sorts by path key, reconstructing the *exact* DFS emission order of
//!   the unsharded traversal. Fault-free, the merged frame is
//!   byte-identical to [`SharedEnvironment::search`]'s answer, independent
//!   of shard completion order (pinned by the `hdov-shard` crate's
//!   proptests).
//!
//! The key invariant: every emission position of the unsharded traversal —
//! an object entry, or an entry whose subtree η-terminates at an internal
//! LoD — is owned by exactly one shard, so fault-free the concatenation has
//! no duplicates and no gaps. Under faults a shard serves fallbacks for
//! subtrees it descended but does not wholly own, so degraded frames may
//! carry a coarse duplicate next to another shard's fine entries — coverage
//! is chosen over minimality, exactly like the budget-stop path.

use crate::search::{
    check, select_level, DegradeCause, DegradeEvent, Query, QueryResult, ResultEntry, ResultKey,
    SearchStats,
};
use crate::shared::{SessionCtx, SharedEnvironment, SharedTree};
use crate::walk::{self, Emit};
use hdov_storage::{IdHashMap, Result};
use hdov_visibility::CellId;
use std::collections::HashMap;

/// Hard cap on shards per plan: subtree masks are one `u64` per node.
pub const MAX_SHARDS: usize = 64;

/// Rejects a shard count outside `1..=`[`MAX_SHARDS`] with
/// [`StorageError::InvalidPlan`](hdov_storage::StorageError::InvalidPlan)
/// (call before building anything sized by it; [`ShardPlan::build`] checks
/// too).
pub fn check_shard_count(shards: usize) -> Result<()> {
    check((1..=MAX_SHARDS).contains(&shards), || {
        format!("shard count {shards} outside 1..={MAX_SHARDS}")
    })
}

/// A tree position encoded for deterministic merging: 8 bits per level
/// (child-entry index + 1), left-aligned, so plain numeric order over keys
/// is exactly the DFS preorder the unsharded traversal emits in. No emitted
/// key is ever a prefix-extension *and* equal — the zero padding of a
/// parent's key sorts it before every descendant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathKey(u128);

impl PathKey {
    /// The root position (also the default; only the last-resort root
    /// fallback emits at it).
    pub const ROOT: PathKey = PathKey(0);

    /// Maximum encodable depth (levels below the root).
    pub const MAX_DEPTH: usize = 16;

    /// Most entries one node may have (the radix of a level is 256, and
    /// 0 is the padding below a parent's key).
    pub const MAX_ENTRIES: usize = 254;

    /// The key of entry `index` of the node at this key, `depth` levels
    /// below the root. [`ShardPlan::build`] rejects trees these bounds
    /// cannot encode, so a walk over a planned tree never violates them.
    pub fn child(self, depth: usize, index: usize) -> PathKey {
        debug_assert!(depth < Self::MAX_DEPTH, "tree deeper than PathKey encodes");
        debug_assert!(
            index < Self::MAX_ENTRIES,
            "entry index exceeds PathKey radix"
        );
        PathKey(self.0 | ((index as u128 + 1) << (8 * (Self::MAX_DEPTH - 1 - depth))))
    }

    /// Checks that a node `depth` levels below the root with `entries`
    /// entries is encodable.
    fn check_encodable(depth: usize, entries: usize) -> Result<()> {
        let max_depth = Self::MAX_DEPTH;
        check(depth < max_depth, || {
            format!("tree deeper than the {max_depth} levels a PathKey encodes")
        })?;
        check(entries <= Self::MAX_ENTRIES, || {
            format!("node with {entries} entries exceeds the PathKey radix")
        })
    }

    /// The raw key (for tests and diagnostics).
    pub fn raw(self) -> u128 {
        self.0
    }
}

/// Mirror of one tree entry, kept in memory by the plan walk so the cover
/// pass never re-reads node pages.
#[derive(Debug, Clone, Copy)]
struct MirrorEntry {
    /// Object id for leaf entries, child ordinal for internal entries.
    id: u64,
    /// `u32::MAX` marks an object entry (same sentinel as `HdovEntry`).
    child_ordinal: u32,
}

impl MirrorEntry {
    fn is_object(&self) -> bool {
        self.child_ordinal == u32::MAX
    }
}

/// One shard's per-frame answer, keyed for deterministic merging.
#[derive(Debug, Default, Clone)]
pub struct ShardFrame {
    entries: Vec<(PathKey, ResultEntry)>,
    degrades: Vec<(PathKey, DegradeEvent)>,
    stats: SearchStats,
}

impl ShardFrame {
    /// An empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all content, retaining allocations.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.degrades.clear();
        self.stats = SearchStats::default();
    }

    /// The keyed result entries, in this shard's emission (DFS) order.
    pub fn entries(&self) -> &[(PathKey, ResultEntry)] {
        &self.entries
    }

    /// The keyed degrade events.
    pub fn degrades(&self) -> &[(PathKey, DegradeEvent)] {
        &self.degrades
    }

    /// The sub-query's cost breakdown (zeroed for synthetic cover frames).
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Test-only constructor hook (mirrors
    /// [`QueryResult::push_for_test`](crate::QueryResult::push_for_test)).
    #[doc(hidden)]
    pub fn push_for_test(&mut self, key: PathKey, e: ResultEntry) {
        self.entries.push((key, e));
    }
}

/// The ownership map of a sharded deployment: who owns each object and
/// node, which shards a subtree spans, which shards each cell fans out to,
/// and each shard's coarse cover. Built once per frozen environment and
/// shared by every router and session.
#[derive(Debug)]
pub struct ShardPlan {
    shards: usize,
    /// Looked up for every object entry of every shard sub-walk, so it is
    /// keyed through the store's [`IdHasher`](hdov_storage::IdHasher).
    object_owner: IdHashMap<u64, usize>,
    node_owner: Vec<u32>,
    node_mask: Vec<u64>,
    cell_masks: Vec<u64>,
    covers: Vec<Vec<(PathKey, ResultKey)>>,
    owned_objects: Vec<u64>,
}

impl ShardPlan {
    /// Walks the frozen tree once and builds the plan. `assign` maps an
    /// object id and its MBR-center to its owning shard (the tile map
    /// policy lives with the router).
    ///
    /// Fails with
    /// [`StorageError::InvalidPlan`](hdov_storage::StorageError::InvalidPlan)
    /// when `shards` is outside `1..=`[`MAX_SHARDS`], when `assign` returns
    /// a shard `>= shards`, or when the tree is too deep or a node too wide
    /// for [`PathKey`] — so queries over a built plan cannot hit those
    /// limits.
    ///
    /// The walk reads every node page through a scratch session, so it
    /// warms the environment's node pool as a side effect — build the plan
    /// before forking per-shard engines so their pools start cold.
    pub fn build(
        env: &SharedEnvironment,
        shards: usize,
        mut assign: impl FnMut(u64, hdov_geom::Vec3) -> usize,
    ) -> Result<ShardPlan> {
        check_shard_count(shards)?;
        let n_nodes = env.tree().node_count() as usize;
        let mut plan = ShardPlan {
            shards,
            object_owner: IdHashMap::default(),
            node_owner: vec![0; n_nodes],
            node_mask: vec![0; n_nodes],
            cell_masks: Vec::new(),
            covers: vec![Vec::new(); shards],
            owned_objects: vec![0; shards],
        };
        let mut mirror: Vec<Vec<MirrorEntry>> = vec![Vec::new(); n_nodes];
        let mut ctx = env.session();
        plan.walk(
            env,
            &mut ctx,
            &mut assign,
            &mut mirror,
            env.tree().root_ordinal(),
            0,
        )?;
        for &s in plan.object_owner.values() {
            plan.owned_objects[s] += 1;
        }

        // Per-object emission mask: the owners of every emission position
        // that can stand in for this object — the object's own owner plus
        // the owner of each ancestor subtree (an η-terminated ancestor is
        // emitted by its subtree's owner).
        let mut obj_emit: HashMap<u64, u64> = HashMap::new();
        plan.emit_masks(&mirror, env.tree().root_ordinal(), 0, &mut obj_emit);

        // Per-cell fan-out mask: the union of emission masks over the
        // cell's ground-truth visible set. Every entry the unsharded
        // traversal could emit for this cell is owned by a shard in the
        // mask, so fanning out to exactly these shards loses nothing.
        let table = env.dov_table();
        let cells = env.grid().cell_count();
        plan.cell_masks = (0..cells)
            .map(|c| {
                table
                    .cell(c as CellId)
                    .iter()
                    .filter(|&&(_, dov)| dov > 0.0)
                    .map(|&(oid, _)| obj_emit.get(&(oid as u64)).copied().unwrap_or(0))
                    .fold(0u64, |m, b| m | b)
            })
            .collect();

        for s in 0..shards {
            let mut cover = Vec::new();
            plan.cover_walk(
                &mirror,
                s,
                env.tree().root_ordinal(),
                PathKey::ROOT,
                0,
                &mut cover,
            );
            plan.covers[s] = cover;
        }
        Ok(plan)
    }

    fn walk(
        &mut self,
        env: &SharedEnvironment,
        ctx: &mut SessionCtx,
        assign: &mut impl FnMut(u64, hdov_geom::Vec3) -> usize,
        mirror: &mut [Vec<MirrorEntry>],
        ordinal: u32,
        depth: usize,
    ) -> Result<(u64, u32)> {
        let node = env.tree().read_node(&mut ctx.node_cur, ordinal)?;
        PathKey::check_encodable(depth, node.len())?;
        let mut mask = 0u64;
        let mut owner: Option<u32> = None;
        let mut entries = Vec::with_capacity(node.len());
        for entry in node.entries() {
            if entry.is_object() {
                let s = assign(entry.child, entry.mbr.center());
                check(s < self.shards, || {
                    format!(
                        "object {} assigned to shard {s} of {}",
                        entry.child, self.shards
                    )
                })?;
                self.object_owner.insert(entry.child, s);
                mask |= 1 << s;
                owner.get_or_insert(s as u32);
                entries.push(MirrorEntry {
                    id: entry.child,
                    child_ordinal: u32::MAX,
                });
            } else {
                let (m, o) = self.walk(env, ctx, assign, mirror, entry.child_ordinal, depth + 1)?;
                mask |= m;
                owner.get_or_insert(o);
                entries.push(MirrorEntry {
                    id: entry.child,
                    child_ordinal: entry.child_ordinal,
                });
            }
        }
        mirror[ordinal as usize] = entries;
        self.node_mask[ordinal as usize] = mask;
        self.node_owner[ordinal as usize] = owner.unwrap_or(0);
        Ok((mask, self.node_owner[ordinal as usize]))
    }

    fn emit_masks(
        &self,
        mirror: &[Vec<MirrorEntry>],
        ordinal: u32,
        anc: u64,
        out: &mut HashMap<u64, u64>,
    ) {
        for e in &mirror[ordinal as usize] {
            if e.is_object() {
                let owner = 1u64 << self.object_owner[&e.id];
                out.insert(e.id, anc | owner);
            } else {
                let here = anc | (1u64 << self.node_owner[e.child_ordinal as usize]);
                self.emit_masks(mirror, e.child_ordinal, here, out);
            }
        }
    }

    fn cover_walk(
        &self,
        mirror: &[Vec<MirrorEntry>],
        shard: usize,
        ordinal: u32,
        path: PathKey,
        depth: usize,
        out: &mut Vec<(PathKey, ResultKey)>,
    ) {
        let bit = 1u64 << shard;
        for (i, e) in mirror[ordinal as usize].iter().enumerate() {
            let key = path.child(depth, i);
            if e.is_object() {
                if self.object_owner[&e.id] == shard {
                    out.push((key, ResultKey::Object(e.id)));
                }
            } else {
                let m = self.node_mask[e.child_ordinal as usize];
                if m == bit {
                    out.push((key, ResultKey::Internal(e.child_ordinal)));
                } else if m & bit != 0 {
                    self.cover_walk(mirror, shard, e.child_ordinal, key, depth + 1, out);
                }
            }
        }
    }

    /// Number of shards the plan was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `object`, if the object is indexed.
    pub fn object_owner(&self, object: u64) -> Option<usize> {
        self.object_owner.get(&object).copied()
    }

    /// The shard owning the subtree rooted at `ordinal` (the owner of its
    /// leftmost object — deterministic and cell-independent).
    pub fn node_owner(&self, ordinal: u32) -> usize {
        self.node_owner[ordinal as usize] as usize
    }

    /// The shards with at least one owned object under `ordinal`.
    pub fn node_mask(&self, ordinal: u32) -> u64 {
        self.node_mask[ordinal as usize]
    }

    /// The shards that can emit an entry for a query in `cell` (from the
    /// ground-truth visible set; the router adds the home-tile bit).
    pub fn cell_mask(&self, cell: CellId) -> u64 {
        self.cell_masks[cell as usize]
    }

    /// Objects owned by `shard`.
    pub fn owned_objects(&self, shard: usize) -> u64 {
        self.owned_objects[shard]
    }

    /// The size of `shard`'s coarse cover.
    pub fn cover_len(&self, shard: usize) -> usize {
        self.covers[shard].len()
    }

    /// Builds the synthetic frame served in place of an unavailable
    /// `shard`: its precomputed coarse cover — maximal wholly-owned
    /// subtrees at their coarsest internal LoD, plus individually-owned
    /// objects at their coarsest object LoD — materialized from the
    /// in-memory model directories with **zero I/O** (the same
    /// directory-only discipline as session shedding), and one
    /// [`DegradeCause::ShardUnavailable`] event explaining why.
    ///
    /// The cover is visibility-agnostic: it stands in for every object the
    /// shard owns, visible from the current cell or not, because the
    /// router serves it precisely when the shard that could prove
    /// visibility is unreachable.
    pub fn cover_frame(
        &self,
        env: &SharedEnvironment,
        shard: usize,
        detail: &str,
        frame: &mut ShardFrame,
    ) {
        frame.clear();
        let models = env.models().store();
        let internal = env.tree().internal_store();
        for &(key, rk) in &self.covers[shard] {
            let (store, id) = match rk {
                ResultKey::Object(id) => (models, id),
                ResultKey::Internal(ord) => (internal, ord as u64),
            };
            let level = select_level(store, id, 0.0);
            let h = store.handle(id, level);
            frame.entries.push((
                key,
                ResultEntry {
                    key: rk,
                    level,
                    polygons: h.polygons as u64,
                    bytes: h.bytes as u64,
                    dov: 0.0,
                    // Directory-served: no model I/O happened this frame.
                    cached: true,
                },
            ));
        }
        frame.degrades.push((
            PathKey::ROOT,
            DegradeEvent {
                ordinal: env.tree().root_ordinal(),
                objects_coarse: self.owned_objects[shard],
                cause: DegradeCause::ShardUnavailable,
                error: detail.to_string(),
            },
        ));
    }
}

/// The sharded traversal: shard `shard`'s contribution to query `q`.
///
/// The same walk as [`SharedEnvironment::search`] — same storage adapter,
/// same prune/terminate/descend tests against the same V-pages — with a
/// shard frame as its emission filter:
///
/// * subtrees whose [`ShardPlan::node_mask`] lacks this shard's bit are
///   skipped without reading them,
/// * object entries are emitted (and their models fetched) only when this
///   shard owns the object, and η-terminated internal entries only when it
///   owns the subtree,
/// * every emission is tagged with its [`PathKey`] so [`merge_frames`] can
///   reconstruct the global DFS order.
///
/// With a single-shard plan the filter keeps everything: same answer, same
/// I/O sequence, same stats (pinned by the `hdov-shard` tests). Budget
/// exhaustion and absorbed read errors degrade to internal LoDs exactly
/// like the unsharded path; the fallback is emitted even for subtrees this
/// shard does not wholly own (coverage over minimality), and the root
/// fallback stands in for the objects this shard owns. Each sub-query is
/// reported to `hdov-obs` as one query.
///
/// Fails with [`StorageError::InvalidPlan`](hdov_storage::StorageError)
/// when `shard` is not one of the plan's shards, or `q` is invalid (see
/// [`SharedEnvironment::search`]).
pub fn search_shard(
    env: &SharedEnvironment,
    ctx: &mut SessionCtx,
    plan: &ShardPlan,
    shard: usize,
    frame: &mut ShardFrame,
    q: Query<'_>,
) -> Result<SearchStats> {
    let shards = plan.shards;
    check(shard < shards, || {
        format!("shard {shard} outside the plan's {shards} shards")
    })?;
    let mut sink = ShardSink { frame, plan, shard };
    let stats = walk::run(env, ctx, &mut sink, q)?;
    sink.frame.stats = stats;
    Ok(stats)
}

/// The shard emission filter: a [`ShardFrame`] that keeps only what
/// `shard` owns under `plan`.
struct ShardSink<'a> {
    frame: &'a mut ShardFrame,
    plan: &'a ShardPlan,
    shard: usize,
}

impl Emit for ShardSink<'_> {
    /// The position's key and its depth below the root (default: the root).
    type Path = (PathKey, usize);

    fn child(&self, (key, depth): (PathKey, usize), index: usize) -> (PathKey, usize) {
        (key.child(depth, index), depth + 1)
    }

    fn emits(&self, key: ResultKey) -> bool {
        match key {
            ResultKey::Object(id) => self.plan.object_owner.get(&id) == Some(&self.shard),
            ResultKey::Internal(ordinal) => {
                self.plan.node_owner[ordinal as usize] as usize == self.shard
            }
        }
    }

    fn descends(&self, ordinal: u32) -> bool {
        self.plan.node_mask[ordinal as usize] & (1 << self.shard) != 0
    }

    fn root_objects(&self, _: &SharedTree) -> u64 {
        self.plan.owned_objects[self.shard]
    }

    fn push(&mut self, (key, _): (PathKey, usize), entry: ResultEntry) {
        self.frame.entries.push((key, entry));
    }

    fn degrade(&mut self, (key, _): (PathKey, usize), event: DegradeEvent) {
        self.frame.degrades.push((key, event));
    }

    fn mark(&self) -> (usize, usize) {
        (self.frame.entries.len(), self.frame.degrades.len())
    }

    fn rollback(&mut self, mark: (usize, usize)) {
        self.frame.entries.truncate(mark.0);
        self.frame.degrades.truncate(mark.1);
    }

    fn clear(&mut self) {
        self.frame.clear();
    }

    fn events(&self) -> impl Iterator<Item = &DegradeEvent> {
        self.frame.degrades.iter().map(|(_, e)| e)
    }
}

/// The reusable buffer [`merge_frames`] orders entries in: one per
/// visitor lane, so a steady-state merge allocates nothing.
#[derive(Debug, Default)]
pub struct MergeScratch {
    /// `(key, shard, position)` of every entry: unique, so an unstable
    /// (allocation-free) sort yields the stable shard-order tiebreak.
    order: Vec<(PathKey, u32, u32)>,
}

impl MergeScratch {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Merges per-shard frames into one [`QueryResult`], draining the frames.
///
/// Pass the frames **in shard order** (slot per shard id), never in
/// completion order: entries sort by [`PathKey`], then shard id, then
/// emission position, so shard order is the deterministic tiebreak for the
/// duplicate keys a faulty run can produce. Fault-free there are no
/// duplicates, and the sorted sequence is exactly the unsharded
/// traversal's DFS emission order. `scratch` is reused across calls: once
/// it has grown to the largest frame, a fault-free merge allocates nothing.
pub fn merge_frames(frames: &mut [ShardFrame], scratch: &mut MergeScratch, out: &mut QueryResult) {
    out.clear();
    let order = &mut scratch.order;
    order.clear();
    for (s, f) in frames.iter().enumerate() {
        order.extend(
            f.entries
                .iter()
                .enumerate()
                .map(|(i, &(k, _))| (k, s as u32, i as u32)),
        );
    }
    order.sort_unstable();
    for &(_, s, i) in order.iter() {
        out.push(frames[s as usize].entries[i as usize].1);
    }
    let mut degs: Vec<(PathKey, DegradeEvent)> = Vec::new();
    for f in frames.iter_mut() {
        f.entries.clear();
        degs.append(&mut f.degrades);
    }
    degs.sort_by_key(|&(k, _)| k);
    for (_, d) in degs {
        out.record_degrade(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdov_storage::StorageError;

    #[test]
    fn path_keys_order_like_dfs() {
        let root = PathKey::ROOT;
        let a = root.child(0, 0);
        let b = root.child(0, 1);
        let a0 = a.child(1, 0);
        let a7 = a.child(1, 7);
        // Parent before its descendants, descendants before later siblings.
        assert!(root < a);
        assert!(a < a0);
        assert!(a0 < a7);
        assert!(a7 < b);
        // Distinct positions never collide.
        let keys = [root, a, b, a0, a7];
        for (i, x) in keys.iter().enumerate() {
            for (j, y) in keys.iter().enumerate() {
                assert_eq!(i == j, x == y);
            }
        }
    }

    #[test]
    fn path_key_depth_is_bounded() {
        let deepest = PathKey::MAX_DEPTH - 1;
        assert!(PathKey::check_encodable(deepest, PathKey::MAX_ENTRIES).is_ok());
        let too_deep = PathKey::check_encodable(PathKey::MAX_DEPTH, 1).unwrap_err();
        assert!(matches!(too_deep, StorageError::InvalidPlan { .. }));
        assert!(too_deep.to_string().contains("deeper"), "{too_deep}");
        let too_wide = PathKey::check_encodable(0, PathKey::MAX_ENTRIES + 1).unwrap_err();
        assert!(too_wide.to_string().contains("radix"), "{too_wide}");
        assert!(!too_wide.is_transient());
    }
}
