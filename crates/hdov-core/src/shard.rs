//! Fault-domain sharding: the data plane (DESIGN.md §17).
//!
//! A sharded deployment runs one engine per spatial tile — each a full
//! replica of the frozen environment with its own pools and fault plan —
//! and a router fans a visitor's query out to the shards that can
//! contribute, then merges the per-shard answers back into one frame. This
//! module provides the pieces that must agree with the traversal itself:
//!
//! * [`ShardPlan`] — a one-time walk of the frozen tree that assigns every
//!   object an owning shard and every node an owner, then records per
//!   (cell, shard) a node bitset: the nodes under which the shard has
//!   visible work in that cell (Fig. 3 line 3's DoV = 0 prune, per shard).
//!   A cell's fan-out mask is the shards whose root bit is set. It also
//!   holds each shard's coarse cover (the ready-made entries served when
//!   the shard is down).
//! * [`search_shard`] — the one Fig. 3 walk that
//!   [`SharedEnvironment::search`] runs, for the same [`Query`], with a
//!   shard frame as its emission filter: shard `S` enters only subtrees
//!   its bitset marks for the query's cell and emits only the entries it
//!   owns, each tagged with a [`PathKey`].
//! * [`merge_frames`] — k-way merges the per-shard frames (in shard order),
//!   each already in DFS order, by path key, reconstructing the *exact*
//!   DFS emission order of the unsharded traversal. Fault-free, the merged
//!   frame is byte-identical to [`SharedEnvironment::search`]'s answer,
//!   independent of shard completion order (pinned by the `hdov-shard`
//!   crate's proptests).
//!
//! The key invariant: every emission position of the unsharded traversal —
//! an object entry, or an entry whose subtree η-terminates at an internal
//! LoD — is owned by exactly one shard, so fault-free the merged frame has
//! no duplicates and no gaps. Under faults a shard serves fallbacks for
//! subtrees it entered but does not wholly own, so degraded frames may
//! carry a coarse duplicate next to another shard's fine entries — coverage
//! is chosen over minimality, exactly like the budget-stop path. A shard
//! enters only subtrees where it has visible work, so it serves no
//! fallback for a subtree whose visible objects all belong to others;
//! those shards cover it.

use crate::search::{
    check, select_level, DegradeCause, DegradeEvent, Query, QueryResult, ResultEntry, ResultKey,
    SearchStats,
};
use crate::shared::{SessionCtx, SharedEnvironment, SharedTree};
use crate::walk::{self, Emit, ROOT};
use hdov_storage::Result;
use hdov_visibility::{CellId, DovTable};
use std::sync::Arc;

/// Hard cap on shards per plan: shard masks are one `u64`.
pub const MAX_SHARDS: usize = 64;

/// [`ShardPlan`]'s owner slot for an id no tree entry carries.
const NO_OWNER: u8 = u8::MAX;

/// Is bit `ordinal` of node bitset `work` set?
fn has_work(work: &[u64], ordinal: u32) -> bool {
    work[ordinal as usize / 64] >> (ordinal % 64) & 1 != 0
}

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

/// Mirror of one tree node, kept in memory by the plan walk so the later
/// passes never re-read node pages.
#[derive(Debug, Clone, Default)]
struct MirrorNode {
    entries: Vec<MirrorEntry>,
    /// The shards owning an object in this subtree.
    mask: u64,
}

/// Mirror of one tree entry.
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
/// node, where each shard has visible work in each cell, and each shard's
/// coarse cover. Built once per frozen environment and shared by every
/// router and session.
#[derive(Debug)]
pub struct ShardPlan {
    shards: usize,
    /// Owning shard by object id (frozen ids are dense); looked up for
    /// every object entry of every shard sub-walk.
    object_owner: Vec<u8>,
    node_owner: Vec<u32>,
    /// Words per node bitset: `⌈nodes / 64⌉`.
    words: usize,
    /// One node bitset per (cell, shard), cell-major: bit `n` is set when
    /// the shard has visible work at or below node `n` in that cell.
    work: Vec<u64>,
    covers: Vec<Vec<(PathKey, ResultKey)>>,
    owned_objects: Vec<u64>,
    /// The DoV table and tree the plan was built from, held so
    /// [`search_shard`] can refuse any other environment by identity.
    table: Arc<DovTable>,
    tree: Arc<Vec<u16>>,
}

impl ShardPlan {
    /// Walks the frozen tree once and builds the plan. `assign` maps an
    /// object id and its MBR-center to its owning shard (the tile map
    /// policy lives with the router).
    ///
    /// Besides the owners and covers, the plan answers "must shard `s`
    /// enter node `n` in cell `c`?" (paper Fig. 3 line 3, per shard): for
    /// every object visible from `c`, one climb from its leaf to the root
    /// sets, on each node passed, the bits of the object's owner and of the
    /// owners of the nodes already climbed — exactly the shards that emit
    /// the object or an η-terminated subtree holding it. A cell's fan-out
    /// mask is the set of shards whose root bit is set.
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
        let cells = env.grid().cell_count();
        let words = n_nodes.div_ceil(64);
        let mut plan = ShardPlan {
            shards,
            object_owner: Vec::new(),
            node_owner: vec![0; n_nodes],
            words,
            work: vec![0; cells * shards * words],
            covers: vec![Vec::new(); shards],
            owned_objects: vec![0; shards],
            table: Arc::clone(&env.table),
            tree: Arc::clone(&env.tree.entry_counts),
        };
        let mut mirror = vec![MirrorNode::default(); n_nodes];
        let mut ctx = env.session();
        plan.walk(env, &mut ctx, &mut assign, &mut mirror, ROOT, 0)?;
        for &s in plan.object_owner.iter().filter(|&&s| s != NO_OWNER) {
            plan.owned_objects[s as usize] += 1;
        }

        // Parent links, and the leaf holding each object, from the mirror.
        let mut parent = vec![ROOT; n_nodes];
        let mut leaf = vec![ROOT; plan.object_owner.len()];
        for (ordinal, node) in mirror.iter().enumerate() {
            for e in &node.entries {
                if e.is_object() {
                    leaf[e.id as usize] = ordinal as u32;
                } else {
                    parent[e.child_ordinal as usize] = ordinal as u32;
                }
            }
        }
        let table = env.dov_table();
        for c in 0..cells {
            let cell = &mut plan.work[c * shards * words..(c + 1) * shards * words];
            for &(oid, _) in table.cell(c as CellId).iter().filter(|&&(_, d)| d > 0.0) {
                let owner = plan.object_owner.get(oid as usize);
                let Some(&owner) = owner.filter(|&&o| o != NO_OWNER) else {
                    continue;
                };
                let mut owners = 1u64 << owner;
                let mut n = leaf[oid as usize];
                loop {
                    let (word, bit) = (n as usize / 64, 1u64 << (n % 64));
                    let mut m = owners;
                    while m != 0 {
                        let s = m.trailing_zeros() as usize;
                        cell[s * words + word] |= bit;
                        m &= m - 1;
                    }
                    if n == ROOT {
                        break;
                    }
                    owners |= 1u64 << plan.node_owner[n as usize];
                    n = parent[n as usize];
                }
            }
        }

        for s in 0..shards {
            let mut cover = Vec::new();
            plan.cover_walk(&mirror, s, ROOT, PathKey::ROOT, 0, &mut cover);
            plan.covers[s] = cover;
        }
        Ok(plan)
    }

    /// Records the subtree at `ordinal` into `mirror` and the owners.
    fn walk(
        &mut self,
        env: &SharedEnvironment,
        ctx: &mut SessionCtx,
        assign: &mut impl FnMut(u64, hdov_geom::Vec3) -> usize,
        mirror: &mut [MirrorNode],
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
                let id = entry.child as usize;
                if id >= self.object_owner.len() {
                    self.object_owner.resize(id + 1, NO_OWNER);
                }
                self.object_owner[id] = s as u8;
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
        mirror[ordinal as usize] = MirrorNode { entries, mask };
        self.node_owner[ordinal as usize] = owner.unwrap_or(0);
        Ok((mask, self.node_owner[ordinal as usize]))
    }

    fn cover_walk(
        &self,
        mirror: &[MirrorNode],
        shard: usize,
        ordinal: u32,
        path: PathKey,
        depth: usize,
        out: &mut Vec<(PathKey, ResultKey)>,
    ) {
        let bit = 1u64 << shard;
        for (i, e) in mirror[ordinal as usize].entries.iter().enumerate() {
            let key = path.child(depth, i);
            if e.is_object() {
                if self.object_owner[e.id as usize] as usize == shard {
                    out.push((key, ResultKey::Object(e.id)));
                }
            } else {
                let m = mirror[e.child_ordinal as usize].mask;
                if m == bit {
                    out.push((key, ResultKey::Internal(e.child_ordinal)));
                } else if m & bit != 0 {
                    self.cover_walk(mirror, shard, e.child_ordinal, key, depth + 1, out);
                }
            }
        }
    }

    /// Shard `shard`'s node bitset for `cell`.
    fn work(&self, cell: CellId, shard: usize) -> &[u64] {
        let at = (cell as usize * self.shards + shard) * self.words;
        &self.work[at..at + self.words]
    }

    /// Was the plan built from `env`'s tree and DoV table? Every fork of
    /// one environment shares both.
    fn built_for(&self, env: &SharedEnvironment) -> bool {
        Arc::ptr_eq(&self.table, &env.table) && Arc::ptr_eq(&self.tree, &env.tree.entry_counts)
    }

    /// The shards that can emit an entry for a query in `cell`: those with
    /// visible work under the root there (from the ground-truth visible
    /// set; the router adds the home-tile bit).
    pub fn cell_mask(&self, cell: CellId) -> u64 {
        (0..self.shards)
            .filter(|&s| has_work(self.work(cell, s), ROOT))
            .fold(0, |m, s| m | 1 << s)
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
/// * a subtree is entered only when the plan records visible work for this
///   shard under it in `q.cell` (an object it owns, or a node it owns above
///   one, visible from the cell); every other subtree is skipped without
///   reading it,
/// * object entries are emitted (and their models fetched) only when this
///   shard owns the object, and η-terminated internal entries only when it
///   owns the subtree,
/// * every emission is tagged with its [`PathKey`] so [`merge_frames`] can
///   reconstruct the global DFS order.
///
/// With a single-shard plan the filter keeps everything: same answer, same
/// I/O sequence, same stats (pinned by the `hdov-shard` tests). Budget
/// exhaustion and absorbed read errors degrade to internal LoDs exactly
/// like the unsharded path, but only in subtrees this shard enters: the
/// fallback may stand in for another shard's objects too (coverage over
/// minimality), while a subtree holding none of this shard's visible work
/// is left to the shards that have some. The root fallback stands in for
/// the objects this shard owns. Each sub-query is reported to `hdov-obs`
/// as one query.
///
/// Fails with [`StorageError::InvalidPlan`](hdov_storage::StorageError)
/// when `shard` is not one of the plan's shards, when the plan was built
/// from another tree or DoV table than `env`'s (an environment built
/// separately, or another epoch of a mutable scene; forks of the plan's
/// environment are accepted), or when `q` is invalid (see
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
    check(plan.built_for(env), || {
        "shard plan was built for another tree or DoV table".to_string()
    })?;
    q.check(env)?; // before the plan is indexed by `q.cell`
    let mut sink = ShardSink {
        frame,
        plan,
        shard,
        work: plan.work(q.cell, shard),
    };
    let stats = walk::run(env, ctx, &mut sink, q)?;
    sink.frame.stats = stats;
    Ok(stats)
}

/// The shard emission filter: a [`ShardFrame`] that keeps only what
/// `shard` owns under `plan`, entering only subtrees marked in `work`.
struct ShardSink<'a> {
    frame: &'a mut ShardFrame,
    plan: &'a ShardPlan,
    shard: usize,
    /// The shard's node bitset for the query's cell.
    work: &'a [u64],
}

impl Emit for ShardSink<'_> {
    /// The position's key and its depth below the root (default: the root).
    type Path = (PathKey, usize);

    fn child(&self, (key, depth): (PathKey, usize), index: usize) -> (PathKey, usize) {
        (key.child(depth, index), depth + 1)
    }

    fn emits(&self, key: ResultKey) -> bool {
        match key {
            ResultKey::Object(id) => {
                self.plan.object_owner.get(id as usize) == Some(&(self.shard as u8))
            }
            ResultKey::Internal(ordinal) => {
                self.plan.node_owner[ordinal as usize] as usize == self.shard
            }
        }
    }

    fn descends(&self, ordinal: u32) -> bool {
        has_work(self.work, ordinal)
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

/// Merges per-shard frames into one [`QueryResult`], draining the frames.
///
/// Pass the frames **in shard order** (slot per shard id), never in
/// completion order: entries come out ordered by [`PathKey`], then shard
/// id, then emission position, so shard order is the deterministic
/// tiebreak for the duplicate keys a faulty run can produce. Fault-free
/// there are no duplicates, and the merged sequence is exactly the
/// unsharded traversal's DFS emission order.
///
/// A sub-query emits in DFS order, so each frame's keys already ascend and
/// the frames are merged k-way, a run at a time. A frame filled in any
/// other order is first sorted in place (stably); a frame that is already
/// in order is only checked, so a fault-free merge allocates nothing.
///
/// # Panics
///
/// When given more than [`MAX_SHARDS`] frames.
pub fn merge_frames(frames: &mut [ShardFrame], out: &mut QueryResult) {
    out.clear();
    for f in frames.iter_mut() {
        sort_by_path(&mut f.entries);
        sort_by_path(&mut f.degrades);
    }
    merge_by_path(
        frames,
        |f| &f.entries,
        |s, i| out.push(frames[s].entries[i].1),
    );
    merge_by_path(
        frames,
        |f| &f.degrades,
        |s, i| out.record_degrade(frames[s].degrades[i].1.clone()),
    );
    for f in frames.iter_mut() {
        f.entries.clear();
        f.degrades.clear();
    }
}

/// Stably sorts `list` by key unless it already ascends.
fn sort_by_path<T>(list: &mut [(PathKey, T)]) {
    if list.windows(2).any(|w| w[0].0 > w[1].0) {
        list.sort_by_key(|&(k, _)| k);
    }
}

/// K-way merges the key-ascending lists `list` picks out of `frames`,
/// calling `emit(shard, position)` in (key, shard) order. The frame holding
/// the least head emits a run, up to the next frame's head.
fn merge_by_path<T>(
    frames: &[ShardFrame],
    list: fn(&ShardFrame) -> &[(PathKey, T)],
    mut emit: impl FnMut(usize, usize),
) {
    // Past every head: no emitted key has a 0xFF level byte.
    const END: (PathKey, usize) = (PathKey(u128::MAX), usize::MAX);
    assert!(frames.len() <= MAX_SHARDS, "more frames than shards");
    let mut next = [0usize; MAX_SHARDS];
    loop {
        // The least and second-least (key, shard) heads.
        let (mut least, mut bound) = (END, END);
        for (s, f) in frames.iter().enumerate() {
            let Some(&(k, _)) = list(f).get(next[s]) else {
                continue;
            };
            if (k, s) < least {
                bound = least;
                least = (k, s);
            } else if (k, s) < bound {
                bound = (k, s);
            }
        }
        if least == END {
            return;
        }
        let s = least.1;
        let run = list(&frames[s]);
        loop {
            emit(s, next[s]);
            next[s] += 1;
            match run.get(next[s]) {
                Some(&(k, _)) if (k, s) < bound => {}
                _ => break,
            }
        }
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

    /// A run from one frame stops before a key another frame also holds
    /// when that frame is the lower shard, so duplicates keep shard order
    /// even in the middle of a run.
    #[test]
    fn merge_runs_yield_to_a_lower_shard_on_equal_keys() {
        let entry = |level| ResultEntry {
            key: ResultKey::Object(1),
            level,
            polygons: 1,
            bytes: 1,
            dov: 0.5,
            cached: false,
        };
        let (a, x, z) = (
            PathKey::ROOT.child(0, 0),
            PathKey::ROOT.child(0, 1),
            PathKey::ROOT.child(0, 2),
        );
        let mut frames = vec![ShardFrame::new(), ShardFrame::new(), ShardFrame::new()];
        frames[2].push_for_test(a, entry(0));
        frames[2].push_for_test(x, entry(1));
        frames[2].push_for_test(z, entry(2));
        frames[0].push_for_test(x, entry(3));
        let mut out = QueryResult::default();
        merge_frames(&mut frames, &mut out);
        let levels: Vec<usize> = out.entries().iter().map(|e| e.level).collect();
        assert_eq!(levels, [0, 3, 1, 2]);
        assert!(frames.iter().all(|f| f.entries().is_empty()));
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
