//! **The HDoV-tree** — a Hierarchical Degree-of-Visibility tree
//! (Shou, Huang, Tan; ICDE 2003).
//!
//! The HDoV-tree combines three ingredients (paper §3.2):
//!
//! 1. an R-tree backbone capturing the spatial distribution of the scene,
//! 2. *internal LoDs*: every node carries a chain of coarse meshes standing
//!    in for its whole subtree, and
//! 3. per-viewing-cell *degree-of-visibility* data `VD = (DoV, NVO)` for
//!    every entry — view-variant, stored outside the nodes in **V-pages**.
//!
//! A visibility query walks the tree under a DoV threshold `η`: entries with
//! `DoV = 0` are pruned, barely-visible subtrees (`DoV ≤ η`, and cheaper by
//! the Eq. 3/4 polygon heuristic) terminate at an internal LoD, and the rest
//! recurse down to objects whose LoD level is blended by Eq. 6.
//!
//! Three on-disk layouts for the view-variant data are provided:
//! [`StorageScheme::Horizontal`], [`StorageScheme::Vertical`], and
//! [`StorageScheme::IndexedVertical`] (paper §4), with exact storage-size
//! and page-I/O accounting, all read by one [`SharedVStore`].
//!
//! There is one query engine. A built tree is frozen into a
//! [`SharedEnvironment`] that any number of sessions query concurrently,
//! each through its own [`SessionCtx`]. Every query is one [`Query`] value —
//! cell, threshold, resident set, budget, prefetch — run by
//! [`SharedEnvironment::search`] (or, filtered to one shard, by
//! [`search_shard`]; best-first, by [`search_prioritized`]). The easiest
//! entry point is [`HdovEnvironment`]: one such session over one
//! environment, laid out as the paper's cache-less single disk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod build;
pub mod delta;
pub mod env;
pub mod mutable;
pub mod node;
pub mod priority;
pub mod search;
pub mod shard;
pub mod shared;
pub mod storage;
pub mod vpage;
mod walk;

pub use budget::QueryBudget;
pub use build::{HdovBuildConfig, HdovTree, TerminationHeuristic};
pub use delta::DeltaSearch;
pub use env::HdovEnvironment;
pub use mutable::{MutableScene, ObjectHandle, ObjectInfo, SCENE_FILES};
pub use node::{HdovEntry, HdovNode};
pub use priority::{search_prioritized, PrioritizedOutcome};
pub use search::{
    DegradeCause, DegradeEvent, DegradeReport, Query, QueryResult, ResultEntry, ResultKey,
    SearchStats,
};
pub use shard::{merge_frames, search_shard, PathKey, ShardFrame, ShardPlan, MAX_SHARDS};
pub use shared::{PoolConfig, SearchScratch, SessionCtx, SharedEnvironment, SharedVStore};
pub use storage::StorageScheme;
pub use vpage::{VEntry, VPage, VPageCodec, VPAGE_SIZE};
