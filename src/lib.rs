//! # HDoV-tree
//!
//! A faithful, from-scratch reproduction of **"HDoV-tree: The Structure, The
//! Storage, The Speed"** (Shou, Huang, Tan — ICDE 2003): a tunable
//! visibility-aware spatial index for walking through virtual environments
//! that do not fit in memory.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`geom`] | `hdov-geom` | vectors, boxes, rays, frusta, solid angles |
//! | [`storage`] | `hdov-storage` | pages, paged files, simulated disk, caches |
//! | [`mesh`] | `hdov-mesh` | meshes, generators, QEM simplifier, LoD chains |
//! | [`rtree`] | `hdov-rtree` | paged R-tree (Ang–Tan linear split) |
//! | [`scene`] | `hdov-scene` | synthetic city datasets, model store |
//! | [`visibility`] | `hdov-visibility` | viewing cells, DoV computation |
//! | [`core`] | `hdov-core` | **the HDoV-tree**: build, 3 storage schemes, search |
//! | [`review`] | `hdov-review` | REVIEW baseline (R-tree window queries) |
//! | [`walkthrough`] | `hdov-walkthrough` | VISUAL system, sessions, metrics |
//! | [`shard`] | `hdov-shard` | tile-sharded scenes behind a resilient session router |
//!
//! ## Quickstart
//!
//! ```
//! use hdov::prelude::*;
//!
//! // 1. Generate a small synthetic city and its viewing-cell grid.
//! let scene = CityConfig::tiny().seed(7).generate();
//! let cells = CellGridConfig::for_scene(&scene).with_resolution(4, 4);
//!
//! // 2. Build the HDoV-tree (R-tree backbone + internal LoDs + per-cell DoV),
//! //    stored with the indexed-vertical scheme.
//! let mut env = HdovEnvironment::build(
//!     &scene,
//!     &cells,
//!     HdovBuildConfig::default(),
//!     StorageScheme::IndexedVertical,
//! ).unwrap();
//!
//! // 3. Run a visibility query from the viewpoint's cell with DoV
//! //    threshold η = 0.001.
//! let viewpoint = scene.bounds().center();
//! let (result, stats) = env.query(Query::new(env.cell_of(viewpoint), 0.001)).unwrap();
//! assert!(result.entries().len() > 0);
//! println!("retrieved {} models, {} polygons in {:.2} simulated ms",
//!          result.entries().len(), result.total_polygons(), stats.search_time_ms());
//! ```

#![forbid(unsafe_code)]

pub mod project;

pub use hdov_core as core;
pub use hdov_geom as geom;
pub use hdov_mesh as mesh;
pub use hdov_review as review;
pub use hdov_rtree as rtree;
pub use hdov_scene as scene;
pub use hdov_shard as shard;
pub use hdov_storage as storage;
pub use hdov_visibility as visibility;
pub use hdov_walkthrough as walkthrough;

/// Convenient glob-import surface covering the common entry points.
pub mod prelude {
    pub use hdov_core::{
        HdovBuildConfig, HdovEnvironment, HdovTree, MutableScene, ObjectHandle, ObjectInfo, Query,
        QueryResult, SearchStats, StorageScheme,
    };
    pub use hdov_geom::{Aabb, Frustum, Ray, Vec3};
    pub use hdov_mesh::{LodChain, TriMesh};
    pub use hdov_review::{ReviewConfig, ReviewSystem};
    pub use hdov_scene::{CityConfig, Scene, SceneObject};
    pub use hdov_storage::{DiskModel, IoStats, PAGE_SIZE};
    pub use hdov_visibility::{CellGrid, CellGridConfig, DovTable};
    pub use hdov_walkthrough::{Session, SessionKind, VisualSystem, WalkthroughMetrics};
}
