//! Viewing cells and degree-of-visibility (DoV) computation.
//!
//! The paper partitions the viewpoint space into disjoint cells and, offline,
//! computes for every cell the DoV of every object: the fraction of the view
//! sphere covered by the object's *visible* (unoccluded) part, maximized over
//! viewpoints in the cell (Eq. 2). The original system used a
//! hardware-accelerated algorithm from the first author's thesis; this crate
//! substitutes a deterministic Monte-Carlo estimator with identical
//! semantics:
//!
//! * [`CellGrid`] — the cell partition of the walkable space,
//! * [`Bvh`] — a first-hit ray caster over object bounding boxes (with a
//!   ground plane, so rays cannot sneak under the city), and
//! * [`DovTable`] — per-cell sparse `(object, DoV)` tables, computed in
//!   parallel on `std::thread::scope` workers pulling cells from an
//!   atomic-counter work queue (per-cell cost is wildly uneven, so dynamic
//!   claiming keeps every worker busy; results are independent of thread
//!   count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bvh;
pub mod cell;
pub mod dov;

pub use bvh::Bvh;
pub use cell::{CellGrid, CellGridConfig, CellId};
pub use dov::{DovConfig, DovTable};
