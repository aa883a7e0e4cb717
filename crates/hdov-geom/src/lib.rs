//! 3-D geometry substrate for the HDoV-tree reproduction.
//!
//! This crate provides the small, dependency-free geometric toolkit that the
//! rest of the workspace is built on:
//!
//! * [`Vec3`] — double-precision 3-D vectors,
//! * [`Aabb`] — axis-aligned bounding boxes (the `MBR` of the paper),
//! * [`Ray`] with ray/box intersection (and [`SlabRay`],
//!   a ray prepared once for many box tests),
//! * [`Plane`] and [`Frustum`] for view-volume culling,
//! * [`Triangle`] primitives,
//! * solid-angle utilities ([`solid_angle`]) used by the degree-of-visibility
//!   computation, and
//! * deterministic uniform sphere sampling ([`sampling`]).
//!
//! Everything is `f64`-based; meshes store `f32` vertices and convert at the
//! boundary. All functions are pure and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aabb;
pub mod frustum;
pub mod plane;
pub mod ray;
pub mod sampling;
pub mod solid_angle;
pub mod triangle;
pub mod vec3;

pub use aabb::Aabb;
pub use frustum::Frustum;
pub use plane::Plane;
pub use ray::{Ray, SlabRay};
pub use triangle::Triangle;
pub use vec3::Vec3;

/// Numerical tolerance used throughout the geometry crate.
pub const EPSILON: f64 = 1e-9;
