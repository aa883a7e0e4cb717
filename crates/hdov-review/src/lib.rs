//! The REVIEW baseline — an R-tree window-query walkthrough system
//! (Shou et al., VLDB 2001), reimplemented as the paper's comparison target.
//!
//! REVIEW "employs R-tree as the underlying spatial data structure, but
//! extended the R-tree search scheme such that data that have been retrieved
//! in earlier operations do not need to be accessed again [the *complement
//! search*]. It also supports a semantic-based cache replacement strategy
//! based on spatial distance between the viewer and the nodes" (paper §2).
//! The paper's head-to-head runs REVIEW without that cache, and so does this
//! crate: complement search is its only reuse.
//!
//! At query time REVIEW converts the viewpoint into a spatial query box of
//! configurable size and retrieves every object intersecting it, at a
//! distance-based LoD. Its two structural problems — missing visible objects
//! beyond the box, and fetching hidden objects inside it — are exactly what
//! the HDoV-tree fixes; the fidelity metrics in [`fidelity`] quantify both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fidelity;
pub mod lodrtree;
pub mod system;

pub use fidelity::FidelityReport;
pub use lodrtree::{LodRTreeConfig, LodRTreeSystem};
pub use system::{ReviewConfig, ReviewResult, ReviewStats, ReviewSystem};
