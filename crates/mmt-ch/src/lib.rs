//! Thorup's Component Hierarchy: the data structure and three builders.
//!
//! The Component Hierarchy (CH) encapsulates, for every power-of-two weight
//! threshold, how the graph decomposes into connected components; Thorup's
//! SSSP algorithm (in `mmt-thorup`) walks it to find vertices that may be
//! settled in arbitrary order. The paper's central systems claim is that
//! one CH, built once, can be **shared by many concurrent SSSP queries** —
//! so the structure here is frozen and the per-query state lives elsewhere.
//!
//! * [`hierarchy`] — the frozen tree, its invariants and validator;
//! * [`builder_phases`] — the paper's Algorithm 1, parallel: one concurrent
//!   union-find over the weight bands (Table 3 / Fig 4);
//! * [`builder_dsu`] — the serial union-find equivalent (oracle + Table 1);
//! * [`builder_mst`] — Thorup's MST route, kept as an ablation;
//! * [`zero_weight`] — the preprocessing contraction for zero-weight edges;
//! * [`stats`] — Table 2 statistics and the cross-builder signature.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder_dsu;
pub mod builder_mst;
pub mod builder_phases;
pub mod clustering;
pub mod hierarchy;
pub mod io;
pub mod stats;
pub mod traversal;
pub mod zero_weight;

pub use builder_dsu::build_serial;
pub use builder_mst::build_via_mst;
pub use builder_phases::build_parallel;
pub use clustering::{clusters_at_level, clusters_at_threshold, merge_threshold, Clustering};
pub use hierarchy::ComponentHierarchy;
pub use stats::ChStats;
pub use zero_weight::ZeroContraction;

/// Chain handling during construction.
///
/// The paper's Algorithm 1 literally creates a CH-node per connected
/// component per phase, producing long single-child chains on large-`C`
/// instances (`Faithful`). The solver only needs the nodes where components
/// actually merge, so the default skips chain nodes (`Collapsed`), bounding
/// the hierarchy at `2n - 1` nodes. Both satisfy Thorup's invariants; the
/// Table 2 bench reports the sizes of both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChMode {
    /// Skip single-child chain nodes (≤ 2n − 1 nodes).
    Collapsed,
    /// One node per component per phase, as written in the paper.
    Faithful,
}
