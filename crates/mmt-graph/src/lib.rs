//! Graph substrate for the shortest-paths workspace.
//!
//! Re-implements, from scratch, the subset of the MultiThreaded Graph
//! Library (MTGL) that the paper's Thorup implementation relies on, plus the
//! 9th DIMACS Implementation Challenge machinery its experiments use:
//!
//! * [`types`] — vertex/weight/distance types and edge lists;
//! * [`csr`] — an undirected weighted graph in compressed-sparse-row form,
//!   built in parallel from an edge list;
//! * [`gen`] — synthetic generators: `Random` (cycle + random edges, exactly
//!   the DIMACS `Random4-n` recipe), `R-MAT` scale-free graphs, grids
//!   (road-network stand-ins for the paper's future-work discussion), and
//!   the two weight distributions (UWD uniform, PWD poly-logarithmic);
//! * [`dimacs`] — reader/writer for the challenge `.gr` format;
//! * [`subgraph`] — induced-subgraph extraction (an MTGL operation the
//!   paper names explicitly);
//! * [`split`] — the light/heavy pre-split CSR (edges `≤ Δ` vs `> Δ`
//!   contiguous per vertex) that removes delta-stepping's per-relaxation
//!   weight filter: the one adjacency every stepping kernel runs on;
//! * [`stats`] — degree/weight summaries used by the bench harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod dimacs;
pub mod gen;
pub mod order;
pub mod paths;
pub mod split;
pub mod stats;
pub mod subgraph;
pub mod types;

pub use csr::CsrGraph;
pub use gen::{GraphClass, WeightDist, WorkloadSpec};
pub use order::VertexPermutation;
pub use split::SplitCsr;
pub use types::{Dist, Edge, EdgeList, VertexId, Weight, INF};
