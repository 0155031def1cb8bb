//! Multithreaded Thorup SSSP — the paper's primary contribution.
//!
//! Thorup's algorithm solves undirected single-source shortest paths with
//! positive integer weights in linear time by replacing Dijkstra's global
//! priority queue with a traversal of the Component Hierarchy
//! (`mmt-ch`), which exposes *sets* of vertices that may be settled in
//! arbitrary order — i.e. in parallel. The hierarchy is built once and
//! shared; each query carries only a small mutable [`ThorupInstance`].
//!
//! ```
//! use mmt_graph::gen::shapes;
//! use mmt_graph::CsrGraph;
//! use mmt_ch::{build_parallel, ChMode};
//! use mmt_thorup::ThorupSolver;
//!
//! let el = shapes::figure_one();
//! let graph = CsrGraph::from_edge_list(&el);
//! let ch = build_parallel(&el);                 // shared, built once
//! let solver = ThorupSolver::new(&graph, &ch);
//! assert_eq!(solver.solve(0), vec![0, 1, 1, 9, 10, 10]);
//! ```
//!
//! Modules:
//! * [`solver`] — the recursive bucket-visit engine;
//! * [`instance`] — per-query mutable state (dist / mind / settled bits);
//! * [`tovisit`] — the selective loop-parallelisation study (Table 6);
//! * [`batch`] — simultaneous batched queries over a shared CH (Figure 5),
//!   with pooled per-query instances and result buffers;
//! * [`service`] — the long-lived query-serving layer (single queries and
//!   pooled batches), with a deadline-aware coalescing scheduler that
//!   amortises queued same-graph queries through one [`BatchSolver`] run;
//! * [`trace`] — opt-in per-query lifecycle traces (JSON lines) for the
//!   serving layer;
//! * [`layout`] — locality-optimized relabeled solving: permuted graph +
//!   leaf-permuted hierarchy behind an original-vertex-id facade, for
//!   direct callers (the service solves on the graph as registered).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod error;
pub mod instance;
pub mod layout;
pub mod many_to_many;
pub mod pool;
pub mod registry;
pub mod service;
pub mod solver;
pub mod tovisit;
pub mod trace;

pub use batch::{BatchSolver, DistancePool, PooledDistances};
pub use error::{InputError, ServiceError};
pub use instance::ThorupInstance;
pub use layout::{GraphLayout, LayoutKind, LayoutSolver};
pub use many_to_many::HubDistances;
pub use pool::InstancePool;
pub use registry::{GraphId, GraphRegistry, QueryId};
pub use service::{
    BatchHandle, BatchRequest, GraphMetricsSnapshot, MetricsSnapshot, P2pAlgo, QueryHandle,
    QueryRequest, QueryService, QueryServiceBuilder, ServiceMetrics, ShedPolicy, ShutdownMode,
    TargetHandle,
};
pub use solver::{ThorupConfig, ThorupSolver};
pub use tovisit::ToVisitStrategy;
pub use trace::{JsonLinesSink, MemoryTraceSink, TraceEvent, TraceSink};
