//! # mmt-sssp — multithreaded Thorup shortest paths
//!
//! A from-scratch Rust reproduction of *Advanced Shortest Paths Algorithms
//! on a Massively-Multithreaded Architecture* (Crobak, Berry, Madduri,
//! Bader — IPDPS 2007): Thorup's undirected single-source shortest path
//! algorithm over a shared Component Hierarchy, together with every
//! substrate the paper's study relies on — synthetic graph generators,
//! parallel connected components, parallel Δ-stepping, and a
//! multilevel-bucket reference solver.
//!
//! This facade crate re-exports the workspace crates under one roof and
//! offers a [`prelude`] plus a couple of one-call conveniences.
//!
//! ```
//! use mmt_sssp::prelude::*;
//!
//! // Build the paper's Figure 1 graph, its Component Hierarchy, and query it.
//! let edges = shapes::figure_one();
//! let graph = CsrGraph::from_edge_list(&edges);
//! let ch = build_parallel(&edges);
//! let solver = ThorupSolver::new(&graph, &ch);
//! assert_eq!(solver.solve(0), mmt_sssp::baselines::dijkstra(&graph, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mmt_baselines as baselines;
pub use mmt_cc as cc;
pub use mmt_ch as ch;
pub use mmt_graph as graph;
pub use mmt_platform as platform;
pub use mmt_thorup as thorup;
pub use mmt_verify as verify;

pub mod error;

pub use error::MmtError;

/// The names most programs need.
pub mod prelude {
    pub use crate::error::MmtError;
    pub use mmt_baselines::{
        bellman_ford, bfs, bidirectional_dijkstra, delta_stepping, dijkstra, goldberg_sssp,
        verify_sssp, verify_sssp_engine, DeltaConfig, Divergence, DivergenceKind,
    };
    pub use mmt_ch::{
        build_parallel, build_serial, clusters_at_threshold, ChMode, ChStats, ComponentHierarchy,
    };
    pub use mmt_graph::gen::{shapes, GraphClass, WeightDist, WorkloadSpec};
    pub use mmt_graph::paths::build_tree;
    pub use mmt_graph::types::{Dist, Edge, EdgeList, VertexId, Weight, INF};
    pub use mmt_graph::CsrGraph;
    pub use mmt_platform::CancelToken;
    pub use mmt_thorup::{
        BatchRequest, BatchSolver, GraphId, GraphMetricsSnapshot, GraphRegistry, HubDistances,
        InputError, InstancePool, MetricsSnapshot, QueryHandle, QueryId, QueryRequest,
        QueryService, QueryServiceBuilder, ServiceError, ServiceMetrics, ShutdownMode,
        TargetHandle, ThorupConfig, ThorupInstance, ThorupSolver, ToVisitStrategy,
    };
}

use mmt_graph::types::{Dist, EdgeList, VertexId};
use mmt_thorup::InputError;

fn check_sources(n: usize, sources: &[VertexId]) -> Result<(), MmtError> {
    for &s in sources {
        if s as usize >= n {
            return Err(InputError::SourceOutOfRange { source: s, n }.into());
        }
    }
    Ok(())
}

/// One-call SSSP: builds the Component Hierarchy and runs one Thorup query.
///
/// Fails with [`MmtError::Input`] when `source` is not a vertex of the
/// graph. For repeated queries build the hierarchy once and use
/// [`ThorupSolver`](mmt_thorup::ThorupSolver) /
/// [`BatchSolver`](mmt_thorup::BatchSolver) directly — amortising the CH is
/// the paper's whole point.
///
/// ```
/// use mmt_sssp::prelude::*;
/// let el = shapes::figure_one();
/// let dist = mmt_sssp::shortest_paths(&el, 0).unwrap();
/// assert_eq!(dist, vec![0, 1, 1, 9, 10, 10]);
/// assert!(mmt_sssp::shortest_paths(&el, 99).is_err());
/// ```
pub fn shortest_paths(edges: &EdgeList, source: VertexId) -> Result<Vec<Dist>, MmtError> {
    let graph = mmt_graph::CsrGraph::from_edge_list(edges);
    let ch = mmt_ch::build_parallel(edges);
    let solver = mmt_thorup::ThorupSolver::try_new(&graph, &ch)?;
    Ok(solver.try_solve(source)?)
}

/// One-call batched SSSP from many sources sharing one hierarchy: one
/// simultaneous [`BatchSolver`](mmt_thorup::BatchSolver) batch.
///
/// Fails with [`MmtError::Input`] when any source is out of range.
pub fn shortest_paths_multi(
    edges: &EdgeList,
    sources: &[VertexId],
) -> Result<Vec<Vec<Dist>>, MmtError> {
    let graph = mmt_graph::CsrGraph::from_edge_list(edges);
    let ch = mmt_ch::build_parallel(edges);
    check_sources(graph.n(), sources)?;
    let solver = mmt_thorup::ThorupSolver::try_new(&graph, &ch)?;
    Ok(mmt_thorup::BatchSolver::new(&solver)
        .solve_batch(sources)
        .into_iter()
        .map(mmt_thorup::PooledDistances::detach)
        .collect())
}

/// One-call SSSP returning distances *and* a shortest-path tree (tight-edge
/// reconstruction over the Thorup distances).
///
/// Fails with [`MmtError::Input`] when `source` is out of range.
pub fn shortest_paths_with_tree(
    edges: &EdgeList,
    source: VertexId,
) -> Result<(Vec<Dist>, mmt_graph::paths::ShortestPathTree), MmtError> {
    let graph = mmt_graph::CsrGraph::from_edge_list(edges);
    let ch = mmt_ch::build_parallel(edges);
    let solver = mmt_thorup::ThorupSolver::try_new(&graph, &ch)?;
    let dist = solver.try_solve(source)?;
    let tree = mmt_graph::paths::build_tree(&graph, source, &dist);
    Ok((dist, tree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_graph::gen::shapes;

    #[test]
    fn one_call_helpers() {
        let el = shapes::figure_one();
        assert_eq!(shortest_paths(&el, 0).unwrap(), vec![0, 1, 1, 9, 10, 10]);
        let batch = shortest_paths_multi(&el, &[0, 3]).unwrap();
        assert_eq!(batch[0][5], 10);
        assert_eq!(batch[1][3], 0);
    }

    #[test]
    fn one_call_helpers_reject_bad_sources() {
        let el = shapes::figure_one();
        let err = shortest_paths(&el, 42).unwrap_err();
        assert_eq!(
            err,
            MmtError::Input(InputError::SourceOutOfRange { source: 42, n: 6 })
        );
        assert!(shortest_paths_multi(&el, &[0, 42]).is_err());
        assert!(shortest_paths_with_tree(&el, 42).is_err());
    }

    #[test]
    fn one_call_tree() {
        let el = shapes::figure_one();
        let (dist, tree) = shortest_paths_with_tree(&el, 0).unwrap();
        assert_eq!(dist[5], 10);
        let path = tree.path_to(5).unwrap();
        assert_eq!(path.first(), Some(&0));
        assert_eq!(path.last(), Some(&5));
        let g = mmt_graph::CsrGraph::from_edge_list(&el);
        tree.validate(&g, &dist).unwrap();
    }
}
