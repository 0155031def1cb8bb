//! Dijkstra over multilevel buckets — the stand-in for the DIMACS reference
//! solver of the paper's Table 1.
//!
//! The paper compares serial Thorup against "the DIMACS reference solver,
//! an implementation of Goldberg's multilevel bucket shortest path
//! algorithm, which has an expected running time of O(n) on random graphs
//! with uniform weight distributions". This module drives the
//! [`crate::mlb`] queue with lazy decrease-key; `reproduce table1`
//! reproduces the comparison.

use crate::mlb::MultiLevelBuckets;
use mmt_graph::types::{Dist, VertexId, INF};
use mmt_graph::CsrGraph;

/// Single-source shortest paths via multilevel buckets.
pub fn goldberg_sssp(g: &CsrGraph, source: VertexId) -> Vec<Dist> {
    assert!((source as usize) < g.n(), "source out of range");
    let mut dist = vec![INF; g.n()];
    let mut settled = vec![false; g.n()];
    let mut q: MultiLevelBuckets<VertexId> = MultiLevelBuckets::new();
    dist[source as usize] = 0;
    q.push(0, source);
    while let Some((d, u)) = q.pop_min() {
        if settled[u as usize] {
            continue; // stale (lazy decrease-key)
        }
        debug_assert_eq!(d, dist[u as usize]);
        settled[u as usize] = true;
        for (v, w) in g.edges_from(u) {
            let nd = d + w as Dist;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                q.push(nd, v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use mmt_graph::gen::shapes;
    use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
    use mmt_graph::types::EdgeList;

    #[test]
    fn simple_path() {
        let g = CsrGraph::from_edge_list(&shapes::path(6, 2));
        assert_eq!(goldberg_sssp(&g, 0), vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn unreachable_and_loops() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(4, [(0, 0, 9), (0, 1, 3)]));
        let d = goldberg_sssp(&g, 0);
        assert_eq!(d, vec![0, 3, INF, INF]);
    }

    #[test]
    fn matches_dijkstra_on_workloads() {
        for (class, dist) in [
            (GraphClass::Random, WeightDist::Uniform),
            (GraphClass::Random, WeightDist::PolyLog),
            (GraphClass::Rmat, WeightDist::Uniform),
        ] {
            let mut spec = WorkloadSpec::new(class, dist, 9, 10);
            spec.seed = 17;
            let g = CsrGraph::from_edge_list(&spec.generate());
            for s in [0u32, 5, 100] {
                assert_eq!(
                    goldberg_sssp(&g, s),
                    dijkstra(&g, s),
                    "{} source {s}",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn large_weights_do_not_overflow() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(
            3,
            [(0, 1, u32::MAX), (1, 2, u32::MAX)],
        ));
        let d = goldberg_sssp(&g, 0);
        assert_eq!(d[2], 2 * (u32::MAX as u64));
    }
}
