//! Many-to-many distance tables over a shared Component Hierarchy — the
//! paper's closing conjecture made concrete.
//!
//! The conclusion of the paper: road-network s–t schemes (transit-node
//! routing, highway hierarchies) spend hours of *serial* precomputation on
//! "Dijkstra-like searches through hierarchical data", and "this process
//! could be accelerated … by the basic idea of allowing multiple searches
//! to share a common component hierarchy". This module is that idea as an
//! API: batch SSSP from a hub set through [`crate::BatchSolver`], stored
//! as a [`HubDistances`] table, plus the triangle-inequality s–t upper
//! bound those schemes are built on.

use crate::batch::{BatchSolver, PooledDistances};
use crate::solver::ThorupSolver;
use mmt_graph::types::{Dist, VertexId, INF};

/// Distances from a set of hubs to every vertex (`hubs.len()` rows of
/// `n` distances), precomputed with simultaneous shared-CH queries.
///
/// ```
/// use mmt_ch::build_parallel;
/// use mmt_graph::{gen::shapes, CsrGraph};
/// use mmt_thorup::{HubDistances, ThorupSolver};
///
/// let el = shapes::star(6, 2); // all roads pass the centre
/// let g = CsrGraph::from_edge_list(&el);
/// let ch = build_parallel(&el);
/// let solver = ThorupSolver::new(&g, &ch);
/// let table = HubDistances::precompute(&solver, &[0]);
/// assert_eq!(table.via_hub_bound(1, 5), 4); // exact: 1 -> 0 -> 5
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HubDistances {
    hubs: Vec<VertexId>,
    rows: Vec<Vec<Dist>>,
}

impl HubDistances {
    /// Runs one SSSP per hub, simultaneously, over the solver's shared CH.
    /// Per-hub instances are pooled (peak-concurrency many, not
    /// `hubs.len()` many); the rows are detached from the batch pool since
    /// the table outlives it.
    pub fn precompute(solver: &ThorupSolver<'_>, hubs: &[VertexId]) -> Self {
        let batch = BatchSolver::new(solver);
        let rows: Vec<Vec<Dist>> = batch
            .solve_batch(hubs)
            .into_iter()
            .map(PooledDistances::detach)
            .collect();
        Self {
            hubs: hubs.to_vec(),
            rows,
        }
    }

    /// Sequential-baseline precomputation (what a system without a shared
    /// hierarchy has to do): one solve per hub in turn, each with the
    /// solver's own configuration; result is identical.
    pub fn precompute_sequential(solver: &ThorupSolver<'_>, hubs: &[VertexId]) -> Self {
        Self {
            hubs: hubs.to_vec(),
            rows: hubs.iter().map(|&h| solver.solve(h)).collect(),
        }
    }

    /// The hub set.
    pub fn hubs(&self) -> &[VertexId] {
        &self.hubs
    }

    /// Distance from hub `i` to vertex `v`.
    #[inline]
    pub fn from_hub(&self, i: usize, v: VertexId) -> Dist {
        self.rows[i][v as usize]
    }

    /// The `|hubs| × |hubs|` hub-to-hub table (transit-node routing's core
    /// artifact).
    pub fn hub_table(&self) -> Vec<Vec<Dist>> {
        self.hubs
            .iter()
            .map(|&h| self.rows.iter().map(|r| r[h as usize]).collect())
            .collect()
    }

    /// Triangle-inequality upper bound on `δ(s, t)`: the best route through
    /// any hub (`min_h d(h,s) + d(h,t)`; graph is undirected). Exact
    /// whenever some shortest s–t path passes a hub — the transit-node
    /// property. Returns [`INF`] if no hub reaches both.
    pub fn via_hub_bound(&self, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return 0;
        }
        self.rows
            .iter()
            .map(|r| {
                let (a, b) = (r[s as usize], r[t as usize]);
                if a == INF || b == INF {
                    INF
                } else {
                    a + b
                }
            })
            .min()
            .unwrap_or(INF)
    }

    /// The hub achieving [`via_hub_bound`], if any.
    pub fn best_hub(&self, s: VertexId, t: VertexId) -> Option<VertexId> {
        let mut best = (INF, None);
        for (i, r) in self.rows.iter().enumerate() {
            let (a, b) = (r[s as usize], r[t as usize]);
            if a != INF && b != INF && a + b < best.0 {
                best = (a + b, Some(self.hubs[i]));
            }
        }
        best.1
    }

    /// Bytes held by the table.
    pub fn heap_bytes(&self) -> usize {
        self.rows.iter().map(|r| r.len() * 8).sum::<usize>() + self.hubs.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_baselines::dijkstra;
    use mmt_ch::{build_serial, ChMode};
    use mmt_graph::gen::shapes;
    use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
    use mmt_graph::CsrGraph;

    #[test]
    fn rows_match_individual_sssp() {
        let spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 7, 6);
        let el = spec.generate();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let hubs = vec![0u32, 17, 99];
        let table = HubDistances::precompute(&solver, &hubs);
        for (i, &h) in hubs.iter().enumerate() {
            let want = dijkstra(&g, h);
            for v in 0..g.n() as u32 {
                assert_eq!(table.from_hub(i, v), want[v as usize]);
            }
        }
        assert_eq!(table, HubDistances::precompute_sequential(&solver, &hubs));
    }

    #[test]
    fn star_center_hub_is_exact_everywhere() {
        let el = shapes::star(12, 4);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let table = HubDistances::precompute(&solver, &[0]);
        let oracle: Vec<Vec<u64>> = (0..12u32).map(|s| dijkstra(&g, s)).collect();
        for s in 0..12u32 {
            for t in 0..12u32 {
                // Every path in a star passes the centre.
                assert_eq!(table.via_hub_bound(s, t), oracle[s as usize][t as usize]);
            }
        }
        assert_eq!(table.best_hub(3, 7), Some(0));
    }

    #[test]
    fn bound_is_an_upper_bound() {
        let spec = WorkloadSpec::new(GraphClass::Rmat, WeightDist::PolyLog, 7, 5);
        let el = spec.generate();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let table = HubDistances::precompute(&solver, &[1, 2, 3, 4]);
        let d1 = dijkstra(&g, 10);
        for t in (0..g.n() as u32).step_by(13) {
            let bound = table.via_hub_bound(10, t);
            assert!(bound >= d1[t as usize], "t={t}");
        }
    }

    #[test]
    fn hub_table_shape_and_symmetry() {
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let table = HubDistances::precompute(&solver, &[0, 5]);
        let hh = table.hub_table();
        assert_eq!(hh.len(), 2);
        assert_eq!(hh[0][0], 0);
        assert_eq!(hh[0][1], hh[1][0], "undirected: symmetric hub table");
        assert_eq!(hh[0][1], 10);
        assert!(table.heap_bytes() > 0);
    }

    #[test]
    fn disconnected_hubs_give_inf_bound() {
        let el = mmt_graph::types::EdgeList::from_triples(4, [(0, 1, 2), (2, 3, 2)]);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let table = HubDistances::precompute(&solver, &[0]);
        assert_eq!(table.via_hub_bound(2, 3), INF, "hub sees neither endpoint");
        assert_eq!(table.best_hub(2, 3), None);
    }
}
