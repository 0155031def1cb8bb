//! Layout-aware solving: run Thorup on a relabeled graph, answer in
//! original vertex ids.
//!
//! The MTA-2 the paper targets has uniform-latency memory; this port runs
//! on cache hierarchies, where the order vertices occupy memory decides how
//! many cache lines a traversal touches (DESIGN.md §1). A [`GraphLayout`]
//! bundles a permuted graph, the matching leaf-permuted Component
//! Hierarchy, and the [`VertexPermutation`] connecting them to the caller's
//! id space; [`LayoutSolver`] solves in the permuted space and translates
//! at the boundary — sources map in O(1), distance vectors scatter back in
//! one O(n) pass per query. The [`QueryService`](crate::QueryService)
//! always solves on the graph as registered; layouts are for direct
//! callers such as the layout bench and its verify engines.
//!
//! The [`LayoutKind::ChDfs`] order comes from the hierarchy itself
//! (`ComponentHierarchy::dfs_leaf_order`): it makes every Thorup component
//! index-contiguous, so the solver's per-component vertex sweeps become
//! sequential memory walks.

use crate::batch::BatchSolver;
use crate::error::InputError;
use crate::solver::ThorupSolver;
use mmt_ch::ComponentHierarchy;
use mmt_graph::types::{Dist, VertexId};
use mmt_graph::{CsrGraph, VertexPermutation};
use std::sync::Arc;

/// Which vertex order a layout relabels the graph into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LayoutKind {
    /// Generator order — no relabeling (the before-side of every
    /// locality measurement).
    #[default]
    Natural,
    /// Breadth-first from the highest-degree vertex
    /// ([`VertexPermutation::bfs`]).
    Bfs,
    /// Descending-degree order ([`VertexPermutation::degree_sorted`]).
    Degree,
    /// Depth-first leaf order of the Component Hierarchy
    /// (`ComponentHierarchy::dfs_leaf_order`): Thorup components become
    /// index-contiguous.
    ChDfs,
}

impl LayoutKind {
    /// The label used in bench artifacts and engine names.
    pub fn short_name(self) -> &'static str {
        match self {
            LayoutKind::Natural => "natural",
            LayoutKind::Bfs => "bfs",
            LayoutKind::Degree => "degree",
            LayoutKind::ChDfs => "chdfs",
        }
    }

    /// Every kind, in bench-grid order.
    pub fn all() -> [LayoutKind; 4] {
        [
            LayoutKind::Natural,
            LayoutKind::Bfs,
            LayoutKind::Degree,
            LayoutKind::ChDfs,
        ]
    }

    /// Computes this kind's permutation for `(graph, ch)`, or `None` for
    /// [`LayoutKind::Natural`] (identity — skip the relabeling entirely).
    pub fn permutation(
        self,
        graph: &CsrGraph,
        ch: &ComponentHierarchy,
    ) -> Option<VertexPermutation> {
        match self {
            LayoutKind::Natural => None,
            LayoutKind::Bfs => Some(VertexPermutation::bfs(graph)),
            LayoutKind::Degree => Some(VertexPermutation::degree_sorted(graph)),
            LayoutKind::ChDfs => Some(ch.dfs_leaf_order()),
        }
    }
}

/// A graph, its Component Hierarchy, and the ordering they were relabeled
/// into — everything a solver needs to run in the permuted id space and
/// everything a facade needs to translate back out.
///
/// Cloning is cheap (`Arc`s all the way down); one layout can back many
/// solvers and verify engines at once, exactly like the unpermuted
/// structures it wraps.
#[derive(Debug, Clone)]
pub struct GraphLayout {
    kind: LayoutKind,
    graph: Arc<CsrGraph>,
    ch: Arc<ComponentHierarchy>,
    /// `None` for the natural layout: internal and original ids coincide.
    perm: Option<Arc<VertexPermutation>>,
}

impl GraphLayout {
    /// Relabels `(graph, ch)` into `kind`'s order. For
    /// [`LayoutKind::Natural`] the inputs are shared as-is (no copy).
    ///
    /// Cost: one `O(n + m)` graph rebuild plus an `O(nodes)` hierarchy
    /// leaf remap — paid once, amortised over every query served on the
    /// layout.
    pub fn build(
        kind: LayoutKind,
        graph: Arc<CsrGraph>,
        ch: Arc<ComponentHierarchy>,
    ) -> Result<Self, InputError> {
        if graph.n() != ch.n() {
            return Err(InputError::GraphMismatch {
                graph_n: graph.n(),
                ch_n: ch.n(),
            });
        }
        match kind.permutation(&graph, &ch) {
            None => Ok(Self {
                kind,
                graph,
                ch,
                perm: None,
            }),
            Some(perm) => {
                let pg = Arc::new(graph.permuted(&perm));
                let pch = Arc::new(ch.permute_leaves(&perm));
                Ok(Self {
                    kind,
                    graph: pg,
                    ch: pch,
                    perm: Some(Arc::new(perm)),
                })
            }
        }
    }

    /// The ordering this layout uses.
    pub fn kind(&self) -> LayoutKind {
        self.kind
    }

    /// The graph in layout order.
    pub fn graph(&self) -> &Arc<CsrGraph> {
        &self.graph
    }

    /// The hierarchy with leaves in layout order.
    pub fn hierarchy(&self) -> &Arc<ComponentHierarchy> {
        &self.ch
    }

    /// The permutation, or `None` for the natural layout.
    pub fn permutation(&self) -> Option<&Arc<VertexPermutation>> {
        self.perm.as_ref()
    }

    /// Maps an original vertex id into the layout's internal id space.
    #[inline]
    pub fn to_internal(&self, v: VertexId) -> VertexId {
        match &self.perm {
            Some(p) => p.to_new(v),
            None => v,
        }
    }

    /// Maps an internal vertex id back to the caller's original id.
    #[inline]
    pub fn to_original(&self, v: VertexId) -> VertexId {
        match &self.perm {
            Some(p) => p.to_old(v),
            None => v,
        }
    }

    /// Reorders a distance vector indexed by internal ids into original
    /// order, into `out` (cleared; no allocation once `out` has capacity).
    /// The natural layout copies straight through.
    pub fn scatter_into(&self, internal: &[Dist], out: &mut Vec<Dist>) {
        match &self.perm {
            Some(p) => p.scatter_to_original(internal, out),
            None => {
                out.clear();
                out.extend_from_slice(internal);
            }
        }
    }

    /// A Thorup solver over the layout's internal id space. Callers using
    /// it directly must translate ids themselves — or use [`LayoutSolver`],
    /// which does it for them.
    pub fn solver(&self) -> ThorupSolver<'_> {
        ThorupSolver::new(&self.graph, &self.ch)
    }
}

/// A pooled Thorup solver over a [`GraphLayout`] that speaks original
/// vertex ids: sources are mapped in, distance vectors scattered back out.
///
/// Wraps a [`BatchSolver`] (pooled instances + result buffers), so
/// repeated queries reach the same zero-allocation steady state as the
/// unpermuted path — the only extra work per query is the O(n) scatter.
///
/// ```
/// use std::sync::Arc;
/// use mmt_ch::build_parallel;
/// use mmt_graph::{gen::shapes, CsrGraph};
/// use mmt_thorup::{GraphLayout, LayoutKind, LayoutSolver};
///
/// let el = shapes::figure_one();
/// let g = Arc::new(CsrGraph::from_edge_list(&el));
/// let ch = Arc::new(build_parallel(&el));
/// let layout = GraphLayout::build(LayoutKind::ChDfs, g, ch).unwrap();
/// let solver = LayoutSolver::new(&layout);
/// assert_eq!(solver.solve(0), vec![0, 1, 1, 9, 10, 10]); // original ids
/// ```
#[derive(Debug)]
pub struct LayoutSolver<'a> {
    layout: &'a GraphLayout,
    batch: BatchSolver<'a>,
}

impl<'a> LayoutSolver<'a> {
    /// A solver over `layout` with fresh instance/result pools.
    pub fn new(layout: &'a GraphLayout) -> Self {
        let solver = ThorupSolver::new(layout.graph(), layout.hierarchy());
        Self {
            layout,
            batch: BatchSolver::new(&solver),
        }
    }

    /// The layout this solver answers through.
    pub fn layout(&self) -> &GraphLayout {
        self.layout
    }

    /// Full SSSP from `source` (an original id), distances in original
    /// vertex order.
    pub fn solve(&self, source: VertexId) -> Vec<Dist> {
        let internal = self.batch.solve_one(self.layout.to_internal(source));
        let mut out = Vec::with_capacity(internal.len());
        self.layout.scatter_into(&internal, &mut out);
        out
    }

    /// One SSSP per source, solved simultaneously; rows in input order,
    /// each in original vertex order.
    pub fn solve_batch(&self, sources: &[VertexId]) -> Vec<Vec<Dist>> {
        let internal: Vec<VertexId> = sources
            .iter()
            .map(|&s| self.layout.to_internal(s))
            .collect();
        self.batch
            .solve_batch(&internal)
            .into_iter()
            .map(|row| {
                let mut out = Vec::with_capacity(row.len());
                self.layout.scatter_into(&row, &mut out);
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_baselines::dijkstra;
    use mmt_ch::{build_serial, ChMode};
    use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};

    fn fixture(seed: u64) -> (Arc<CsrGraph>, Arc<ComponentHierarchy>) {
        let mut spec = WorkloadSpec::new(GraphClass::Rmat, WeightDist::PolyLog, 7, 8);
        spec.seed = seed;
        let el = spec.generate();
        (
            Arc::new(CsrGraph::from_edge_list(&el)),
            Arc::new(build_serial(&el, ChMode::Collapsed)),
        )
    }

    #[test]
    fn every_layout_answers_in_original_ids() {
        let (g, ch) = fixture(31);
        for kind in LayoutKind::all() {
            let layout = GraphLayout::build(kind, Arc::clone(&g), Arc::clone(&ch)).unwrap();
            let solver = LayoutSolver::new(&layout);
            for s in [0u32, 17, 99] {
                assert_eq!(
                    solver.solve(s),
                    dijkstra(&g, s),
                    "{} source {s}",
                    kind.short_name()
                );
            }
        }
    }

    #[test]
    fn layout_batches_match_and_reuse_pools() {
        let (g, ch) = fixture(77);
        let layout = GraphLayout::build(LayoutKind::ChDfs, Arc::clone(&g), ch).unwrap();
        let solver = LayoutSolver::new(&layout);
        let sources: Vec<u32> = (0..10).map(|i| i * 13 % g.n() as u32).collect();
        let want: Vec<Vec<Dist>> = sources.iter().map(|&s| dijkstra(&g, s)).collect();
        for _ in 0..3 {
            assert_eq!(solver.solve_batch(&sources), want);
        }
    }

    #[test]
    fn natural_layout_shares_inputs() {
        let (g, ch) = fixture(5);
        let layout =
            GraphLayout::build(LayoutKind::Natural, Arc::clone(&g), Arc::clone(&ch)).unwrap();
        assert!(Arc::ptr_eq(layout.graph(), &g));
        assert!(Arc::ptr_eq(layout.hierarchy(), &ch));
        assert!(layout.permutation().is_none());
        assert_eq!(layout.to_internal(42), 42);
        assert_eq!(layout.to_original(42), 42);
    }

    #[test]
    fn permuted_hierarchy_is_valid_for_the_permuted_graph() {
        let (g, ch) = fixture(13);
        for kind in [LayoutKind::Bfs, LayoutKind::Degree, LayoutKind::ChDfs] {
            let layout = GraphLayout::build(kind, Arc::clone(&g), Arc::clone(&ch)).unwrap();
            layout
                .hierarchy()
                .validate(Some(layout.graph()))
                .unwrap_or_else(|e| panic!("{}: {e}", kind.short_name()));
        }
    }

    #[test]
    fn mismatched_inputs_are_a_typed_error() {
        let (g, _) = fixture(1);
        let (_, other_ch) = {
            let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 5, 4);
            spec.seed = 2;
            let el = spec.generate();
            ((), Arc::new(build_serial(&el, ChMode::Collapsed)))
        };
        assert!(matches!(
            GraphLayout::build(LayoutKind::Bfs, g, other_ch),
            Err(InputError::GraphMismatch { .. })
        ));
    }
}
