//! Shared-arena CSR: one `Arc`-owned arc array, many lightweight views.
//!
//! [`SplitCsr`] and [`CompactSplitCsr`] duplicate the full adjacency
//! payload per `(graph, Δ)` pair — serving several Δ choices (or several
//! tenants) from one process multiplies the dominant `O(m)` arrays.
//! Following the arena-plus-views representation of Dhulipala et al.
//! (GBBS), a [`CsrArena`] stores each graph's arcs **exactly once**, with
//! every per-vertex adjacency list sorted ascending by weight. For any
//! bucket width Δ the light (`w ≤ Δ`) edges are then a *prefix* of the
//! sorted list, so a [`SplitView`] needs only an `n`-entry prefix-length
//! vector — `O(n)` marginal bytes per Δ instead of `O(n + m)` duplicated
//! payload — and any number of views share the arena through an `Arc`.
//!
//! The [`SplitAdjacency`] trait abstracts over the duplicating and
//! offset-view representations, so the Δ-stepping kernels run unchanged
//! (and are differentially tested) on both.

use crate::compact::{CompactError, COMPACT_DIST_INF};
use crate::csr::CsrGraph;
use crate::split::SplitCsr;
use crate::types::{VertexId, Weight};
use std::sync::Arc;

/// The light/heavy adjacency contract shared by every pre-split CSR
/// representation: per vertex, the light (`w ≤ Δ`) neighbours and the
/// heavy (`w > Δ`) neighbours as parallel `(targets, weights)` slices.
///
/// The *multiset* of arcs per partition is what the contract fixes; the
/// order within a partition is representation-defined ([`SplitCsr`] keeps
/// source order, [`SplitView`] is weight-sorted).
pub trait SplitAdjacency {
    /// Number of vertices.
    fn n(&self) -> usize;
    /// Number of directed arcs.
    fn num_arcs(&self) -> usize;
    /// The bucket width this representation was split for.
    fn delta(&self) -> Weight;
    /// Largest edge weight of the source graph.
    fn max_weight(&self) -> Weight;
    /// The light (`w ≤ Δ`) neighbours of `v`, as parallel slices.
    fn light(&self, v: VertexId) -> (&[VertexId], &[Weight]);
    /// The heavy (`w > Δ`) neighbours of `v`, as parallel slices.
    fn heavy(&self, v: VertexId) -> (&[VertexId], &[Weight]);
    /// Degree of `v` (light + heavy).
    fn degree(&self, v: VertexId) -> usize {
        self.light(v).0.len() + self.heavy(v).0.len()
    }
}

/// Marker for split representations certified safe for saturating `u32`
/// tentative distances (arc count fits `u32`, undirected weight sum stays
/// below [`COMPACT_DIST_INF`]). Stepping on the `u32` distance cell only
/// accepts these.
pub trait CompactCertified: SplitAdjacency {}

impl SplitAdjacency for SplitCsr {
    fn n(&self) -> usize {
        SplitCsr::n(self)
    }
    fn num_arcs(&self) -> usize {
        SplitCsr::num_arcs(self)
    }
    fn delta(&self) -> Weight {
        SplitCsr::delta(self)
    }
    fn max_weight(&self) -> Weight {
        SplitCsr::max_weight(self)
    }
    fn light(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        SplitCsr::light(self, v)
    }
    fn heavy(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        SplitCsr::heavy(self, v)
    }
    fn degree(&self, v: VertexId) -> usize {
        SplitCsr::degree(self, v)
    }
}

impl SplitAdjacency for crate::compact::CompactSplitCsr {
    fn n(&self) -> usize {
        crate::compact::CompactSplitCsr::n(self)
    }
    fn num_arcs(&self) -> usize {
        crate::compact::CompactSplitCsr::num_arcs(self)
    }
    fn delta(&self) -> Weight {
        crate::compact::CompactSplitCsr::delta(self)
    }
    fn max_weight(&self) -> Weight {
        crate::compact::CompactSplitCsr::max_weight(self)
    }
    fn light(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        crate::compact::CompactSplitCsr::light(self, v)
    }
    fn heavy(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        crate::compact::CompactSplitCsr::heavy(self, v)
    }
    fn degree(&self, v: VertexId) -> usize {
        crate::compact::CompactSplitCsr::degree(self, v)
    }
}

impl CompactCertified for crate::compact::CompactSplitCsr {}

/// An immutable, `Arc`-shared CSR whose per-vertex adjacency is sorted
/// ascending by weight (ties by target id, so construction is
/// deterministic).
///
/// The weight-sort is what makes Δ-splits free: for any Δ the light edges
/// of every vertex form a prefix of its sorted list, so
/// [`CsrArena::split`] produces an [`SplitView`] holding only an
/// `n`-entry prefix-length vector. Neighbour order is irrelevant to SSSP
/// correctness, so every solver in the workspace (Thorup included) runs
/// directly on [`CsrArena::graph`] — one arc array serves the hierarchy
/// traversal *and* every Δ view.
///
/// ```
/// use mmt_graph::types::EdgeList;
/// use mmt_graph::{CsrArena, CsrGraph, SplitAdjacency};
///
/// let el = EdgeList::from_triples(3, [(0, 1, 9), (0, 2, 2)]);
/// let arena = CsrArena::new(&CsrGraph::from_edge_list(&el));
/// let view = arena.split(3);
/// assert_eq!(view.light(0).0, &[2]); // w = 2 ≤ Δ
/// assert_eq!(view.heavy(0).0, &[1]); // w = 9 > Δ
/// ```
#[derive(Debug, Clone)]
pub struct CsrArena {
    graph: Arc<CsrGraph>,
}

impl CsrArena {
    /// Builds the weight-sorted arena copy of `g`. `O(n + m log deg)`;
    /// pay it once per graph, then derive every Δ split for `O(n)` each.
    pub fn new(g: &CsrGraph) -> Arc<Self> {
        let n = g.n();
        let mut offsets = vec![0u64; n + 1];
        let mut targets = vec![0 as VertexId; g.num_arcs()];
        let mut weights = vec![0 as Weight; g.num_arcs()];
        let mut pairs: Vec<(Weight, VertexId)> = Vec::new();
        let mut base = 0usize;
        for v in g.vertices() {
            let (ts, ws) = g.neighbors(v);
            offsets[v as usize] = base as u64;
            pairs.clear();
            pairs.extend(ws.iter().copied().zip(ts.iter().copied()));
            pairs.sort_unstable();
            for (i, &(w, t)) in pairs.iter().enumerate() {
                targets[base + i] = t;
                weights[base + i] = w;
            }
            base += pairs.len();
        }
        offsets[n] = base as u64;
        let graph = Arc::new(CsrGraph::from_parts(
            offsets,
            targets,
            weights,
            n,
            g.m(),
            g.max_weight(),
        ));
        Arc::new(Self { graph })
    }

    /// The arena-backed graph (weight-sorted adjacency, same vertex set
    /// and arc multiset as the source graph). Share it via `Arc::clone`;
    /// every clone references the same arc arrays.
    pub fn graph(&self) -> &Arc<CsrGraph> {
        &self.graph
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of directed arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.graph.num_arcs()
    }

    /// Heap bytes of the shared arc payload (offsets + targets +
    /// weights) — stored once however many views and solvers share the
    /// arena.
    pub fn arc_bytes(&self) -> usize {
        self.graph.heap_bytes()
    }

    /// Derives the Δ-split offset view: `O(n log deg)` binary searches,
    /// `O(n)` marginal bytes, zero arc duplication. `w == Δ` is light,
    /// matching [`SplitCsr`].
    pub fn split(self: &Arc<Self>, delta: Weight) -> SplitView {
        let n = self.n();
        let light_len = (0..n)
            .map(|v| {
                let (_, ws) = self.graph.neighbors(v as VertexId);
                ws.partition_point(|&w| w <= delta) as u32
            })
            .collect();
        SplitView {
            arena: Arc::clone(self),
            light_len,
            delta,
        }
    }

    /// As [`split`](Self::split), certified for `u32` tentative
    /// distances (the [`CompactCertified`] contract). Refuses graphs the
    /// duplicating [`crate::compact::CompactSplitCsr`] would refuse, for
    /// the same reasons.
    pub fn compact_split(
        self: &Arc<Self>,
        delta: Weight,
    ) -> Result<CompactSplitView, CompactError> {
        let arcs = self.num_arcs() as u64;
        if arcs > u32::MAX as u64 {
            return Err(CompactError::TooManyArcs { arcs });
        }
        let sum = self.graph.total_arc_weight() / 2;
        if sum >= COMPACT_DIST_INF as u64 {
            return Err(CompactError::WeightSumTooLarge { sum });
        }
        Ok(CompactSplitView {
            view: self.split(delta),
        })
    }
}

impl mmt_platform::MemFootprint for CsrArena {
    fn heap_bytes(&self) -> usize {
        self.arc_bytes()
    }
}

/// A Δ-split **offset view** over a shared [`CsrArena`]: the arena's
/// weight-sorted adjacency plus one `u32` light-prefix length per vertex.
///
/// Per-partition arc *multisets* match [`SplitCsr`] exactly; the order
/// within a partition is weight-sorted rather than source-ordered, which
/// no kernel depends on (differentially tested in `mmt-verify`).
#[derive(Debug, Clone)]
pub struct SplitView {
    arena: Arc<CsrArena>,
    light_len: Vec<u32>,
    delta: Weight,
}

impl SplitView {
    /// The arena this view borrows its arcs from.
    pub fn arena(&self) -> &Arc<CsrArena> {
        &self.arena
    }

    /// Marginal heap bytes of this view — the prefix-length vector only.
    /// The `O(m)` arc payload lives in the shared arena and is *not*
    /// counted here; that is the whole point.
    pub fn view_bytes(&self) -> usize {
        self.light_len.capacity() * std::mem::size_of::<u32>()
    }
}

impl SplitAdjacency for SplitView {
    #[inline]
    fn n(&self) -> usize {
        self.arena.n()
    }
    #[inline]
    fn num_arcs(&self) -> usize {
        self.arena.num_arcs()
    }
    #[inline]
    fn delta(&self) -> Weight {
        self.delta
    }
    #[inline]
    fn max_weight(&self) -> Weight {
        self.arena.graph.max_weight()
    }
    #[inline]
    fn light(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        let (ts, ws) = self.arena.graph.neighbors(v);
        let k = self.light_len[v as usize] as usize;
        (&ts[..k], &ws[..k])
    }
    #[inline]
    fn heavy(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        let (ts, ws) = self.arena.graph.neighbors(v);
        let k = self.light_len[v as usize] as usize;
        (&ts[k..], &ws[k..])
    }
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.arena.graph.degree(v)
    }
}

impl mmt_platform::MemFootprint for SplitView {
    /// Only the view's own bytes; the shared arena is accounted once by
    /// whoever owns it.
    fn heap_bytes(&self) -> usize {
        self.view_bytes()
    }
}

/// A [`SplitView`] additionally certified for saturating `u32` tentative
/// distances — the offset-view counterpart of
/// [`crate::compact::CompactSplitCsr`]. Construct via
/// [`CsrArena::compact_split`].
#[derive(Debug, Clone)]
pub struct CompactSplitView {
    view: SplitView,
}

impl CompactSplitView {
    /// The underlying offset view.
    pub fn view(&self) -> &SplitView {
        &self.view
    }

    /// Marginal heap bytes of this view (see [`SplitView::view_bytes`]).
    pub fn view_bytes(&self) -> usize {
        self.view.view_bytes()
    }
}

impl SplitAdjacency for CompactSplitView {
    #[inline]
    fn n(&self) -> usize {
        self.view.n()
    }
    #[inline]
    fn num_arcs(&self) -> usize {
        self.view.num_arcs()
    }
    #[inline]
    fn delta(&self) -> Weight {
        self.view.delta()
    }
    #[inline]
    fn max_weight(&self) -> Weight {
        self.view.max_weight()
    }
    #[inline]
    fn light(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        self.view.light(v)
    }
    #[inline]
    fn heavy(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        self.view.heavy(v)
    }
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.view.degree(v)
    }
}

impl CompactCertified for CompactSplitView {}

impl mmt_platform::MemFootprint for CompactSplitView {
    fn heap_bytes(&self) -> usize {
        self.view.view_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GraphClass, WeightDist, WorkloadSpec};
    use crate::types::EdgeList;
    use mmt_platform::MemFootprint;

    fn workload(seed: u64) -> CsrGraph {
        let mut spec = WorkloadSpec::new(GraphClass::Rmat, WeightDist::PolyLog, 8, 10);
        spec.seed = seed;
        CsrGraph::from_edge_list(&spec.generate())
    }

    fn sorted_pairs(ts: &[VertexId], ws: &[Weight]) -> Vec<(VertexId, Weight)> {
        let mut v: Vec<_> = ts.iter().copied().zip(ws.iter().copied()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn arena_adjacency_is_weight_sorted_and_arc_preserving() {
        let g = workload(3);
        let arena = CsrArena::new(&g);
        let a = arena.graph();
        assert_eq!(a.n(), g.n());
        assert_eq!(a.num_arcs(), g.num_arcs());
        assert_eq!(a.max_weight(), g.max_weight());
        for v in g.vertices() {
            let (_, ws) = a.neighbors(v);
            assert!(ws.windows(2).all(|p| p[0] <= p[1]), "vertex {v} sorted");
            let (ts0, ws0) = g.neighbors(v);
            assert_eq!(
                sorted_pairs(a.neighbors(v).0, a.neighbors(v).1),
                sorted_pairs(ts0, ws0),
                "vertex {v} multiset"
            );
        }
    }

    #[test]
    fn view_partitions_match_the_duplicating_split() {
        let g = workload(7);
        let arena = CsrArena::new(&g);
        for delta in [0, 1, 7, 100, u32::MAX] {
            let dup = SplitCsr::new(&g, delta);
            let view = arena.split(delta);
            assert_eq!(view.n(), dup.n());
            assert_eq!(view.num_arcs(), dup.num_arcs());
            assert_eq!(view.delta(), dup.delta());
            assert_eq!(view.max_weight(), dup.max_weight());
            for v in g.vertices() {
                let (lt, lw) = view.light(v);
                assert!(lw.iter().all(|&w| w <= delta));
                assert!(view.heavy(v).1.iter().all(|&w| w > delta));
                assert_eq!(
                    sorted_pairs(lt, lw),
                    sorted_pairs(dup.light(v).0, dup.light(v).1),
                    "vertex {v} light multiset at delta {delta}"
                );
                assert_eq!(
                    sorted_pairs(view.heavy(v).0, view.heavy(v).1),
                    sorted_pairs(dup.heavy(v).0, dup.heavy(v).1),
                    "vertex {v} heavy multiset at delta {delta}"
                );
                assert_eq!(view.degree(v), dup.degree(v));
            }
        }
    }

    #[test]
    fn many_views_share_one_arc_array() {
        let g = workload(11);
        let arena = CsrArena::new(&g);
        let views: Vec<SplitView> = [1u32, 5, 25, 125].iter().map(|&d| arena.split(d)).collect();
        // Every view references the same graph allocation.
        for v in &views {
            assert!(Arc::ptr_eq(v.arena().graph(), arena.graph()));
        }
        // Resident accounting: one arena + k O(n) views stays far below k
        // duplicated SplitCsrs.
        let shared = arena.arc_bytes() + views.iter().map(SplitView::view_bytes).sum::<usize>();
        let duplicated: usize = [1u32, 5, 25, 125]
            .iter()
            .map(|&d| SplitCsr::new(&g, d).heap_bytes())
            .sum();
        assert!(
            shared < duplicated / 2,
            "shared {shared} bytes must be far below duplicated {duplicated}"
        );
        // And each additional view costs O(n), not O(m).
        assert_eq!(
            views[0].view_bytes(),
            g.n() * std::mem::size_of::<u32>().max(1)
        );
    }

    #[test]
    fn compact_view_certification_matches_the_duplicating_path() {
        let g = workload(13);
        let arena = CsrArena::new(&g);
        assert!(arena.compact_split(9).is_ok());
        // The same refusal as CompactSplitCsr for oversized weight sums.
        let el = EdgeList::from_triples(3, [(0, 1, u32::MAX), (1, 2, u32::MAX)]);
        let big = CsrArena::new(&CsrGraph::from_edge_list(&el));
        match big.compact_split(8) {
            Err(CompactError::WeightSumTooLarge { sum }) => {
                assert_eq!(sum, 2 * u32::MAX as u64)
            }
            other => panic!("expected WeightSumTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_boundary_graphs() {
        let empty = CsrArena::new(&CsrGraph::from_edge_list(&EdgeList::new(0)));
        assert_eq!(empty.n(), 0);
        let v = empty.split(4);
        assert_eq!(v.num_arcs(), 0);
        assert_eq!(v.view_bytes(), 0);

        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(5, [(0, 1, 2)]));
        let arena = CsrArena::new(&g);
        let view = arena.split(2); // w == Δ is light
        assert_eq!(view.light(0).0, &[1]);
        assert!(view.heavy(0).0.is_empty());
        assert!(view.light(3).0.is_empty() && view.heavy(3).0.is_empty());
    }

    #[test]
    fn footprints_count_only_owned_bytes() {
        let g = workload(17);
        let arena = CsrArena::new(&g);
        let view = arena.split(6);
        assert_eq!(MemFootprint::heap_bytes(&view), view.view_bytes());
        assert!(MemFootprint::heap_bytes(&*arena) >= g.num_arcs() * 8);
    }
}
