//! Per-query mutable state for one Thorup SSSP computation.
//!
//! The paper's headline economics (Section 5.2): "It is more memory
//! efficient to allocate a new instance of the CH than it is to create a
//! copy of the entire graph. Thus, multiple Thorup queries using a shared
//! CH is more efficient than several Δ-stepping queries each with a
//! separate copy of the graph." Everything a query mutates lives here —
//! the graph and the hierarchy stay frozen and shared:
//!
//! * `dist` — tentative distances (one atomic per vertex);
//! * `mind` — per-CH-node lower bound on the minimum tentative distance of
//!   its unsettled vertices (the paper's `minD`; `INF` once every vertex
//!   below is settled or unreachable, which ends a visit);
//! * `settled` — one bit per vertex.
//!
//! The distance/`mind` arrays are generic over
//! [`MinCell`](mmt_platform::MinCell): [`ThorupInstance`] is the wide
//! (`u64`) shape every existing caller uses, and [`CompactThorupInstance`]
//! halves both arrays to `u32` cells for graphs whose weight sum certifies
//! that no finite distance can reach the narrow sentinel — the Thorup-side
//! twin of the `u32`-cell Δ-stepping's locality argument. Solver
//! behaviour is bit-identical across widths (the `MinCell` bijection
//! contract); only the bytes per touched cell change.

use mmt_ch::ComponentHierarchy;
use mmt_graph::compact::COMPACT_DIST_INF;
use mmt_graph::types::{Dist, VertexId, INF};
use mmt_graph::{CompactError, CsrGraph};
use mmt_platform::scratch::BufferPool;
use mmt_platform::{AtomicBitSet, AtomicMinU32, AtomicMinU64, MinCell};
use std::sync::atomic::{AtomicBool, Ordering};

/// Mutable state of one SSSP query over a shared Component Hierarchy,
/// generic over the distance-cell width (see the module docs).
#[derive(Debug)]
pub struct ThorupInstanceIn<C: MinCell> {
    pub(crate) dist: Vec<C>,
    pub(crate) mind: Vec<C>,
    pub(crate) settled: AtomicBitSet,
    /// Cooperative cancellation flag for targeted (s–t) queries.
    pub(crate) stop: AtomicBool,
    /// Recycled `toVisit` scan buffers: each visit frame borrows one for
    /// all of its phases, so steady-state scans allocate nothing. Survives
    /// [`reset`](Self::reset) — warm buffers are the point.
    pub(crate) scan_pool: BufferPool<u32>,
}

/// The wide (`u64`-cell) instance — the workspace default, valid for any
/// graph.
pub type ThorupInstance = ThorupInstanceIn<AtomicMinU64>;

/// The compact (`u32`-cell) instance: `dist` and `mind` at half width.
/// Construct through [`CompactThorupInstance::try_new`], which certifies
/// the narrowing the same way `CompactSplitCsr` does.
pub type CompactThorupInstance = ThorupInstanceIn<AtomicMinU32>;

impl<C: MinCell> ThorupInstanceIn<C> {
    /// Allocates a fresh instance shaped for `ch`, ready for one query.
    ///
    /// For the compact width prefer [`CompactThorupInstance::try_new`],
    /// which certifies the graph first; this constructor trusts the
    /// caller's certification.
    pub fn new(ch: &ComponentHierarchy) -> Self {
        Self {
            dist: (0..ch.n()).map(|_| C::new_cell(INF)).collect(),
            mind: (0..ch.num_nodes()).map(|_| C::new_cell(INF)).collect(),
            settled: AtomicBitSet::new(ch.n()),
            stop: AtomicBool::new(false),
            scan_pool: BufferPool::new(),
        }
    }

    /// Re-arms a used instance for another query over the same hierarchy
    /// (cheaper than reallocating; `multi::QueryEngine` reuses instances
    /// this way).
    pub fn reset(&self, ch: &ComponentHierarchy) {
        assert_eq!(
            self.mind.len(),
            ch.num_nodes(),
            "instance/hierarchy mismatch"
        );
        for d in &self.dist {
            d.store(INF);
        }
        for m in &self.mind {
            m.store(INF);
        }
        self.settled.clear_all();
        self.stop.store(false, Ordering::Release);
    }

    /// Current tentative distance of `v`.
    #[inline]
    pub fn dist_of(&self, v: VertexId) -> Dist {
        self.dist[v as usize].load()
    }

    /// Snapshot of all distances (the query result).
    pub fn distances(&self) -> Vec<Dist> {
        self.dist.iter().map(|d| d.load()).collect()
    }

    /// Copies all distances into `out` (cleared first). Does not allocate
    /// when `out` already has the capacity — the batched serving path
    /// writes results into pooled buffers this way.
    pub fn copy_distances_into(&self, out: &mut Vec<Dist>) {
        out.clear();
        out.extend(self.dist.iter().map(|d| d.load()));
    }

    /// Number of `toVisit` scan buffers this instance has ever allocated.
    /// Flat across a window of queries ⇒ the scans ran allocation-free.
    pub fn scan_buffers_created(&self) -> usize {
        self.scan_pool.created()
    }

    /// True if `v` has been settled (`d(v) = δ(v)` finalised).
    #[inline]
    pub fn is_settled(&self, v: VertexId) -> bool {
        self.settled.get(v as usize)
    }

    /// Number of settled vertices.
    pub fn settled_count(&self) -> usize {
        self.settled.count_ones()
    }

    /// Heap bytes of this instance — the paper's Table 2 "Instance"
    /// column. Scales with the cell width: the compact instance halves the
    /// `dist` and `mind` terms.
    pub fn heap_bytes(&self) -> usize {
        self.dist.len() * std::mem::size_of::<C>()
            + self.mind.len() * std::mem::size_of::<C>()
            + self.dist.len().div_ceil(8)
    }
}

impl CompactThorupInstance {
    /// Allocates a compact instance for `ch`, first certifying on `graph`
    /// that `u32` cells are exact: at most `u32::MAX` arcs, and an
    /// undirected weight sum strictly below the narrow sentinel (shortest
    /// paths are simple, so every true finite distance then fits). Callers
    /// fall back to the wide [`ThorupInstance`] on `Err` — narrowing
    /// failure degrades memory economy, never correctness.
    pub fn try_new(ch: &ComponentHierarchy, graph: &CsrGraph) -> Result<Self, CompactError> {
        let arcs = graph.num_arcs() as u64;
        if arcs > u32::MAX as u64 {
            return Err(CompactError::TooManyArcs { arcs });
        }
        // Each undirected edge contributes its weight twice to
        // total_arc_weight; a simple path uses each edge at most once.
        let sum = graph.total_arc_weight() / 2;
        if sum >= COMPACT_DIST_INF as u64 {
            return Err(CompactError::WeightSumTooLarge { sum });
        }
        Ok(Self::new(ch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_ch::{build_serial, ChMode};
    use mmt_graph::gen::shapes;

    #[test]
    fn fresh_instance_is_armed() {
        let ch = build_serial(&shapes::figure_one(), ChMode::Collapsed);
        let inst = ThorupInstance::new(&ch);
        assert_eq!(inst.dist_of(0), INF);
        assert!(!inst.is_settled(3));
        assert_eq!(inst.settled_count(), 0);
        assert_eq!(inst.mind[ch.root() as usize].load(), INF);
    }

    #[test]
    fn reset_rearms() {
        let ch = build_serial(&shapes::figure_one(), ChMode::Collapsed);
        let inst = ThorupInstance::new(&ch);
        inst.dist[2].store(5);
        inst.mind[2].store(5);
        inst.settled.set(2);
        inst.stop.store(true, Ordering::Release);
        inst.reset(&ch);
        assert_eq!(inst.dist_of(2), INF);
        assert_eq!(inst.mind[2].load(), INF);
        assert!(!inst.is_settled(2));
        assert!(!inst.stop.load(Ordering::Acquire));
    }

    #[test]
    fn heap_bytes_match_stats_formula() {
        let ch = build_serial(&shapes::path(9, 1), ChMode::Collapsed);
        let inst = ThorupInstance::new(&ch);
        assert_eq!(inst.heap_bytes(), mmt_ch::stats::instance_bytes(&ch));
    }

    #[test]
    fn compact_instance_halves_the_cell_arrays() {
        let el = shapes::figure_one();
        let g = mmt_graph::CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let wide = ThorupInstance::new(&ch);
        let compact = CompactThorupInstance::try_new(&ch, &g).unwrap();
        let cells = ch.n() + ch.num_nodes();
        assert_eq!(wide.heap_bytes() - compact.heap_bytes(), cells * 4);
        assert_eq!(compact.dist_of(0), INF, "fresh sentinel widens to INF");
    }

    #[test]
    fn compact_certification_rejects_heavy_graphs() {
        let el = mmt_graph::types::EdgeList::from_triples(3, [(0, 1, u32::MAX), (1, 2, u32::MAX)]);
        let g = mmt_graph::CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let err = CompactThorupInstance::try_new(&ch, &g).unwrap_err();
        assert!(matches!(err, CompactError::WeightSumTooLarge { .. }));
    }
}
