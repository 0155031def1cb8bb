//! Compact (all-`u32`) pre-split CSR for stepping on `u32` distance cells.
//!
//! The u64 structures in [`crate::split`] are sized for the worst case; on
//! the workloads the paper actually benchmarks, arc counts and shortest-path
//! distances comfortably fit 32 bits. [`CompactSplitCsr`] narrows the arc
//! offsets to `u32` and certifies that *tentative distances* fit `u32` too,
//! so a kernel can keep its distance array in half the bytes — fewer cache
//! lines per relaxation, which on a commodity host is the whole game
//! (DESIGN.md's locality substitution for the MTA-2's flat memory).
//!
//! Narrowing is checked, never silent: [`CompactSplitCsr::try_new`] refuses
//! graphs whose arc count exceeds `u32::MAX` or whose undirected weight sum
//! reaches [`COMPACT_DIST_INF`]. The weight-sum bound is sufficient because
//! shortest paths are simple: every true finite distance is at most the sum
//! of all undirected edge weights, so it fits strictly below the sentinel
//! and a saturating-add kernel can never clamp a *correct* value — only
//! spurious over-estimates, which a label-correcting kernel discards anyway.

use crate::csr::CsrGraph;
use crate::types::{Dist, VertexId, Weight, INF};

/// The `u32` "infinity" sentinel of narrow distance cells (unreached).
/// Maps to [`INF`] on the way back out to the `u64` world.
pub const COMPACT_DIST_INF: u32 = u32::MAX;

/// Why a graph cannot be represented compactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactError {
    /// More than `u32::MAX` directed arcs — offsets would overflow.
    TooManyArcs {
        /// The offending arc count.
        arcs: u64,
    },
    /// The undirected weight sum reaches the `u32` distance sentinel, so a
    /// true shortest-path distance might not fit 32 bits.
    WeightSumTooLarge {
        /// Sum of undirected edge weights.
        sum: u64,
    },
}

impl std::fmt::Display for CompactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactError::TooManyArcs { arcs } => {
                write!(f, "{arcs} arcs exceed the u32 offset range")
            }
            CompactError::WeightSumTooLarge { sum } => write!(
                f,
                "undirected weight sum {sum} >= {COMPACT_DIST_INF}: u32 distances unsafe"
            ),
        }
    }
}

impl std::error::Error for CompactError {}

/// A light/heavy pre-split CSR with `u32` offsets, certified safe for
/// saturating `u32` tentative distances.
///
/// Same arc layout contract as [`crate::SplitCsr`] (light prefix, heavy
/// suffix per vertex; `w == Δ` is light) — only the index width differs.
///
/// ```
/// use mmt_graph::compact::CompactSplitCsr;
/// use mmt_graph::types::EdgeList;
/// use mmt_graph::CsrGraph;
///
/// let el = EdgeList::from_triples(3, [(0, 1, 2), (0, 2, 9)]);
/// let g = CsrGraph::from_edge_list(&el);
/// let c = CompactSplitCsr::try_new(&g, 3).unwrap();
/// assert_eq!(c.light(0).0, &[1]);
/// assert_eq!(c.heavy(0).0, &[2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactSplitCsr {
    offsets: Vec<u32>,
    light_end: Vec<u32>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
    delta: Weight,
    n: usize,
    max_weight: Weight,
}

impl CompactSplitCsr {
    /// Builds the compact split view of `g` for bucket width `delta`, or
    /// reports why the graph cannot be narrowed. `O(n + m)`.
    pub fn try_new(g: &CsrGraph, delta: Weight) -> Result<Self, CompactError> {
        let arcs = g.num_arcs() as u64;
        if arcs > u32::MAX as u64 {
            return Err(CompactError::TooManyArcs { arcs });
        }
        // Each undirected edge contributes its weight twice to
        // total_arc_weight; a simple path uses each edge at most once.
        let sum = g.total_arc_weight() / 2;
        if sum >= COMPACT_DIST_INF as u64 {
            return Err(CompactError::WeightSumTooLarge { sum });
        }
        let n = g.n();
        let mut offsets = vec![0u32; n + 1];
        let mut light_end = vec![0u32; n];
        let mut targets = vec![0 as VertexId; g.num_arcs()];
        let mut weights = vec![0 as Weight; g.num_arcs()];
        let mut base = 0u32;
        for v in g.vertices() {
            let (ts, ws) = g.neighbors(v);
            offsets[v as usize] = base;
            let mut cursor = base as usize;
            for (&t, &w) in ts.iter().zip(ws) {
                if w <= delta {
                    targets[cursor] = t;
                    weights[cursor] = w;
                    cursor += 1;
                }
            }
            light_end[v as usize] = cursor as u32;
            for (&t, &w) in ts.iter().zip(ws) {
                if w > delta {
                    targets[cursor] = t;
                    weights[cursor] = w;
                    cursor += 1;
                }
            }
            base += ts.len() as u32;
            debug_assert_eq!(cursor as u32, base);
        }
        offsets[n] = base;
        Ok(Self {
            offsets,
            light_end,
            targets,
            weights,
            delta,
            n,
            max_weight: g.max_weight(),
        })
    }

    /// The bucket width this view was split for.
    #[inline]
    pub fn delta(&self) -> Weight {
        self.delta
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of directed arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Largest edge weight of the source graph.
    #[inline]
    pub fn max_weight(&self) -> Weight {
        self.max_weight
    }

    /// The light (`w ≤ Δ`) neighbours of `v`, as parallel slices.
    #[inline]
    pub fn light(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.light_end[v as usize] as usize;
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// The heavy (`w > Δ`) neighbours of `v`, as parallel slices.
    #[inline]
    pub fn heavy(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        let lo = self.light_end[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Heap bytes of the compact view.
    pub fn heap_bytes(&self) -> usize {
        (self.offsets.capacity() + self.light_end.capacity()) * std::mem::size_of::<u32>()
            + self.targets.capacity() * std::mem::size_of::<VertexId>()
            + self.weights.capacity() * std::mem::size_of::<Weight>()
    }
}

impl mmt_platform::MemFootprint for CompactSplitCsr {
    fn heap_bytes(&self) -> usize {
        CompactSplitCsr::heap_bytes(self)
    }
}

/// Widens a compact distance array to the workspace's `u64` convention,
/// mapping [`COMPACT_DIST_INF`] to [`INF`].
pub fn widen_distances(narrow: &[u32], out: &mut Vec<Dist>) {
    out.clear();
    out.extend(narrow.iter().map(|&d| {
        if d == COMPACT_DIST_INF {
            INF
        } else {
            d as Dist
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::SplitCsr;
    use crate::types::EdgeList;

    #[test]
    fn matches_the_wide_split_layout() {
        let el = EdgeList::from_triples(4, [(0, 1, 3), (0, 2, 4), (0, 3, 5), (1, 2, 10)]);
        let g = CsrGraph::from_edge_list(&el);
        let wide = SplitCsr::new(&g, 4);
        let narrow = CompactSplitCsr::try_new(&g, 4).unwrap();
        assert_eq!(narrow.n(), wide.n());
        assert_eq!(narrow.num_arcs(), wide.num_arcs());
        assert_eq!(narrow.delta(), 4);
        assert_eq!(narrow.max_weight(), wide.max_weight());
        for v in g.vertices() {
            assert_eq!(narrow.light(v), wide.light(v));
            assert_eq!(narrow.heavy(v), wide.heavy(v));
            assert_eq!(narrow.degree(v), wide.degree(v));
        }
    }

    #[test]
    fn rejects_oversized_weight_sums() {
        // Two edges of u32::MAX weight: a simple path could need ~2^33.
        let el = EdgeList::from_triples(3, [(0, 1, u32::MAX), (1, 2, u32::MAX)]);
        let g = CsrGraph::from_edge_list(&el);
        match CompactSplitCsr::try_new(&g, 8) {
            Err(CompactError::WeightSumTooLarge { sum }) => {
                assert_eq!(sum, 2 * u32::MAX as u64);
            }
            other => panic!("expected WeightSumTooLarge, got {other:?}"),
        }
        // Just under the sentinel is accepted.
        let el = EdgeList::from_triples(2, [(0, 1, u32::MAX - 1)]);
        let g = CsrGraph::from_edge_list(&el);
        assert!(CompactSplitCsr::try_new(&g, 8).is_ok());
    }

    #[test]
    fn widen_maps_the_sentinel_to_inf() {
        let mut out = Vec::new();
        widen_distances(&[0, 7, COMPACT_DIST_INF], &mut out);
        assert_eq!(out, vec![0, 7, INF]);
    }

    #[test]
    fn compact_view_is_smaller_than_wide() {
        let el = EdgeList::from_triples(100, (0..99u32).map(|i| (i, i + 1, i % 9 + 1)));
        let g = CsrGraph::from_edge_list(&el);
        let wide = SplitCsr::new(&g, 4);
        let narrow = CompactSplitCsr::try_new(&g, 4).unwrap();
        assert!(narrow.heap_bytes() < wide.heap_bytes());
    }

    #[test]
    fn error_messages_render() {
        let e = CompactError::TooManyArcs {
            arcs: 5_000_000_000,
        };
        assert!(e.to_string().contains("arcs"));
        let e = CompactError::WeightSumTooLarge { sum: 1 << 40 };
        assert!(e.to_string().contains("unsafe"));
    }
}
