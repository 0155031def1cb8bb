//! Bidirectional Dijkstra for point-to-point (s–t) queries.
//!
//! The paper's road-network discussion is all about s–t queries ("transit
//! nodes make subsequent s-t shortest path queries extremely fast"); this
//! is the standard exact s–t engine those schemes fall back on, the oracle
//! the `transit_precompute` example measures its tables against, and — via
//! [`bidirectional_st`] — the served `p2p-bidi` solver behind the query
//! plane's `QueryRequest::st` shape.
//!
//! # Stopping criterion
//!
//! Two Dijkstra searches grow from `s` and `t` (on our undirected graphs
//! the backward search uses the same adjacency). Let `top(f)` / `top(b)`
//! be the smallest keys in the two heaps — lower bounds on the distance of
//! any vertex either side has yet to settle — and let `best` be the
//! cheapest meeting seen so far, i.e. `min over v of df(v) + db(v)` taken
//! at relax time. The scan terminates when
//!
//! ```text
//! top(f) + top(b) ≥ best
//! ```
//!
//! *Soundness:* any s–t path not yet represented in `best` must leave the
//! settled region of each side through some unsettled vertex, so it costs
//! at least `top(f) + top(b)`; once that bound reaches `best`, no cheaper
//! path exists and `best = dist(s, t)`. *Unreachable targets:* the two
//! searches touch disjoint components, so no meeting ever happens; the
//! forward heap drains after settling all of s's component, `top(f)`
//! becomes `+∞`, the bound trivially holds, and `best` is still [`INF`] —
//! an exact proof of unreachability, not a timeout.

use mmt_graph::types::{Dist, VertexId, INF};
use mmt_graph::CsrGraph;
use mmt_platform::CancelToken;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How often [`bidirectional_st`] polls its cancel token, in settled
/// vertices. Polling is one atomic load; 64 keeps it off the profile while
/// still bounding cancel latency to a few microseconds of scan.
const CANCEL_POLL_PERIOD: u64 = 64;

/// Work counters reported by the point-to-point solvers, in the same units
/// as the full-SSSP engines' `EventCounters` (`arcs_scanned` counts edge
/// relaxation attempts, `settled` counts heap/bucket removals), so P2P
/// scans compare against full SSSP on equal terms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct P2pStats {
    /// Edges whose relaxation was attempted.
    pub arcs_scanned: u64,
    /// Vertices permanently settled (popped with a live key).
    pub settled: u64,
}

/// Reusable state for [`bidirectional_st`]: two distance arrays, two
/// heaps, and the touched lists that make resets `O(search)` instead of
/// `O(n)`. After the first query on a given graph size, a query performs
/// no allocation beyond heap growth.
#[derive(Debug, Default)]
pub struct BidiScratch {
    fwd: SideScratch,
    bwd: SideScratch,
}

impl BidiScratch {
    /// An empty scratch; sizes itself lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes currently held by both sides.
    pub fn heap_bytes(&self) -> usize {
        self.fwd.heap_bytes() + self.bwd.heap_bytes()
    }
}

/// Exact s–t distance via bidirectional Dijkstra, with reusable scratch,
/// cooperative cancellation, and work counters.
///
/// Returns `None` iff `cancel` fired before the query finished (the
/// scratch stays reusable); otherwise `Some((dist, stats))` where `dist`
/// is [`INF`] exactly when `t` is proven unreachable from `s`. See the
/// module docs for the termination proof.
pub fn bidirectional_st(
    g: &CsrGraph,
    s: VertexId,
    t: VertexId,
    scratch: &mut BidiScratch,
    cancel: Option<&CancelToken>,
) -> Option<(Dist, P2pStats)> {
    assert!(
        (s as usize) < g.n() && (t as usize) < g.n(),
        "endpoint out of range"
    );
    let mut stats = P2pStats::default();
    if s == t {
        return Some((0, stats));
    }
    scratch.fwd.prepare(g.n(), s);
    scratch.bwd.prepare(g.n(), t);
    let mut best = INF;
    loop {
        if stats.settled % CANCEL_POLL_PERIOD == 0 && cancel.is_some_and(|c| c.is_cancelled()) {
            return None;
        }
        // Termination: no unseen meeting can beat `best` anymore. This also
        // covers heap exhaustion — an empty side peeks as INF, the bound
        // saturates, and `best` (INF iff the components are disjoint) is
        // returned as-is.
        let bound = scratch
            .fwd
            .peek()
            .unwrap_or(INF)
            .saturating_add(scratch.bwd.peek().unwrap_or(INF));
        if bound >= best {
            break;
        }
        // Expand the side with the smaller current key (balanced growth).
        // Both peeks are Some here: one empty heap saturates the bound.
        let fwd_turn = scratch.fwd.peek().unwrap() <= scratch.bwd.peek().unwrap();
        let (side, other) = if fwd_turn {
            (&mut scratch.fwd, &mut scratch.bwd)
        } else {
            (&mut scratch.bwd, &mut scratch.fwd)
        };
        if let Some((d, u)) = side.pop() {
            stats.settled += 1;
            for (v, w) in g.edges_from(u) {
                stats.arcs_scanned += 1;
                let nd = d + w as Dist;
                let vi = v as usize;
                if nd < side.dist[vi] {
                    if side.dist[vi] == INF {
                        side.touched.push(v);
                    }
                    side.dist[vi] = nd;
                    side.heap.push(Reverse((nd, v)));
                }
                // Meeting check uses the *relaxed* value.
                let across = other.dist[vi];
                if across != INF {
                    best = best.min(side.dist[vi].saturating_add(across));
                }
            }
        }
    }
    Some((best, stats))
}

/// Exact s–t distance, or [`INF`] when `t` is unreachable from `s`.
///
/// One-shot convenience over [`bidirectional_st`]: allocates a fresh
/// [`BidiScratch`] per call and runs without cancellation. Repeated
/// queries should hold a scratch and call [`bidirectional_st`] directly.
pub fn bidirectional_dijkstra(g: &CsrGraph, s: VertexId, t: VertexId) -> Dist {
    let mut scratch = BidiScratch::new();
    bidirectional_st(g, s, t, &mut scratch, None)
        .expect("uncancellable query cannot be interrupted")
        .0
}

#[derive(Debug, Default)]
struct SideScratch {
    dist: Vec<Dist>,
    heap: BinaryHeap<Reverse<(Dist, VertexId)>>,
    /// Vertices whose `dist` slot left INF this query; resetting clears
    /// only these, so back-to-back small queries never pay `O(n)`.
    touched: Vec<VertexId>,
}

impl SideScratch {
    fn prepare(&mut self, n: usize, origin: VertexId) {
        if self.dist.len() != n {
            self.dist.clear();
            self.dist.resize(n, INF);
        } else {
            for &v in &self.touched {
                self.dist[v as usize] = INF;
            }
        }
        self.touched.clear();
        self.heap.clear();
        self.dist[origin as usize] = 0;
        self.touched.push(origin);
        self.heap.push(Reverse((0, origin)));
    }

    fn peek(&mut self) -> Option<Dist> {
        // Drop stale entries first so peek is a true lower bound.
        while let Some(&Reverse((d, u))) = self.heap.peek() {
            if d > self.dist[u as usize] {
                self.heap.pop();
            } else {
                return Some(d);
            }
        }
        None
    }

    fn pop(&mut self) -> Option<(Dist, VertexId)> {
        self.peek()?;
        self.heap.pop().map(|Reverse((d, u))| (d, u))
    }

    fn heap_bytes(&self) -> usize {
        self.dist.capacity() * std::mem::size_of::<Dist>()
            + self.heap.capacity() * std::mem::size_of::<Reverse<(Dist, VertexId)>>()
            + self.touched.capacity() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use mmt_graph::gen::shapes;
    use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
    use mmt_graph::types::EdgeList;

    #[test]
    fn matches_dijkstra_on_figure_one() {
        let g = CsrGraph::from_edge_list(&shapes::figure_one());
        let d0 = dijkstra(&g, 0);
        for t in 0..6u32 {
            assert_eq!(bidirectional_dijkstra(&g, 0, t), d0[t as usize], "t={t}");
        }
    }

    #[test]
    fn matches_dijkstra_on_grids_and_random() {
        for spec in [
            WorkloadSpec::new(GraphClass::Grid, WeightDist::Uniform, 8, 6),
            WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 8, 8),
            WorkloadSpec::new(GraphClass::Rmat, WeightDist::PolyLog, 8, 6),
            WorkloadSpec::new(GraphClass::Road, WeightDist::Uniform, 8, 6),
        ] {
            let g = CsrGraph::from_edge_list(&spec.generate());
            let d17 = dijkstra(&g, 17);
            for t in [0u32, 1, 55, 200, 255] {
                assert_eq!(
                    bidirectional_dijkstra(&g, 17, t),
                    d17[t as usize],
                    "{} t={t}",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn same_endpoint_is_zero() {
        let g = CsrGraph::from_edge_list(&shapes::path(4, 5));
        assert_eq!(bidirectional_dijkstra(&g, 2, 2), 0);
    }

    #[test]
    fn unreachable_is_inf() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(4, [(0, 1, 1), (2, 3, 1)]));
        assert_eq!(bidirectional_dijkstra(&g, 0, 3), INF);
    }

    #[test]
    fn scratch_reuse_across_queries_and_sizes_stays_exact() {
        let mut scratch = BidiScratch::new();
        let small = CsrGraph::from_edge_list(&shapes::figure_one());
        let spec = WorkloadSpec::new(GraphClass::Road, WeightDist::Uniform, 8, 6);
        let big = CsrGraph::from_edge_list(&spec.generate());
        let d_small = dijkstra(&small, 0);
        let d_big = dijkstra(&big, 3);
        // Interleave sizes so both the touched-list sparse reset and the
        // size-change full reset are exercised.
        for round in 0..3 {
            for t in 0..small.n() as u32 {
                let (d, _) = bidirectional_st(&small, 0, t, &mut scratch, None).unwrap();
                assert_eq!(d, d_small[t as usize], "round {round} small t={t}");
            }
            for t in [0u32, 77, 140, 255] {
                let (d, _) = bidirectional_st(&big, 3, t, &mut scratch, None).unwrap();
                assert_eq!(d, d_big[t as usize], "round {round} big t={t}");
            }
        }
    }

    #[test]
    fn pre_cancelled_token_interrupts_the_query() {
        let spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 8, 6);
        let g = CsrGraph::from_edge_list(&spec.generate());
        let token = CancelToken::new();
        token.cancel();
        let mut scratch = BidiScratch::new();
        assert_eq!(
            bidirectional_st(&g, 0, 200, &mut scratch, Some(&token)),
            None
        );
        // The scratch survives the interruption and answers exactly after.
        let (d, _) = bidirectional_st(&g, 0, 200, &mut scratch, None).unwrap();
        assert_eq!(d, dijkstra(&g, 0)[200]);
    }

    #[test]
    fn near_queries_scan_fewer_arcs_than_a_full_sssp_would() {
        // On a road-like graph, an s–t query between grid neighbours must
        // settle far fewer vertices than the graph has — the whole point of
        // stopping early.
        let spec = WorkloadSpec::new(GraphClass::Road, WeightDist::Uniform, 10, 6);
        let g = CsrGraph::from_edge_list(&spec.generate());
        let mut scratch = BidiScratch::new();
        let (_, stats) = bidirectional_st(&g, 0, 1, &mut scratch, None).unwrap();
        assert!(
            stats.settled < g.n() as u64 / 2,
            "adjacent query settled {} of {} vertices",
            stats.settled,
            g.n()
        );
        assert!(stats.arcs_scanned < g.num_arcs() as u64 / 2);
        assert!(stats.arcs_scanned > 0 && stats.settled > 0);

        // Summed over a near-to-far query mix, the search still scans
        // strictly fewer arcs than full SSSP — Dijkstra or Δ-stepping —
        // from the same sources.
        for mix in crate::road_mix::road_mixes() {
            let arcs: u64 = mix
                .pairs
                .iter()
                .map(|&(s, t)| {
                    let (d, stats) =
                        bidirectional_st(&mix.graph, s, t, &mut scratch, None).unwrap();
                    assert_eq!(d, dijkstra(&mix.graph, s)[t as usize], "{}", mix.name);
                    stats.arcs_scanned
                })
                .sum();
            assert!(
                arcs < mix.dijkstra_arcs && arcs < mix.delta_arcs,
                "{}: bidirectional scanned {arcs} arcs over the mix vs {} for \
                 Dijkstra and {} for Δ-stepping",
                mix.name,
                mix.dijkstra_arcs,
                mix.delta_arcs
            );
        }
    }
}
