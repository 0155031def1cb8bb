//! Light/heavy pre-split CSR view for delta-stepping.
//!
//! Delta-stepping partitions each vertex's incident edges by weight: *light*
//! edges (`w ≤ Δ`) are relaxed to a fixpoint inside the current bucket,
//! *heavy* edges (`w > Δ`) exactly once when the bucket empties. The naive
//! kernel re-applies that `filter` to the full adjacency list on every
//! relaxation of every phase. [`SplitCsr`] pays the partition cost once at
//! construction — per vertex, light edges are stored first and heavy edges
//! after, so each phase walks exactly the slice it needs with no per-edge
//! branch.

use crate::csr::{CsrGraph, INLINE_BELOW};
use crate::types::{VertexId, Weight};
use mmt_platform::team;
use mmt_platform::thread_budget;
use std::sync::{Mutex, PoisonError};

/// A CSR adjacency view whose per-vertex edges are partitioned into a light
/// (`w ≤ Δ`) prefix and a heavy (`w > Δ`) suffix.
///
/// The split is a reordering of the source graph's arcs — same vertex set,
/// same arc multiset — frozen for one choice of `Δ`. Build it once per
/// (graph, Δ) pair and share it across every query: like [`CsrGraph`] it is
/// immutable after construction.
///
/// ```
/// use mmt_graph::types::EdgeList;
/// use mmt_graph::{CsrGraph, SplitCsr};
///
/// let el = EdgeList::from_triples(3, [(0, 1, 2), (0, 2, 9)]);
/// let g = CsrGraph::from_edge_list(&el);
/// let s = SplitCsr::new(&g, 3);
/// assert_eq!(s.light(0).0, &[1]);
/// assert_eq!(s.heavy(0).0, &[2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitCsr {
    offsets: Vec<u64>,
    /// Per-vertex boundary: arcs in `[offsets[v], light_end[v])` are light,
    /// arcs in `[light_end[v], offsets[v+1])` are heavy.
    light_end: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
    delta: Weight,
    n: usize,
    max_weight: Weight,
}

/// One lane's vertices `lo..hi` and the slices of the split's arrays they
/// own; the source graph's offsets fix the arc slices.
struct Range<'a> {
    lo: usize,
    hi: usize,
    light_end: &'a mut [u64],
    targets: &'a mut [VertexId],
    weights: &'a mut [Weight],
}

impl Range<'_> {
    /// Places the range's light arcs, then its heavy arcs, per vertex.
    fn split(&mut self, g: &CsrGraph, delta: Weight) {
        let Range {
            lo,
            hi,
            light_end,
            targets,
            weights,
        } = self;
        let base = g.offsets()[*lo];
        let mut cursor = 0;
        for (v, end) in (*lo..*hi).zip(light_end.iter_mut()) {
            let (ts, ws) = g.neighbors(v as VertexId);
            for (&t, &w) in ts.iter().zip(ws) {
                if w <= delta {
                    targets[cursor] = t;
                    weights[cursor] = w;
                    cursor += 1;
                }
            }
            *end = base + cursor as u64;
            for (&t, &w) in ts.iter().zip(ws) {
                if w > delta {
                    targets[cursor] = t;
                    weights[cursor] = w;
                    cursor += 1;
                }
            }
        }
        debug_assert_eq!(cursor, targets.len());
    }
}

impl SplitCsr {
    /// Builds the split view of `g` for bucket width `delta`.
    ///
    /// `O(n + m)`: one placement pass over the arcs, on one parallel region
    /// of [`thread_budget`] lanes ([`team::run`]), each owning a range of
    /// vertices with about an equal share of the arcs; a graph too small
    /// for [`CsrGraph::from_edge_list`] to share out is split on the
    /// calling thread. An edge with `w == Δ` is light, matching the
    /// paper's `≤ Δ` convention.
    pub fn new(g: &CsrGraph, delta: Weight) -> Self {
        let n = g.n();
        let offsets = g.offsets().to_vec();
        let lanes = if g.m() < INLINE_BELOW {
            1
        } else {
            thread_budget().clamp(1, n.max(1))
        };
        let mut light_end = vec![0u64; n];
        let mut targets = vec![0 as VertexId; g.num_arcs()];
        let mut weights = vec![0 as Weight; g.num_arcs()];
        {
            let (mut ends, mut ts, mut ws) =
                (&mut light_end[..], &mut targets[..], &mut weights[..]);
            let mut lo = 0;
            let ranges: Vec<Mutex<Range<'_>>> = (1..=lanes)
                .map(|lane| {
                    // The first vertex whose arcs start at or past the
                    // lane's share of the arcs ends its range.
                    let share = g.num_arcs() as u64 * lane as u64 / lanes as u64;
                    let hi = if lane == lanes {
                        n
                    } else {
                        offsets[..n].partition_point(|&o| o < share).max(lo)
                    };
                    let arcs = (offsets[hi] - offsets[lo]) as usize;
                    let (e, rest_e) = std::mem::take(&mut ends).split_at_mut(hi - lo);
                    let (t, rest_t) = std::mem::take(&mut ts).split_at_mut(arcs);
                    let (w, rest_w) = std::mem::take(&mut ws).split_at_mut(arcs);
                    (ends, ts, ws) = (rest_e, rest_t, rest_w);
                    let range = Range {
                        lo,
                        hi,
                        light_end: e,
                        targets: t,
                        weights: w,
                    };
                    lo = hi;
                    Mutex::new(range)
                })
                .collect();
            team::run(
                lanes,
                |team| team.phase(()),
                |lane, ()| {
                    // Only a panic, which ends the build, poisons a lock.
                    let mut range = ranges[lane].lock().unwrap_or_else(PoisonError::into_inner);
                    range.split(g, delta);
                },
            );
        }
        Self {
            offsets,
            light_end,
            targets,
            weights,
            delta,
            n,
            max_weight: g.max_weight(),
        }
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

    /// Number of directed arcs (same as the source graph).
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

    /// Every neighbour of `v` (light prefix, then heavy suffix).
    #[inline]
    pub fn all(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Degree of `v` (light + heavy).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GraphClass, WeightDist, WorkloadSpec};
    use crate::types::EdgeList;

    /// The split one thread makes: per vertex, its light arcs, then its
    /// heavy arcs, each in the graph's order.
    fn serial_reference(g: &CsrGraph, delta: Weight) -> SplitCsr {
        let mut offsets = Vec::with_capacity(g.n() + 1);
        let mut light_end = Vec::with_capacity(g.n());
        let (mut targets, mut weights) = (Vec::new(), Vec::new());
        for v in g.vertices() {
            offsets.push(targets.len() as u64);
            let arcs: Vec<(VertexId, Weight)> = g.edges_from(v).collect();
            for light in [true, false] {
                for &(t, w) in &arcs {
                    if (w <= delta) == light {
                        targets.push(t);
                        weights.push(w);
                    }
                }
                if light {
                    light_end.push(targets.len() as u64);
                }
            }
        }
        offsets.push(targets.len() as u64);
        SplitCsr {
            offsets,
            light_end,
            targets,
            weights,
            delta,
            n: g.n(),
            max_weight: g.max_weight(),
        }
    }

    #[test]
    fn split_equals_the_serial_reference_at_every_lane_count() {
        let inputs = crate::csr::placement_inputs();
        assert!(
            inputs
                .iter()
                .filter(|(_, el)| el.edges.len() >= INLINE_BELOW)
                .count()
                >= 6
        );
        for (name, el) in &inputs {
            let g = CsrGraph::from_edge_list(el);
            let median = {
                let mut ws: Vec<Weight> = el.edges.iter().map(|e| e.w).collect();
                ws.sort_unstable();
                ws.get(ws.len() / 2).copied().unwrap_or(1)
            };
            for delta in [0, 1, median, Weight::MAX] {
                let want = serial_reference(&g, delta);
                for lanes in [1, 2, 4] {
                    let got = mmt_platform::with_pool(lanes, || SplitCsr::new(&g, delta));
                    assert!(got == want, "{name} at Δ = {delta}, {lanes} lanes");
                }
            }
        }
    }

    #[test]
    fn a_split_opens_one_region_and_a_one_lane_budget_none() {
        let el = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 15, 15).generate();
        let g = CsrGraph::from_edge_list(&el);
        assert!(g.m() >= INLINE_BELOW);
        for lanes in [1u64, 2, 4] {
            let before = team::spawns();
            mmt_platform::with_pool(lanes as usize, || SplitCsr::new(&g, 1000));
            let after = team::spawns();
            assert_eq!(after.regions - before.regions, u64::from(lanes > 1));
            assert_eq!(after.threads - before.threads, lanes - 1);
        }
        let small = CsrGraph::from_edge_list(&EdgeList::from_triples(3, [(0, 1, 2), (1, 2, 9)]));
        let before = team::spawns();
        mmt_platform::with_pool(4, || SplitCsr::new(&small, 3));
        assert_eq!(team::spawns(), before, "a small graph is split inline");
    }

    #[test]
    fn partitions_by_weight_with_boundary_light() {
        let el = EdgeList::from_triples(4, [(0, 1, 3), (0, 2, 4), (0, 3, 5), (1, 2, 10)]);
        let g = CsrGraph::from_edge_list(&el);
        let s = SplitCsr::new(&g, 4);
        let (lt, lw) = s.light(0);
        assert_eq!((lt, lw), (&[1u32, 2][..], &[3u32, 4][..]));
        let (ht, hw) = s.heavy(0);
        assert_eq!((ht, hw), (&[3u32][..], &[5u32][..]));
        // w == Δ is light.
        assert!(s.light(0).1.contains(&4));
        assert_eq!(s.delta(), 4);
    }

    #[test]
    fn split_preserves_the_arc_multiset() {
        let spec = WorkloadSpec::new(GraphClass::Rmat, WeightDist::PolyLog, 8, 10);
        let g = CsrGraph::from_edge_list(&spec.generate());
        for delta in [1, 7, 100, u32::MAX] {
            let s = SplitCsr::new(&g, delta);
            assert_eq!(s.num_arcs(), g.num_arcs());
            for v in g.vertices() {
                let mut want: Vec<_> = g.edges_from(v).collect();
                let (ts, ws) = s.all(v);
                let mut got: Vec<_> = ts.iter().copied().zip(ws.iter().copied()).collect();
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want, "vertex {v} at delta {delta}");
                let (lt, lw) = s.light(v);
                assert!(lw.iter().all(|&w| w <= delta));
                assert!(s.heavy(v).1.iter().all(|&w| w > delta));
                assert_eq!(lt.len() + s.heavy(v).0.len(), s.degree(v));
            }
        }
    }

    #[test]
    fn extreme_deltas_degenerate_cleanly() {
        let el = EdgeList::from_triples(3, [(0, 1, 5), (1, 2, 7)]);
        let g = CsrGraph::from_edge_list(&el);
        let all_light = SplitCsr::new(&g, u32::MAX);
        let all_heavy = SplitCsr::new(&g, 0);
        for v in g.vertices() {
            assert_eq!(all_light.light(v).0.len(), g.degree(v));
            assert!(all_light.heavy(v).0.is_empty());
            assert!(all_heavy.light(v).0.is_empty());
            assert_eq!(all_heavy.heavy(v).0.len(), g.degree(v));
        }
    }

    #[test]
    fn empty_and_isolated_vertices() {
        let g = CsrGraph::from_edge_list(&EdgeList::new(0));
        let s = SplitCsr::new(&g, 1);
        assert_eq!(s.n(), 0);
        assert_eq!(s.num_arcs(), 0);

        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(5, [(0, 1, 2)]));
        let s = SplitCsr::new(&g, 1);
        assert!(s.light(3).0.is_empty());
        assert!(s.heavy(3).0.is_empty());
        assert_eq!(s.heavy(0).0, &[1]);
    }
}
