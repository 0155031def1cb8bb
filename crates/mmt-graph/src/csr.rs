//! Undirected weighted graph in compressed-sparse-row (adjacency-array)
//! form, the representation both the MTGL and the DIMACS reference codes use.
//!
//! Each undirected edge `{u, v}` is stored twice (once per direction), so
//! `neighbors(v)` is a contiguous slice and edge relaxation is a linear
//! scan — the access pattern every solver in this workspace is built around.

use crate::types::{Edge, EdgeList, VertexId, Weight};
use mmt_platform::team;
use mmt_platform::thread_budget;
use std::sync::{Mutex, PoisonError};

/// A graph with fewer edges than this is placed by
/// [`CsrGraph::from_edge_list`], and split by [`crate::SplitCsr::new`], on
/// the calling thread alone. Set-up runs both
/// passes on the same graph, so one cutoff decides both. On a 2-vCPU host
/// two lanes placed and split a Rand or Road graph into fresh pages faster
/// than one from 2^15–2^16 edges, but an RMAT graph, or a Rand or RMAT
/// graph into recycled pages, only from about 2^17 (EXPERIMENTS, "Inline
/// cutoffs"). The split alone pays from about 2^14 edges, but it is the
/// cheaper pass.
pub(crate) const INLINE_BELOW: usize = 1 << 17;

/// A frozen undirected weighted graph.
///
/// Construction is `O(n + m)` on one parallel region of
/// [`thread_budget`] lanes ([`team::run`]): each lane owns a contiguous
/// range of vertices, counts their degrees in one pass over the edge
/// list, and places their arcs in a second, so every vertex keeps its arcs
/// in edge-list order. The graph is immutable afterwards, which is what
/// lets many concurrent SSSP queries share it (and a shared Component
/// Hierarchy) without synchronisation.
///
/// ```
/// use mmt_graph::types::EdgeList;
/// use mmt_graph::CsrGraph;
///
/// let el = EdgeList::from_triples(3, [(0, 1, 5), (1, 2, 7)]);
/// let g = CsrGraph::from_edge_list(&el);
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.edges_from(0).collect::<Vec<_>>(), vec![(1, 5)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
    n: usize,
    undirected_m: usize,
    max_weight: Weight,
}

/// The two phases of a placement.
#[derive(Clone, Copy)]
enum Phase {
    Count,
    Place,
}

/// One lane's part of a placement: its vertices `lo..hi` and, once the
/// count phase has sized them, the slices of the arc arrays they own.
struct Placement<'a> {
    lo: usize,
    hi: usize,
    /// `offsets[lo + 1..=hi]`: where each vertex's arcs start within the
    /// range, which placing the arcs advances to where they end.
    ends: &'a mut [u64],
    targets: &'a mut [VertexId],
    weights: &'a mut [Weight],
    /// The range's arc count.
    arcs: u64,
    /// Offset of the range's first arc.
    base: u64,
    max_weight: Weight,
}

impl Placement<'_> {
    /// Counts the range's degrees, turns them into where each vertex's
    /// arcs start within the range, and takes the largest weight of an
    /// edge with an end in the range.
    fn count(&mut self, edges: &[Edge]) {
        let (lo, hi) = (self.lo, self.hi);
        for e in edges {
            for x in [e.u, e.v] {
                let x = x as usize;
                if (lo..hi).contains(&x) {
                    self.ends[x - lo] += 1;
                    self.max_weight = self.max_weight.max(e.w);
                }
            }
        }
        let mut sum = 0;
        for slot in self.ends.iter_mut() {
            let degree = *slot;
            *slot = sum;
            sum += degree;
        }
        self.arcs = sum;
    }

    /// Places the range's arcs in edge-list order, leaving each vertex's
    /// slot at the end of its arcs, then shifts the slots by `base`.
    fn place(&mut self, edges: &[Edge]) {
        let (lo, hi) = (self.lo, self.hi);
        for e in edges {
            for (x, y) in [(e.u, e.v), (e.v, e.u)] {
                let x = x as usize;
                if (lo..hi).contains(&x) {
                    let slot = &mut self.ends[x - lo];
                    self.targets[*slot as usize] = y;
                    self.weights[*slot as usize] = e.w;
                    *slot += 1;
                }
            }
        }
        for end in self.ends.iter_mut() {
            *end += self.base;
        }
    }
}

impl CsrGraph {
    /// Builds from an edge list. Self loops are kept (they are harmless to
    /// SSSP — relaxing one never improves a distance) and parallel edges are
    /// kept verbatim, matching the DIMACS generator contract.
    pub fn from_edge_list(el: &EdgeList) -> Self {
        Self::build(el.n, &el.edges)
    }

    fn build(n: usize, edges: &[Edge]) -> Self {
        let lanes = if edges.len() < INLINE_BELOW {
            1
        } else {
            thread_budget().clamp(1, n.max(1))
        };
        let mut offsets = vec![0u64; n + 1];
        let mut targets = vec![0 as VertexId; 2 * edges.len()];
        let mut weights = vec![0 as Weight; 2 * edges.len()];
        let max_weight = {
            let mut rest = &mut offsets[1..];
            let parts: Vec<Mutex<Placement<'_>>> = (0..lanes)
                .map(|lane| {
                    let (lo, hi) = (n * lane / lanes, n * (lane + 1) / lanes);
                    let (ends, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
                    rest = tail;
                    Mutex::new(Placement {
                        lo,
                        hi,
                        ends,
                        targets: &mut [],
                        weights: &mut [],
                        arcs: 0,
                        base: 0,
                        max_weight: 0,
                    })
                })
                .collect();
            // Only a panic, which ends the build, poisons a lock.
            let part = |lane: usize| parts[lane].lock().unwrap_or_else(PoisonError::into_inner);
            team::run(
                lanes,
                |team| {
                    team.phase(Phase::Count);
                    // An endpoint of `n` or more lies in no lane's range.
                    let arcs: u64 = (0..lanes).map(|lane| part(lane).arcs).sum();
                    assert_eq!(arcs, 2 * edges.len() as u64, "an edge has an endpoint ≥ n");
                    // Hand each range the slices of the arc arrays its
                    // degrees fix.
                    let (mut targets, mut weights) = (&mut targets[..], &mut weights[..]);
                    let mut base = 0;
                    for lane in 0..lanes {
                        let mut p = part(lane);
                        let arcs = p.arcs as usize;
                        let (t, rest) = std::mem::take(&mut targets).split_at_mut(arcs);
                        let (w, rest_w) = std::mem::take(&mut weights).split_at_mut(arcs);
                        (p.targets, p.weights, p.base) = (t, w, base);
                        (targets, weights) = (rest, rest_w);
                        base += p.arcs;
                    }
                    team.phase(Phase::Place);
                    (0..lanes)
                        .map(|lane| part(lane).max_weight)
                        .max()
                        .unwrap_or(0)
                },
                |lane, phase| match phase {
                    Phase::Count => part(lane).count(edges),
                    Phase::Place => part(lane).place(edges),
                },
            )
        };
        Self {
            offsets,
            targets,
            weights,
            n,
            undirected_m: edges.len(),
            max_weight,
        }
    }

    /// Assembles a graph from already-built CSR arrays. Used by the layout
    /// code, which produces the permuted adjacency directly instead of
    /// round-tripping through an edge list.
    pub(crate) fn from_parts(
        offsets: Vec<u64>,
        targets: Vec<VertexId>,
        weights: Vec<Weight>,
        n: usize,
        undirected_m: usize,
        max_weight: Weight,
    ) -> Self {
        debug_assert_eq!(offsets.len(), n + 1);
        debug_assert_eq!(offsets[n] as usize, targets.len());
        debug_assert_eq!(targets.len(), weights.len());
        Self {
            offsets,
            targets,
            weights,
            n,
            undirected_m,
            max_weight,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Where each vertex's arcs start, then the arc count: `n + 1` entries.
    #[inline]
    pub(crate) fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Number of undirected edges (each stored as two arcs).
    #[inline]
    pub fn m(&self) -> usize {
        self.undirected_m
    }

    /// Number of directed arcs (`2m`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Largest edge weight, `C` in the paper's `<class>-<dist>-<n>-<C>`
    /// naming (0 for an edgeless graph).
    #[inline]
    pub fn max_weight(&self) -> Weight {
        self.max_weight
    }

    /// Degree of `v` (counting both copies of self loops and every parallel
    /// edge).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The neighbours of `v` with weights, as parallel slices.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Iterates `(target, weight)` pairs out of `v`.
    #[inline]
    pub fn edges_from(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let (t, w) = self.neighbors(v);
        t.iter().copied().zip(w.iter().copied())
    }

    /// All vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.n as VertexId
    }

    /// Recovers the undirected edge list (each edge once, in canonical
    /// order; self loops once).
    pub fn to_edge_list(&self) -> EdgeList {
        let mut edges = Vec::with_capacity(self.undirected_m);
        for u in self.vertices() {
            for (v, w) in self.edges_from(u) {
                if u < v {
                    edges.push(Edge::new(u, v, w));
                } else if u == v {
                    // A self loop appears twice in u's own adjacency; keep
                    // every other occurrence.
                    edges.push(Edge::new(u, v, w));
                }
            }
        }
        // Self loops were double-counted above (both arc copies live in the
        // same adjacency list); keep one copy of each pair.
        let mut out = Vec::with_capacity(self.undirected_m);
        let mut skip_next_loop_at: Option<(VertexId, Weight)> = None;
        for e in edges {
            if e.is_self_loop() {
                if skip_next_loop_at == Some((e.u, e.w)) {
                    skip_next_loop_at = None;
                    continue;
                }
                skip_next_loop_at = Some((e.u, e.w));
            }
            out.push(e);
        }
        EdgeList {
            n: self.n,
            edges: out,
        }
    }

    /// Heap bytes of the adjacency structure (Table 2's "graph memory").
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u64>()
            + self.targets.capacity() * std::mem::size_of::<VertexId>()
            + self.weights.capacity() * std::mem::size_of::<Weight>()
    }

    /// Sum of `degree(v)` over all vertices — equals `num_arcs`, used as a
    /// consistency check.
    pub fn total_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).sum()
    }

    /// Sum of all arc weights (each undirected edge counted twice).
    /// `total_arc_weight / num_arcs` is the average edge weight that seeds
    /// the adaptive Δ heuristic.
    pub fn total_arc_weight(&self) -> u64 {
        self.weights.iter().map(|&w| w as u64).sum()
    }
}

impl mmt_platform::MemFootprint for CsrGraph {
    fn heap_bytes(&self) -> usize {
        CsrGraph::heap_bytes(self)
    }
}

/// Inputs for the placement tests of [`CsrGraph`] and
/// [`crate::SplitCsr`]: seeded paper families whose placements are shared
/// among the lanes, adversarial shapes that large (self loops, parallel
/// edges, zero weights, isolated vertices), and the small adversarial
/// suite, `n = 0` and `n = 1` included, which is placed inline.
#[cfg(test)]
pub(crate) fn placement_inputs() -> Vec<(String, EdgeList)> {
    use crate::gen::{adversarial, GraphClass, WeightDist, WorkloadSpec};
    let mut inputs: Vec<(String, EdgeList)> = [
        (GraphClass::Random, WeightDist::Uniform, 15, 15),
        (GraphClass::Rmat, WeightDist::PolyLog, 15, 10),
        (GraphClass::Road, WeightDist::Uniform, 16, 16),
    ]
    .into_iter()
    .map(|(class, dist, log_n, log_c)| {
        let mut spec = WorkloadSpec::new(class, dist, log_n, log_c);
        spec.seed = 7;
        (spec.name(), spec.generate())
    })
    .collect();
    inputs.push((
        "multigraph".into(),
        adversarial::random_multigraph(20_000, 140_000, 1000, 10, 7),
    ));
    inputs.push(("clump".into(), adversarial::multi_edge_clump(40_000)));
    inputs.push((
        "forest".into(),
        adversarial::disconnected_forest(15_000, 10, 2),
    ));
    inputs.extend(adversarial::families(7));
    inputs.push(("empty".into(), EdgeList::new(0)));
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EdgeList;

    /// The placement one thread makes: both arcs of each edge in
    /// edge-list order, `u`'s first.
    fn serial_reference(el: &EdgeList) -> CsrGraph {
        let n = el.n;
        let mut offsets = vec![0u64; n + 1];
        for e in &el.edges {
            offsets[e.u as usize + 1] += 1;
            offsets[e.v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0; 2 * el.edges.len()];
        let mut weights = vec![0; 2 * el.edges.len()];
        for e in &el.edges {
            for (x, y) in [(e.u, e.v), (e.v, e.u)] {
                let slot = &mut cursor[x as usize];
                targets[*slot as usize] = y;
                weights[*slot as usize] = e.w;
                *slot += 1;
            }
        }
        CsrGraph {
            offsets,
            targets,
            weights,
            n,
            undirected_m: el.edges.len(),
            max_weight: el.edges.iter().map(|e| e.w).max().unwrap_or(0),
        }
    }

    #[test]
    fn placement_equals_the_serial_reference_at_every_lane_count() {
        let inputs = placement_inputs();
        assert!(
            inputs
                .iter()
                .filter(|(_, el)| el.edges.len() >= INLINE_BELOW)
                .count()
                >= 6
        );
        for (name, el) in &inputs {
            let want = serial_reference(el);
            for lanes in [1, 2, 4] {
                let got = mmt_platform::with_pool(lanes, || CsrGraph::from_edge_list(el));
                assert!(got == want, "{name} at {lanes} lanes");
            }
        }
    }

    #[test]
    fn a_placement_opens_one_region_and_a_one_lane_budget_none() {
        let el = crate::gen::WorkloadSpec::new(
            crate::gen::GraphClass::Random,
            crate::gen::WeightDist::Uniform,
            15,
            15,
        )
        .generate();
        assert!(el.edges.len() >= INLINE_BELOW);
        for lanes in [1u64, 2, 4] {
            let before = team::spawns();
            mmt_platform::with_pool(lanes as usize, || CsrGraph::from_edge_list(&el));
            let after = team::spawns();
            assert_eq!(after.regions - before.regions, u64::from(lanes > 1));
            assert_eq!(after.threads - before.threads, lanes - 1);
        }
        let before = team::spawns();
        mmt_platform::with_pool(4, triangle);
        assert_eq!(team::spawns(), before, "a small input is placed inline");
    }

    #[test]
    fn an_endpoint_past_n_panics_at_every_lane_count() {
        let mut el = crate::gen::WorkloadSpec::new(
            crate::gen::GraphClass::Random,
            crate::gen::WeightDist::Uniform,
            15,
            15,
        )
        .generate();
        assert!(el.edges.len() >= INLINE_BELOW);
        let mid = el.edges.len() / 2;
        el.edges[mid].v = el.n as VertexId;
        let mut small = EdgeList::from_triples(3, [(0, 1, 5), (1, 2, 7)]);
        small.edges[1].u = 3;
        for (el, lanes) in [(&el, 1), (&el, 2), (&el, 4), (&small, 2)] {
            let built = std::panic::catch_unwind(|| {
                mmt_platform::with_pool(lanes, || CsrGraph::from_edge_list(el))
            });
            assert!(built.is_err(), "{} edges at {lanes} lanes", el.edges.len());
        }
    }

    fn triangle() -> CsrGraph {
        CsrGraph::from_edge_list(&EdgeList::from_triples(
            3,
            [(0, 1, 5), (1, 2, 7), (0, 2, 9)],
        ))
    }

    #[test]
    fn basic_shape() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.max_weight(), 9);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.total_degree(), 6);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle();
        for u in g.vertices() {
            for (v, w) in g.edges_from(u) {
                assert!(
                    g.edges_from(v).any(|(x, xw)| x == u && xw == w),
                    "arc {u}->{v} missing reverse"
                );
            }
        }
    }

    #[test]
    fn self_loops_and_parallel_edges_kept() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(
            2,
            [(0, 0, 3), (0, 1, 1), (0, 1, 2)],
        ));
        assert_eq!(g.m(), 3);
        // self loop contributes 2 to the degree of vertex 0, plus 2 parallel arcs
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn isolated_vertices_have_zero_degree() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(5, [(0, 1, 1)]));
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.n(), 5);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edge_list(&EdgeList::new(0));
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_weight(), 0);
    }

    #[test]
    fn round_trip_edge_list() {
        let el = EdgeList::from_triples(4, [(0, 1, 2), (2, 3, 4), (1, 1, 9), (0, 1, 2)]);
        let g = CsrGraph::from_edge_list(&el);
        let back = g.to_edge_list();
        assert_eq!(back.m(), el.m());
        let mut a: Vec<_> = el.edges.iter().map(|e| e.canonical()).collect();
        let mut b: Vec<_> = back.edges.iter().map(|e| e.canonical()).collect();
        let key = |e: &Edge| (e.u, e.v, e.w);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn total_arc_weight_counts_both_directions() {
        let g = triangle();
        assert_eq!(g.total_arc_weight(), 2 * (5 + 7 + 9));
        let empty = CsrGraph::from_edge_list(&EdgeList::new(3));
        assert_eq!(empty.total_arc_weight(), 0);
    }

    #[test]
    fn heap_bytes_scale_with_graph() {
        let small = CsrGraph::from_edge_list(&EdgeList::from_triples(2, [(0, 1, 1)]));
        let big = CsrGraph::from_edge_list(&EdgeList::from_triples(
            100,
            (0..99u32).map(|i| (i, i + 1, 1)),
        ));
        assert!(big.heap_bytes() > small.heap_bytes());
    }
}
