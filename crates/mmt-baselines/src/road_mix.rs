//! Test support: a near-to-far s–t query mix on road graphs, shared by the
//! point-to-point kernels' arc-scan tests, with the arcs full SSSP scans
//! from the same sources.

use crate::{adaptive_delta, delta_stepping_presplit, DeltaScratch};
use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
use mmt_graph::types::{VertexId, Weight, INF};
use mmt_graph::{CsrGraph, SplitCsr};
use mmt_platform::EventCounters;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Queries per mix: every stride of [`road_mixes`] twice.
const QUERIES: usize = 10;

/// One road graph, its adaptive-Δ split, a query mix over it, and the
/// arcs full SSSP scans from the mix's sources.
pub(crate) struct RoadMix {
    /// Workload name, for failure messages.
    pub name: String,
    pub graph: CsrGraph,
    pub split: SplitCsr,
    /// `(source, target)` pairs.
    pub pairs: Vec<(VertexId, VertexId)>,
    /// Arcs binary-heap Dijkstra scans from every source: the graph is
    /// connected, so each source scans all `num_arcs` once.
    pub dijkstra_arcs: u64,
    /// Arcs one-lane full Δ-stepping scans from every source, by its
    /// counters.
    pub delta_arcs: u64,
}

/// Road-UWD 2^10 at three weight scales. Sources come from a seeded
/// stream; targets sit at a rotating stride — adjacent, one street row
/// (√n), a few blocks (3√n + 7), a quarter and half of the graph away —
/// so totals over the mix aggregate near and far queries rather than
/// cherry-picking either.
pub(crate) fn road_mixes() -> Vec<RoadMix> {
    [2, 6, 10]
        .into_iter()
        .map(|log_c| {
            let mut spec = WorkloadSpec::new(GraphClass::Road, WeightDist::Uniform, 10, log_c);
            spec.seed = 0x2007;
            let graph = CsrGraph::from_edge_list(&spec.generate());
            let n = graph.n();
            let side = (n as f64).sqrt() as usize;
            let strides = [1, side, 3 * side + 7, n / 4, n / 2];
            let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x5EED);
            let pairs: Vec<(VertexId, VertexId)> = (0..QUERIES)
                .map(|i| {
                    let s = rng.gen_range(0..n);
                    let t = (s + strides[i % strides.len()]) % n;
                    (s as VertexId, t as VertexId)
                })
                .collect();
            let delta = adaptive_delta(&graph).clamp(1, u32::MAX as u64) as Weight;
            let split = SplitCsr::new(&graph, delta);
            let counters = EventCounters::new();
            mmt_platform::with_pool(1, || {
                let mut scratch = DeltaScratch::new(&split);
                for &(s, _) in &pairs {
                    delta_stepping_presplit(&split, s, &mut scratch, Some(&counters));
                    assert!(
                        scratch.to_distances().iter().all(|&d| d < INF),
                        "{}: a road graph is connected",
                        spec.name()
                    );
                }
            });
            RoadMix {
                name: spec.name(),
                dijkstra_arcs: (pairs.len() * graph.num_arcs()) as u64,
                delta_arcs: counters.snapshot().arcs_scanned,
                graph,
                split,
                pairs,
            }
        })
        .collect()
}
