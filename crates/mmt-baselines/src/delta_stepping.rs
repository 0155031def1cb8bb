//! Parallel Δ-stepping (Meyer & Sanders), the paper's parallel baseline,
//! as a policy over the shared stepping loop (`crate::step`).
//!
//! Vertices are kept in buckets of width Δ by tentative distance. The
//! current bucket is expanded in *light phases* (arcs of weight ≤ Δ, which
//! may re-insert into the same bucket) until stable; then the vertices
//! first settled in that bucket relax their *heavy* arcs (weight > Δ) in
//! one parallel pass — the engineering shape of the MTA-2 implementation
//! of Madduri et al. that the paper benchmarks against. The light/heavy
//! split is a policy detail: Δ*-stepping ([`crate::delta_star`]) drains
//! the same buckets over all arcs.
//!
//! * [`delta_stepping_presplit`] — the hot path over a pre-split
//!   [`SplitCsr`] and a reusable [`DeltaScratch`]. After
//!   the first query warms the scratch, a query allocates nothing.
//! * [`delta_stepping_st`] — the same solve, stopped once the target's
//!   bucket has settled.
//! * [`delta_stepping`] — the one-shot convenience: builds the split and a
//!   scratch per call.

use crate::step::{step, Arcs, Step, StepPolicy, StepQuery, StepScratch};
use mmt_graph::types::{Dist, VertexId, Weight};
use mmt_graph::{CsrGraph, SplitCsr};
use mmt_platform::{CancelToken, EventCounters};

/// Δ-stepping parameters. Construct with [`DeltaConfig::new`],
/// [`DeltaConfig::auto`], or [`DeltaConfig::adaptive`] and adjust via the
/// chainable [`with_delta`](DeltaConfig::with_delta):
///
/// ```
/// use mmt_baselines::DeltaConfig;
/// let cfg = DeltaConfig::new(8).with_delta(16);
/// assert_eq!(cfg.delta(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaConfig {
    /// Bucket width Δ ≥ 1.
    delta: u64,
}

impl DeltaConfig {
    /// A config with the given bucket width Δ (clamped to ≥ 1).
    pub fn new(delta: u64) -> Self {
        Self {
            delta: delta.max(1),
        }
    }

    /// Uses the standard heuristic Δ = C / average-degree (see
    /// [`default_delta`]).
    pub fn auto(g: &CsrGraph) -> Self {
        Self::new(default_delta(g))
    }

    /// Uses the adaptive heuristic Δ = 2·avg-weight / average-degree (see
    /// [`adaptive_delta`]), which tracks the actual weight mass instead of
    /// the maximum weight `C`.
    pub fn adaptive(g: &CsrGraph) -> Self {
        Self::new(adaptive_delta(g))
    }

    /// Returns a copy with the bucket width replaced (clamped to ≥ 1).
    pub fn with_delta(mut self, delta: u64) -> Self {
        self.delta = delta.max(1);
        self
    }

    /// The bucket width Δ.
    pub fn delta(&self) -> u64 {
        self.delta
    }
}

/// The Meyer–Sanders heuristic bucket width: `max(1, C / avg_degree)`,
/// which bounds the expected number of re-relaxations per light phase.
pub fn default_delta(g: &CsrGraph) -> u64 {
    if g.n() == 0 || g.num_arcs() == 0 {
        return 1;
    }
    let avg_degree = (g.num_arcs() as u64 / g.n() as u64).max(1);
    (g.max_weight() as u64 / avg_degree).max(1)
}

/// Adaptive bucket width: `max(1, 2·avg_weight / avg_degree)`.
///
/// For a uniform weight distribution (UWD) the average weight is `C/2`, so
/// this reduces to the classic `C / avg_degree` of [`default_delta`]. For
/// heavy-tailed distributions like the paper's poly-log PWD — where most
/// weights are tiny but `C` is huge — `C / avg_degree` produces a bucket so
/// wide the algorithm degenerates towards Bellman–Ford; seeding from the
/// *average* weight keeps the bucket matched to where the weight mass
/// actually is.
pub fn adaptive_delta(g: &CsrGraph) -> u64 {
    if g.n() == 0 || g.num_arcs() == 0 {
        return 1;
    }
    let avg_weight = (g.total_arc_weight() / g.num_arcs() as u64).max(1);
    let avg_degree = (g.num_arcs() as u64 / g.n() as u64).max(1);
    (2 * avg_weight / avg_degree).max(1)
}

/// The scratch Δ-stepping runs on: the shared [`StepScratch`].
pub type DeltaScratch = StepScratch;

/// Δ-stepping's step: drain the bucket to a fixpoint over light arcs,
/// then one heavy pass over the vertices first settled in it.
struct Delta;

impl StepPolicy for Delta {
    fn step(&self, st: &mut Step<'_>, bucket: u64) -> bool {
        if !st.fixpoint(bucket, Arcs::Light) {
            return false;
        }
        st.relax_settled(Arcs::Heavy);
        true
    }
}

/// Single-source shortest paths by parallel Δ-stepping.
///
/// One-shot convenience: builds the [`SplitCsr`] and a fresh
/// [`DeltaScratch`] per call. Repeated queries over one graph should build
/// those once and call [`delta_stepping_presplit`] directly.
///
/// ```
/// use mmt_baselines::{delta_stepping, DeltaConfig};
/// use mmt_graph::{types::EdgeList, CsrGraph};
///
/// let g = CsrGraph::from_edge_list(&EdgeList::from_triples(
///     3,
///     [(0, 1, 4), (1, 2, 4), (0, 2, 9)],
/// ));
/// let dist = delta_stepping(&g, 0, DeltaConfig::auto(&g));
/// assert_eq!(dist, vec![0, 4, 8]);
/// ```
pub fn delta_stepping(g: &CsrGraph, source: VertexId, cfg: DeltaConfig) -> Vec<Dist> {
    assert!((source as usize) < g.n(), "source out of range");
    let split = SplitCsr::new(g, cfg.delta().min(u32::MAX as u64) as Weight);
    let mut scratch = DeltaScratch::new(&split);
    delta_stepping_presplit(&split, source, &mut scratch, None);
    scratch.to_distances()
}

/// The allocation-free Δ-stepping hot path over a pre-split adjacency.
///
/// Distances are left in `scratch` (see [`StepScratch::distance`] /
/// [`StepScratch::copy_distances_into`]) so steady-state callers decide
/// where the output goes without a forced allocation. `counters`, when
/// given, record `bucket_expansions` = relax phases (light rounds plus
/// heavy passes), `arcs_scanned` = `relaxations` = arcs walked, `settled`
/// = distinct vertices extracted, `improvements` = strict `fetch_min`
/// wins, and `parallel_loop_setups` = parallel regions opened: one for a
/// multi-lane solve, whatever its phase count, and none on one lane.
pub fn delta_stepping_presplit(
    split: &SplitCsr,
    source: VertexId,
    scratch: &mut StepScratch,
    counters: Option<&EventCounters>,
) {
    let query = StepQuery {
        source,
        counters,
        ..StepQuery::default()
    };
    let done = step(&Delta, split, scratch, &query);
    debug_assert!(done, "an uncancellable solve completes");
}

/// Early-exit Δ-stepping for a single s–t query over a pre-split adjacency.
///
/// Runs the same solve as [`delta_stepping_presplit`], but stops as soon
/// as the target's bucket settles instead of draining every bucket. The
/// exit is sound because of the bucket invariant: once no entry is queued
/// below bucket `b`, every vertex whose label lies below `b·Δ` is final.
/// Unreachable targets are still proven exactly: the bins drain s's whole
/// component and the solve returns with `dist(t) == INF`.
///
/// Returns `None` if `cancel` fired mid-query (the scratch stays reusable),
/// otherwise `Some(dist)` with [`INF`](mmt_graph::types::INF) meaning
/// proven unreachable. `counters` accounting is identical to the full
/// solve, so `arcs_scanned` directly measures the work the early exit
/// avoided.
pub fn delta_stepping_st(
    split: &SplitCsr,
    source: VertexId,
    target: VertexId,
    scratch: &mut StepScratch,
    counters: Option<&EventCounters>,
    cancel: Option<&CancelToken>,
) -> Option<Dist> {
    let query = StepQuery {
        source,
        target: Some(target),
        cancel,
        counters,
    };
    step(&Delta, split, scratch, &query).then(|| scratch.distance(target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use mmt_graph::gen::shapes;
    use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
    use mmt_graph::types::{EdgeList, INF};

    fn check_graph(el: &EdgeList, deltas: &[u64]) {
        let g = CsrGraph::from_edge_list(el);
        let sources: Vec<u32> = [0usize, el.n / 2, el.n - 1]
            .iter()
            .map(|&s| s as u32)
            .collect();
        for &s in &sources {
            let want = dijkstra(&g, s);
            for &delta in deltas {
                let got = delta_stepping(&g, s, DeltaConfig::new(delta));
                assert_eq!(got, want, "delta={delta} source={s}");
            }
        }
    }

    #[test]
    fn path_graph_all_deltas() {
        check_graph(&shapes::path(30, 5), &[1, 2, 5, 100]);
    }

    #[test]
    fn star_and_complete() {
        check_graph(&shapes::star(20, 7), &[1, 7, 50]);
        check_graph(&shapes::complete(12, 3), &[1, 3, 10]);
    }

    #[test]
    fn random_workloads_match_dijkstra() {
        for (class, wd) in [
            (GraphClass::Random, WeightDist::Uniform),
            (GraphClass::Random, WeightDist::PolyLog),
            (GraphClass::Rmat, WeightDist::Uniform),
            (GraphClass::Rmat, WeightDist::PolyLog),
        ] {
            let mut spec = WorkloadSpec::new(class, wd, 8, 8);
            spec.seed = 23;
            let el = spec.generate();
            let g = CsrGraph::from_edge_list(&el);
            let auto = DeltaConfig::auto(&g);
            let adaptive = DeltaConfig::adaptive(&g);
            for s in [0u32, 17, 200] {
                let want = dijkstra(&g, s);
                assert_eq!(delta_stepping(&g, s, auto), want, "{}", spec.name());
                assert_eq!(
                    delta_stepping(&g, s, adaptive),
                    want,
                    "{} (adaptive delta)",
                    spec.name()
                );
                assert_eq!(
                    delta_stepping(&g, s, DeltaConfig::new(1)),
                    want,
                    "{} (delta 1 = parallel Dijkstra mode)",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_across_queries_and_graphs() {
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::PolyLog, 7, 9);
        spec.seed = 99;
        let g = CsrGraph::from_edge_list(&spec.generate());
        let split = SplitCsr::new(&g, adaptive_delta(&g).min(u32::MAX as u64) as u32);
        let mut scratch = DeltaScratch::new(&split);
        let mut out = Vec::new();
        for s in [0u32, 3, 50, 100, 3, 0] {
            delta_stepping_presplit(&split, s, &mut scratch, None);
            scratch.copy_distances_into(&mut out);
            assert_eq!(out, dijkstra(&g, s), "source {s}");
        }
        // The same scratch must also survive a move to a differently-sized
        // split (it regrows rather than asserting).
        let small = CsrGraph::from_edge_list(&shapes::path(5, 2));
        let small_split = SplitCsr::new(&small, 2);
        delta_stepping_presplit(&small_split, 0, &mut scratch, None);
        scratch.copy_distances_into(&mut out);
        assert_eq!(out, dijkstra(&small, 0));
    }

    #[test]
    fn disconnected_leaves_inf() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(4, [(0, 1, 6)]));
        let d = delta_stepping(&g, 0, DeltaConfig::new(3));
        assert_eq!(d, vec![0, 6, INF, INF]);
    }

    #[test]
    fn self_loops_and_parallel_edges() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(
            2,
            [(0, 0, 4), (0, 1, 9), (0, 1, 2)],
        ));
        assert_eq!(delta_stepping(&g, 0, DeltaConfig::new(4)), vec![0, 2]);
    }

    #[test]
    fn default_delta_heuristic() {
        let g = CsrGraph::from_edge_list(&shapes::complete(10, 64));
        // avg degree 9, C = 64 -> delta = 64 / 9 = 7
        assert_eq!(default_delta(&g), 7);
        let empty = CsrGraph::from_edge_list(&EdgeList::new(3));
        assert_eq!(default_delta(&empty), 1);
    }

    #[test]
    fn adaptive_delta_tracks_weight_mass() {
        // Uniform weights: adaptive ≈ classic (avg = C/2 ⇒ 2·avg = C).
        let uniform = CsrGraph::from_edge_list(&shapes::complete(10, 64));
        let avg_w = uniform.total_arc_weight() / uniform.num_arcs() as u64;
        assert_eq!(adaptive_delta(&uniform), (2 * avg_w / 9).max(1));
        // Heavy tail: one huge edge must not blow the bucket width up the
        // way C/avg_degree does.
        let mut triples: Vec<(u32, u32, u32)> = (0..499u32).map(|i| (i, i + 1, 1)).collect();
        triples.push((0, 499, 1_000_000));
        let skewed = CsrGraph::from_edge_list(&EdgeList::from_triples(500, triples));
        assert!(adaptive_delta(&skewed) < default_delta(&skewed) / 100);
        let empty = CsrGraph::from_edge_list(&EdgeList::new(3));
        assert_eq!(adaptive_delta(&empty), 1);
    }

    #[test]
    fn st_matches_dijkstra_at_the_target() {
        for class in [GraphClass::Road, GraphClass::Random] {
            let mut spec = WorkloadSpec::new(class, WeightDist::Uniform, 8, 6);
            spec.seed = 7;
            let g = CsrGraph::from_edge_list(&spec.generate());
            for delta in [
                1u32,
                adaptive_delta(&g).min(u32::MAX as u64) as u32,
                1 << 20,
            ] {
                let split = SplitCsr::new(&g, delta.max(1));
                let mut scratch = DeltaScratch::new(&split);
                for s in [0u32, 100] {
                    let want = dijkstra(&g, s);
                    for t in [0u32, 1, 17, 128, 255] {
                        let got = delta_stepping_st(&split, s, t, &mut scratch, None, None);
                        assert_eq!(
                            got,
                            Some(want[t as usize]),
                            "{} delta={delta} s={s} t={t}",
                            spec.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn st_source_equals_target_and_unreachable() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(5, [(0, 1, 3), (2, 3, 4)]));
        let split = SplitCsr::new(&g, 2);
        let mut scratch = DeltaScratch::new(&split);
        assert_eq!(
            delta_stepping_st(&split, 1, 1, &mut scratch, None, None),
            Some(0)
        );
        // Unreachable is proven by draining the component, not guessed.
        assert_eq!(
            delta_stepping_st(&split, 0, 3, &mut scratch, None, None),
            Some(INF)
        );
        assert_eq!(
            delta_stepping_st(&split, 0, 4, &mut scratch, None, None),
            Some(INF)
        );
        assert_eq!(
            delta_stepping_st(&split, 0, 1, &mut scratch, None, None),
            Some(3)
        );
    }

    #[test]
    fn st_cancel_interrupts_and_scratch_survives() {
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 8, 6);
        spec.seed = 5;
        let g = CsrGraph::from_edge_list(&spec.generate());
        // A huge Δ makes the whole query one bucket, exercising the
        // per-light-phase poll path.
        for delta in [4u32, 1 << 24] {
            let split = SplitCsr::new(&g, delta);
            let mut scratch = DeltaScratch::new(&split);
            let token = CancelToken::new();
            token.cancel();
            assert_eq!(
                delta_stepping_st(&split, 0, 200, &mut scratch, None, Some(&token)),
                None,
                "delta={delta}"
            );
            // Reuse after interruption must still be exact (the cancelled
            // exit clears the bins).
            let got = delta_stepping_st(&split, 0, 200, &mut scratch, None, None);
            assert_eq!(got, Some(dijkstra(&g, 0)[200]), "delta={delta}");
        }
    }

    #[test]
    fn st_early_exit_scans_fewer_arcs_than_full_sssp() {
        let spec = WorkloadSpec::new(GraphClass::Road, WeightDist::Uniform, 10, 6);
        let g = CsrGraph::from_edge_list(&spec.generate());
        let delta = adaptive_delta(&g).min(u32::MAX as u64) as u32;
        let split = SplitCsr::new(&g, delta.max(1));
        let mut scratch = DeltaScratch::new(&split);
        let full = mmt_platform::EventCounters::default();
        delta_stepping_presplit(&split, 0, &mut scratch, Some(&full));
        let near = mmt_platform::EventCounters::default();
        // Target a grid neighbour: its bucket settles almost immediately.
        let d = delta_stepping_st(&split, 0, 1, &mut scratch, Some(&near), None).unwrap();
        assert_eq!(d, dijkstra(&g, 0)[1]);
        let full_arcs = full.snapshot().arcs_scanned;
        let near_arcs = near.snapshot().arcs_scanned;
        assert!(
            near_arcs < full_arcs,
            "early exit scanned {near_arcs} arcs vs {full_arcs} for full SSSP"
        );

        // Summed over a near-to-far query mix, the early exit still scans
        // strictly fewer arcs than full SSSP — Dijkstra or Δ-stepping —
        // from the same sources. One lane, so the counts are exact.
        for mix in crate::road_mix::road_mixes() {
            let counters = EventCounters::new();
            mmt_platform::with_pool(1, || {
                let mut scratch = DeltaScratch::new(&mix.split);
                for &(s, t) in &mix.pairs {
                    let d =
                        delta_stepping_st(&mix.split, s, t, &mut scratch, Some(&counters), None);
                    assert_eq!(d, Some(dijkstra(&mix.graph, s)[t as usize]), "{}", mix.name);
                }
            });
            let arcs = counters.snapshot().arcs_scanned;
            assert!(
                arcs < mix.dijkstra_arcs && arcs < mix.delta_arcs,
                "{}: early exit scanned {arcs} arcs over the mix vs {} for \
                 Dijkstra and {} for full Δ-stepping",
                mix.name,
                mix.dijkstra_arcs,
                mix.delta_arcs
            );
        }
    }

    #[test]
    fn counters_record_activity() {
        let g = CsrGraph::from_edge_list(&shapes::path(20, 3));
        let split = SplitCsr::new(&g, 6);
        let mut scratch = DeltaScratch::new(&split);
        let ev = EventCounters::new();
        delta_stepping_presplit(&split, 0, &mut scratch, Some(&ev));
        assert_eq!(scratch.to_distances(), dijkstra(&g, 0));
        assert_eq!(ev.settled.get(), 20);
        assert!(ev.bucket_expansions.get() > 0);
        assert_eq!(ev.relaxations.get() as usize, g.num_arcs());
        assert_eq!(ev.arcs_scanned.get(), ev.relaxations.get());
        assert!(ev.improvements.get() >= 19);
    }

    /// Regression for the `removed` re-scan bug: a vertex queued into a
    /// future bucket twice (here: vertex 1 enters bucket 2 first via the
    /// heavy edge (0,1,25), then again via the light edge (2,1,9) after
    /// vertex 2 settles in bucket 1) was once expanded twice even though
    /// its distance was final. The extraction filter relaxes every arc
    /// exactly once.
    #[test]
    fn no_rerelax_of_requeued_vertices_on_a_cycle() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(
            3,
            [(0, 1, 25), (0, 2, 12), (2, 1, 9)],
        ));
        let split = SplitCsr::new(&g, 10);
        let mut scratch = DeltaScratch::new(&split);
        let ev = EventCounters::new();
        delta_stepping_presplit(&split, 0, &mut scratch, Some(&ev));
        assert_eq!(scratch.to_distances(), dijkstra(&g, 0));
        assert_eq!(
            ev.relaxations.get() as usize,
            g.num_arcs(),
            "each arc is walked exactly once"
        );
        assert_eq!(ev.settled.get(), 3);
    }

    #[test]
    fn huge_delta_degenerates_to_bellman_ford_bucket() {
        let g = CsrGraph::from_edge_list(&shapes::path(10, 3));
        let d = delta_stepping(&g, 0, DeltaConfig::new(u64::MAX / 4));
        assert_eq!(d, dijkstra(&g, 0));
    }
}
