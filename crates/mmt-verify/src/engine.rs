//! The [`SsspEngine`] trait and an adapter per solver in the workspace.
//!
//! Every engine answers a single-source query on a [`GraphCase`] in the
//! *original* vertex space, whatever preprocessing it needs internally.
//! That uniform shape is what lets the differential runner compare all
//! engines entry for entry against the Dijkstra oracle.

use crate::case::GraphCase;
use mmt_baselines::{
    bellman_ford_frontier, bidirectional_dijkstra, bidirectional_st, default_rho,
    delta_star_presplit, delta_stepping, delta_stepping_presplit, delta_stepping_st, dijkstra,
    goldberg_sssp, rho_stepping_presplit, BidiScratch, DeltaConfig, DeltaScratch, StepScratch,
};
use mmt_graph::types::{Dist, VertexId};
use mmt_graph::{SplitCsr, VertexPermutation};
use mmt_thorup::{
    BatchSolver, GraphLayout, GraphRegistry, LayoutKind, LayoutSolver, QueryRequest, QueryService,
    ThorupConfig, ThorupSolver,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A solver under differential test: answers full single-source queries on
/// a prepared case, in the case's original vertex space.
pub trait SsspEngine: Sync {
    /// Stable engine name, used in divergence reports (`thorup`,
    /// `delta-stepping`, ...).
    fn name(&self) -> &'static str;

    /// True if this engine can run this case at an acceptable cost.
    /// Engines that answer point-to-point queries (and therefore solve
    /// n single-pair problems per source) bow out of large cases here.
    fn supports(&self, _case: &GraphCase) -> bool {
        true
    }

    /// Distances from `source` to every vertex (`INF` for unreachable).
    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist>;
}

/// Serial Dijkstra — the oracle every other engine is compared against.
pub struct DijkstraOracle;

impl SsspEngine for DijkstraOracle {
    fn name(&self) -> &'static str {
        "dijkstra"
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        dijkstra(&case.graph, source)
    }
}

/// Serial Thorup over the shared Component Hierarchy: child visits in
/// turn, so the solve writes its instance with plain loads and stores.
pub struct ThorupSerialEngine;

impl SsspEngine for ThorupSerialEngine {
    fn name(&self) -> &'static str {
        "serial-thorup"
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        case.solve_positive(source, |g, ch, s| {
            ThorupSolver::new(g, ch)
                .with_config(ThorupConfig::serial())
                .solve(s)
        })
    }
}

/// The parallel Thorup solver (default configuration: atomic cells,
/// concurrent child visits).
pub struct AtomicThorupEngine;

impl SsspEngine for AtomicThorupEngine {
    fn name(&self) -> &'static str {
        "thorup"
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        case.solve_positive(source, |g, ch, s| ThorupSolver::new(g, ch).solve(s))
    }
}

/// Δ-stepping with the auto-tuned bucket width.
pub struct DeltaSteppingEngine;

impl SsspEngine for DeltaSteppingEngine {
    fn name(&self) -> &'static str {
        "delta-stepping"
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        delta_stepping(&case.graph, source, DeltaConfig::auto(&case.graph))
    }
}

/// The allocation-free Δ-stepping hot path: light/heavy pre-split CSR,
/// reusable scratch, once-per-label extraction claims, adaptive Δ.
pub struct PresplitDeltaEngine;

impl SsspEngine for PresplitDeltaEngine {
    fn name(&self) -> &'static str {
        "delta-presplit"
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        let cfg = DeltaConfig::adaptive(&case.graph);
        let delta = cfg.delta().min(u32::MAX as u64) as mmt_graph::types::Weight;
        let split = SplitCsr::new(&case.graph, delta);
        let mut scratch = DeltaScratch::new(&split);
        // Two queries over one scratch: the second is the reported answer,
        // so reuse bugs (stale claim cells, unreset distances) surface as
        // divergences rather than hiding behind fresh state.
        delta_stepping_presplit(&split, source, &mut scratch, None);
        delta_stepping_presplit(&split, source, &mut scratch, None);
        scratch.to_distances()
    }
}

/// Batched Thorup with pooled instances and result buffers. Each query is
/// answered from inside a real batch (two decoy sources ride along) so the
/// pool-sharing path itself is under differential test.
pub struct BatchThorupEngine;

impl SsspEngine for BatchThorupEngine {
    fn name(&self) -> &'static str {
        "thorup-batch"
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        case.solve_positive(source, |g, ch, s| {
            let n = g.n() as VertexId;
            let solver = ThorupSolver::new(g, ch);
            let batch = BatchSolver::new(&solver);
            let sources = [s, (s + 1) % n, n / 2];
            let mut rows = batch.solve_batch(&sources);
            rows.swap_remove(0).detach()
        })
    }
}

/// Frontier-based parallel Bellman-Ford.
pub struct BellmanFordEngine;

impl SsspEngine for BellmanFordEngine {
    fn name(&self) -> &'static str {
        "bellman-ford"
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        bellman_ford_frontier(&case.graph, source)
    }
}

/// Goldberg's multi-level-bucket (radix-heap) solver.
pub struct MlbEngine;

impl SsspEngine for MlbEngine {
    fn name(&self) -> &'static str {
        "mlb"
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        goldberg_sssp(&case.graph, source)
    }
}

/// Bidirectional Dijkstra, adapted by solving every pair `(source, t)`.
/// Quadratic per source, so [`SsspEngine::supports`] caps the case size.
pub struct BidirectionalEngine;

impl SsspEngine for BidirectionalEngine {
    fn name(&self) -> &'static str {
        "bidirectional"
    }

    fn supports(&self, case: &GraphCase) -> bool {
        case.n() <= 128
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        (0..case.n() as VertexId)
            .map(|t| {
                if t == source {
                    0
                } else {
                    bidirectional_dijkstra(&case.graph, source, t)
                }
            })
            .collect()
    }
}

/// The served `p2p-bidi` solver ([`bidirectional_st`]): scratch-based
/// bidirectional Dijkstra with the `top(fwd) + top(bwd) ≥ best` stopping
/// rule. Adapted by answering every pair `(source, t)` on ONE reused
/// [`BidiScratch`], so the sparse touched-list reset is itself under
/// differential test across the corpus — including `t == source` (the
/// zero short-circuit) and unreachable targets (the exhaustion proof).
pub struct P2pBidiEngine;

impl SsspEngine for P2pBidiEngine {
    fn name(&self) -> &'static str {
        "p2p-bidi"
    }

    fn supports(&self, case: &GraphCase) -> bool {
        case.n() <= 128
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        let mut scratch = BidiScratch::new();
        (0..case.n() as VertexId)
            .map(|t| {
                bidirectional_st(&case.graph, source, t, &mut scratch, None)
                    .expect("uncancellable query cannot be interrupted")
                    .0
            })
            .collect()
    }
}

/// The served `p2p-delta-early` solver ([`delta_stepping_st`]): Δ-stepping
/// that stops once the target's bucket settles. One pre-split CSR and ONE
/// reused [`DeltaScratch`] answer every pair, so the bins an early exit
/// leaves behind are held to the oracle across back-to-back queries,
/// unreachable targets and `t == source` alike.
pub struct P2pDeltaEarlyEngine;

impl SsspEngine for P2pDeltaEarlyEngine {
    fn name(&self) -> &'static str {
        "p2p-delta-early"
    }

    fn supports(&self, case: &GraphCase) -> bool {
        case.n() <= 128
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        let cfg = DeltaConfig::adaptive(&case.graph);
        let delta = cfg.delta().min(u32::MAX as u64) as mmt_graph::types::Weight;
        let split = SplitCsr::new(&case.graph, delta.max(1));
        let mut scratch = DeltaScratch::new(&split);
        (0..case.n() as VertexId)
            .map(|t| {
                delta_stepping_st(&split, source, t, &mut scratch, None, None)
                    .expect("uncancellable query cannot be interrupted")
            })
            .collect()
    }
}

/// Δ-stepping on a BFS-relabeled copy of the graph: permute, solve in the
/// new index space, scatter distances back. Puts the whole layout facade
/// (source mapping in, O(n) scatter out) under differential test.
pub struct BfsLayoutDeltaEngine;

impl SsspEngine for BfsLayoutDeltaEngine {
    fn name(&self) -> &'static str {
        "delta-bfs-layout"
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        let perm = VertexPermutation::bfs(&case.graph);
        let pg = case.graph.permuted(&perm);
        let d = delta_stepping(&pg, perm.to_new(source), DeltaConfig::auto(&pg));
        perm.scatter_to_original_vec(&d)
    }
}

/// Thorup on the CH-DFS layout: graph *and* hierarchy leaf-permuted so
/// every Thorup component is index-contiguous, answered through the
/// [`LayoutSolver`] facade in original vertex ids.
pub struct ChDfsLayoutThorupEngine;

impl SsspEngine for ChDfsLayoutThorupEngine {
    fn name(&self) -> &'static str {
        "thorup-chdfs-layout"
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        case.solve_positive(source, |g, ch, s| {
            let layout =
                GraphLayout::build(LayoutKind::ChDfs, Arc::new(g.clone()), Arc::new(ch.clone()))
                    .expect("case graph and hierarchy sizes agree by construction");
            LayoutSolver::new(&layout).solve(s)
        })
    }
}

/// The full multi-tenant serving path: register the case in a
/// [`GraphRegistry`], stand up a one-worker [`QueryService`] shard, and
/// answer through `submit`/`wait`. Every layer the registry redesign
/// added — registration, typed routing, admission, the worker loop —
/// sits between the query and the answer, and the answer must
/// still match Dijkstra bit for bit.
pub struct RegistryServiceEngine;

impl SsspEngine for RegistryServiceEngine {
    fn name(&self) -> &'static str {
        "registry-service"
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        case.solve_positive(source, |g, ch, s| {
            let mut registry = GraphRegistry::new();
            let id = registry
                .register("case", g, Arc::new(ch.clone()))
                .expect("case graph and hierarchy sizes agree by construction");
            let service = QueryService::builder()
                .workers(1)
                .build_registry(registry)
                .expect("a registered case is servable");
            service
                .submit(QueryRequest::on(id, s))
                .expect("in-range source")
                .wait()
                .expect("no deadline, no faults")
        })
    }
}

/// The serving path with the coalescing scheduler forced on: a one-worker
/// shard with a small gather window and a batch cap of four, asked the
/// same query four times at once. The scheduler folds the backlog into
/// one [`BatchSolver`] run behind the scenes (the engine records how many
/// multi-member batches actually formed), all four answers must agree
/// with each other, and the differential runner holds the one returned to
/// the Dijkstra oracle — proving a coalesced answer is byte-identical to
/// a solo one on every corpus member.
#[derive(Default)]
pub struct CoalescedServiceEngine {
    batches: Arc<AtomicU64>,
}

impl CoalescedServiceEngine {
    /// Multi-member batches formed across every `solve` so far. The
    /// corpus sweep asserts this is non-zero — the coalescing path must
    /// actually run, not just exist.
    pub fn batches_formed(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }
}

impl SsspEngine for CoalescedServiceEngine {
    fn name(&self) -> &'static str {
        "coalesced-service"
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        case.solve_positive(source, |g, ch, s| {
            let mut registry = GraphRegistry::new();
            let id = registry
                .register("case", g, Arc::new(ch.clone()))
                .expect("case graph and hierarchy sizes agree by construction");
            let service = QueryService::builder()
                .workers(1)
                .coalesce_budget(Duration::from_millis(50))
                .coalesce_batch_cap(4)
                .build_registry(registry)
                .expect("a registered case is servable");
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    service
                        .submit(QueryRequest::on(id, s))
                        .expect("in-range source")
                })
                .collect();
            let mut answers = handles
                .into_iter()
                .map(|h| h.wait().expect("no deadline, no faults"));
            let first = answers.next().expect("four submissions");
            for (i, other) in answers.enumerate() {
                assert_eq!(
                    first,
                    other,
                    "coalesced copy {} diverged from the first answer",
                    i + 1
                );
            }
            self.batches
                .fetch_add(service.metrics().coalesced_batches(), Ordering::Relaxed);
            first
        })
    }
}

/// ρ-stepping on the contention-free frontier bins: each step extracts
/// the ~ρ closest frontier vertices and relaxes all of their edges, with
/// relax-phase pushes going only into thread-local bins. Solves twice on
/// one scratch so reuse bugs surface, like [`PresplitDeltaEngine`].
pub struct RhoSteppingEngine;

impl SsspEngine for RhoSteppingEngine {
    fn name(&self) -> &'static str {
        "rho-stepping"
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        let cfg = DeltaConfig::adaptive(&case.graph);
        let delta = cfg.delta().min(u32::MAX as u64) as mmt_graph::types::Weight;
        let split = SplitCsr::new(&case.graph, delta.max(1));
        let mut scratch = StepScratch::new(&split);
        let rho = default_rho(case.n());
        rho_stepping_presplit(&split, source, rho, &mut scratch, None);
        rho_stepping_presplit(&split, source, rho, &mut scratch, None);
        scratch.to_distances()
    }
}

/// Δ*-stepping on the same bins and the same [`SplitCsr`] as
/// [`RhoSteppingEngine`], solved twice on one scratch.
pub struct DeltaStarEngine;

impl SsspEngine for DeltaStarEngine {
    fn name(&self) -> &'static str {
        "delta-star"
    }

    fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
        let cfg = DeltaConfig::adaptive(&case.graph);
        let delta = cfg.delta().min(u32::MAX as u64) as mmt_graph::types::Weight;
        let split = SplitCsr::new(&case.graph, delta.max(1));
        let mut scratch = StepScratch::new(&split);
        delta_star_presplit(&split, source, &mut scratch, None);
        delta_star_presplit(&split, source, &mut scratch, None);
        scratch.to_distances()
    }
}

/// Every engine in the workspace, oracle excluded. The order is stable so
/// divergence reports are reproducible run to run.
pub fn all_engines() -> Vec<Box<dyn SsspEngine>> {
    vec![
        Box::new(ThorupSerialEngine),
        Box::new(AtomicThorupEngine),
        Box::new(BatchThorupEngine),
        Box::new(DeltaSteppingEngine),
        Box::new(PresplitDeltaEngine),
        Box::new(BellmanFordEngine),
        Box::new(MlbEngine),
        Box::new(BidirectionalEngine),
        Box::new(P2pBidiEngine),
        Box::new(P2pDeltaEarlyEngine),
        Box::new(BfsLayoutDeltaEngine),
        Box::new(ChDfsLayoutThorupEngine),
        Box::new(RhoSteppingEngine),
        Box::new(DeltaStarEngine),
        Box::new(RegistryServiceEngine),
        Box::new(CoalescedServiceEngine::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_graph::gen::shapes;
    use mmt_graph::types::INF;

    #[test]
    fn every_engine_matches_the_oracle_on_figure_one() {
        let case = GraphCase::new("fig1", shapes::figure_one());
        let want = DijkstraOracle.solve(&case, 0);
        for engine in all_engines() {
            assert!(engine.supports(&case));
            assert_eq!(engine.solve(&case, 0), want, "engine {}", engine.name());
        }
    }

    #[test]
    fn bidirectional_bows_out_of_large_cases() {
        let case = GraphCase::new("path", shapes::path(200, 1));
        assert!(!BidirectionalEngine.supports(&case));
        assert!(!P2pBidiEngine.supports(&case));
        assert!(!P2pDeltaEarlyEngine.supports(&case));
        assert!(MlbEngine.supports(&case));
    }

    #[test]
    fn engine_table_has_sixteen_engines_with_unique_names() {
        let engines = all_engines();
        assert_eq!(engines.len(), 16, "engine table size");
        let names: std::collections::BTreeSet<_> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), engines.len(), "duplicate engine name");
        assert!(names.contains("p2p-bidi"));
        assert!(names.contains("p2p-delta-early"));
    }

    #[test]
    fn layout_engines_answer_in_original_ids_on_a_hub_graph() {
        // A star forces BFS and CH-DFS orders far from the natural one, so
        // any missed scatter or source mapping shows up immediately.
        let case = GraphCase::new("star", shapes::star(17, 3));
        for s in [0u32, 1, 16] {
            let want = DijkstraOracle.solve(&case, s);
            assert_eq!(BfsLayoutDeltaEngine.solve(&case, s), want, "bfs s={s}");
            assert_eq!(ChDfsLayoutThorupEngine.solve(&case, s), want, "chdfs s={s}");
        }
    }

    #[test]
    fn unreachable_vertices_are_inf_everywhere() {
        let mut el = shapes::path(4, 3);
        el.n = 6; // two isolated vertices appended
        let case = GraphCase::new("path+isolated", el);
        for engine in all_engines() {
            let d = engine.solve(&case, 0);
            assert_eq!(d[4], INF, "engine {}", engine.name());
            assert_eq!(d[5], INF, "engine {}", engine.name());
        }
    }
}
