//! ρ-stepping (Dong, Gu, Sun, Zhang — arXiv:2105.06145) as a policy over
//! the shared stepping loop (`crate::step`).
//!
//! Where Δ-stepping processes one distance-width bucket at a time,
//! ρ-stepping extracts (approximately) the ρ *closest* frontier vertices
//! per step and relaxes **all** of their arcs — no light/heavy phase
//! split. A step pulls whole buckets in ascending order until about ρ
//! vertices are queued; the loop's fixpoint argument makes any such
//! extraction sound, since a vertex whose label improves is re-inserted
//! and relaxed again.

use crate::step::{step, Arcs, Step, StepPolicy, StepQuery, StepScratch};
use mmt_graph::types::VertexId;
use mmt_graph::SplitCsr;
use mmt_platform::EventCounters;

/// Default extraction target: large enough that a step saturates the
/// pool on the workloads this repo runs, small enough that distance
/// ordering still prunes most re-relaxations (the paper tunes ρ per
/// machine; `n/16` tracks graph size the way its large-graph settings
/// do).
pub fn default_rho(n: usize) -> usize {
    (n / 16).max(32)
}

/// ρ-stepping's step: pull buckets from `first` up until about ρ
/// vertices are queued, then relax all of their arcs. The ring is twice
/// the window: extraction may span up to one window of buckets above
/// `first`, and the other half absorbs the pushes those vertices make.
struct Rho(usize);

impl StepPolicy for Rho {
    fn ring_len(&self, window: u64) -> u64 {
        2 * window
    }

    fn step(&self, st: &mut Step<'_>, first: u64) -> bool {
        let mut bucket = first;
        loop {
            st.extract(bucket);
            if st.frontier_len() >= self.0 {
                break;
            }
            match st.vote(bucket) {
                // The span cap keeps every push from this step inside the
                // ring; stopping short of ρ is just a different (equally
                // correct) extraction.
                Some(b) if b - first < st.window() => bucket = b,
                _ => break,
            }
        }
        st.relax_frontier(Arcs::All);
        true
    }
}

/// ρ-stepping over a pre-split adjacency: see the module docs.
///
/// Distances are left in `scratch` (see [`StepScratch::distance`] /
/// [`StepScratch::copy_distances_into`]) so steady-state callers decide
/// where the output goes without a forced allocation. Counter
/// conventions match [`crate::delta_stepping_presplit`]:
/// `bucket_expansions` counts relax steps.
pub fn rho_stepping_presplit(
    split: &SplitCsr,
    source: VertexId,
    rho: usize,
    scratch: &mut StepScratch,
    counters: Option<&EventCounters>,
) {
    let query = StepQuery {
        source,
        counters,
        ..StepQuery::default()
    };
    let done = step(&Rho(rho.max(1)), split, scratch, &query);
    debug_assert!(done, "an uncancellable solve completes");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta_stepping::adaptive_delta;
    use crate::dijkstra::dijkstra;
    use mmt_graph::gen::{shapes, GraphClass, WeightDist, WorkloadSpec};
    use mmt_graph::types::{Dist, EdgeList, INF};
    use mmt_graph::CsrGraph;
    use mmt_platform::CancelToken;

    fn solve(g: &CsrGraph, s: VertexId, delta: u32, rho: usize) -> Vec<Dist> {
        let split = SplitCsr::new(g, delta.max(1));
        let mut scratch = StepScratch::new(&split);
        rho_stepping_presplit(&split, s, rho, &mut scratch, None);
        scratch.to_distances()
    }

    fn check_graph(el: &EdgeList, deltas: &[u32], rhos: &[usize]) {
        let g = CsrGraph::from_edge_list(el);
        for &s in &[0u32, el.n as u32 / 2, el.n as u32 - 1] {
            let want = dijkstra(&g, s);
            for &delta in deltas {
                for &rho in rhos {
                    assert_eq!(
                        solve(&g, s, delta, rho),
                        want,
                        "delta={delta} rho={rho} source={s}"
                    );
                }
            }
        }
    }

    #[test]
    fn shapes_match_dijkstra_across_rho() {
        check_graph(&shapes::path(30, 5), &[1, 5, 100], &[1, 4, 1000]);
        check_graph(&shapes::star(20, 7), &[1, 7], &[2, 64]);
        check_graph(&shapes::complete(12, 3), &[1, 3], &[1, 3, 12]);
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
            let g = CsrGraph::from_edge_list(&spec.generate());
            let delta = adaptive_delta(&g).min(u32::MAX as u64) as u32;
            for s in [0u32, 17, 200] {
                let want = dijkstra(&g, s);
                for rho in [1usize, 32, default_rho(g.n()), usize::MAX / 2] {
                    assert_eq!(solve(&g, s, delta, rho), want, "{} rho={rho}", spec.name());
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_queries_and_graphs() {
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::PolyLog, 7, 9);
        spec.seed = 99;
        let g = CsrGraph::from_edge_list(&spec.generate());
        let split = SplitCsr::new(&g, adaptive_delta(&g).min(u32::MAX as u64) as u32);
        let mut scratch = StepScratch::new(&split);
        let rho = default_rho(g.n());
        let mut out = Vec::new();
        for s in [0u32, 3, 50, 100, 3, 0] {
            rho_stepping_presplit(&split, s, rho, &mut scratch, None);
            scratch.copy_distances_into(&mut out);
            assert_eq!(out, dijkstra(&g, s), "source {s}");
        }
        // The same scratch survives a move to a differently-sized split.
        let small = CsrGraph::from_edge_list(&shapes::path(5, 2));
        let small_split = SplitCsr::new(&small, 2);
        rho_stepping_presplit(&small_split, 0, rho, &mut scratch, None);
        scratch.copy_distances_into(&mut out);
        assert_eq!(out, dijkstra(&small, 0));
    }

    #[test]
    fn disconnected_self_loops_and_zero_weights() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(4, [(0, 1, 6)]));
        assert_eq!(solve(&g, 0, 3, 8), vec![0, 6, INF, INF]);
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(
            2,
            [(0, 0, 4), (0, 1, 9), (0, 1, 2)],
        ));
        assert_eq!(solve(&g, 0, 4, 8), vec![0, 2]);
        let g = CsrGraph::from_edge_list(&mmt_graph::gen::adversarial::zero_chain(24, 3));
        assert_eq!(solve(&g, 0, 2, 4), dijkstra(&g, 0));
    }

    #[test]
    fn counters_record_activity_and_each_arc_once_on_a_path() {
        // On a path every vertex settles at its final distance the first
        // time it is extracted, so each arc relaxes exactly once.
        let g = CsrGraph::from_edge_list(&shapes::path(20, 3));
        let split = SplitCsr::new(&g, 6);
        let mut scratch = StepScratch::new(&split);
        let ev = EventCounters::new();
        rho_stepping_presplit(&split, 0, 4, &mut scratch, Some(&ev));
        assert_eq!(scratch.to_distances(), dijkstra(&g, 0));
        assert_eq!(ev.settled.get(), 20);
        assert_eq!(ev.relaxations.get() as usize, g.num_arcs());
        assert_eq!(ev.arcs_scanned.get(), ev.relaxations.get());
        assert!(ev.bucket_expansions.get() > 0);
        assert!(ev.improvements.get() >= 19);
    }

    /// The determinism law: the same seeded workload solved at 1, 2 and 4
    /// threads yields bit-identical distances — the lane count changes
    /// where work runs, never what the fixpoint converges to.
    #[test]
    fn distances_identical_across_threads() {
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::PolyLog, 8, 9);
        spec.seed = 2007;
        let g = CsrGraph::from_edge_list(&spec.generate());
        let delta = adaptive_delta(&g).min(u32::MAX as u64) as u32;
        let want = dijkstra(&g, 7);
        for threads in [1usize, 2, 4] {
            let got = mmt_platform::with_pool(threads, || {
                let split = SplitCsr::new(&g, delta);
                let mut scratch = StepScratch::new(&split);
                rho_stepping_presplit(&split, 7, 64, &mut scratch, None);
                scratch.to_distances()
            });
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn cancellation_stops_the_solve_and_leaves_scratch_reusable() {
        let g = CsrGraph::from_edge_list(&shapes::path(50, 2));
        let split = SplitCsr::new(&g, 4);
        let mut scratch = StepScratch::new(&split);
        let token = CancelToken::new();
        token.cancel();
        let query = |cancel| StepQuery {
            cancel,
            ..StepQuery::default()
        };
        assert!(!step(&Rho(8), &split, &mut scratch, &query(Some(&token))));
        // A fresh token completes, on the same scratch.
        let live = CancelToken::new();
        assert!(step(&Rho(8), &split, &mut scratch, &query(Some(&live))));
        assert_eq!(scratch.to_distances(), dijkstra(&g, 0));
    }
}
