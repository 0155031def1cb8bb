//! Δ*-stepping (Dong, Gu, Sun, Zhang — arXiv:2105.06145) as a policy over
//! the shared stepping loop (`crate::step`).
//!
//! Δ*-stepping keeps classic Δ-stepping's bucket order but drops the
//! light/heavy arc classification: when a bucket's vertices are
//! extracted, **all** of their arcs are relaxed at once, and the bucket
//! is re-drained to a fixpoint (a vertex improved back into the current
//! bucket re-relaxes in the next inner round) before the step advances.
//! Compared to [`crate::delta_stepping_presplit`] this trades some
//! redundant heavy-arc relaxations for one relax phase per round instead
//! of a separate heavy pass.

use crate::step::{step, Arcs, Step, StepPolicy, StepQuery, StepScratch};
use mmt_graph::types::VertexId;
use mmt_graph::SplitCsr;
use mmt_platform::EventCounters;

/// Δ*-stepping's step: drain the bucket to a fixpoint over all arcs.
struct DeltaStar;

impl StepPolicy for DeltaStar {
    fn step(&self, st: &mut Step<'_>, bucket: u64) -> bool {
        st.fixpoint(bucket, Arcs::All)
    }
}

/// Δ*-stepping over a pre-split adjacency: see the module docs.
///
/// Distances are left in `scratch`; counter conventions match
/// [`crate::delta_stepping_presplit`].
pub fn delta_star_presplit(
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
    let done = step(&DeltaStar, split, scratch, &query);
    debug_assert!(done, "an uncancellable solve completes");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta_stepping::adaptive_delta;
    use crate::dijkstra::dijkstra;
    use mmt_graph::gen::{shapes, GraphClass, WeightDist, WorkloadSpec};
    use mmt_graph::types::{Dist, EdgeList};
    use mmt_graph::CsrGraph;
    use mmt_platform::CancelToken;

    fn solve(g: &CsrGraph, s: VertexId, delta: u32) -> Vec<Dist> {
        let split = SplitCsr::new(g, delta.max(1));
        let mut scratch = StepScratch::new(&split);
        delta_star_presplit(&split, s, &mut scratch, None);
        scratch.to_distances()
    }

    fn check_graph(el: &EdgeList, deltas: &[u32]) {
        let g = CsrGraph::from_edge_list(el);
        for &s in &[0u32, el.n as u32 / 2, el.n as u32 - 1] {
            let want = dijkstra(&g, s);
            for &delta in deltas {
                assert_eq!(solve(&g, s, delta), want, "delta={delta} source={s}");
            }
        }
    }

    #[test]
    fn shapes_match_dijkstra_across_delta() {
        check_graph(&shapes::path(30, 5), &[1, 5, 100]);
        check_graph(&shapes::star(20, 7), &[1, 7]);
        check_graph(&shapes::complete(12, 3), &[1, 3]);
        check_graph(&mmt_graph::gen::adversarial::zero_chain(24, 3), &[1, 2, 9]);
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
            spec.seed = 29;
            let g = CsrGraph::from_edge_list(&spec.generate());
            let auto = adaptive_delta(&g).min(u32::MAX as u64) as u32;
            for s in [0u32, 17, 200] {
                let want = dijkstra(&g, s);
                for delta in [1u32, 16, auto] {
                    assert_eq!(solve(&g, s, delta), want, "{} delta={delta}", spec.name());
                }
            }
        }
    }

    #[test]
    fn scratch_is_shared_with_rho_stepping_across_queries() {
        use crate::rho_stepping::{default_rho, rho_stepping_presplit};
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::PolyLog, 7, 9);
        spec.seed = 77;
        let g = CsrGraph::from_edge_list(&spec.generate());
        let split = SplitCsr::new(&g, adaptive_delta(&g).min(u32::MAX as u64) as u32);
        let mut scratch = StepScratch::new(&split);
        let mut out = Vec::new();
        for s in [0u32, 9, 64, 9] {
            let want = dijkstra(&g, s);
            delta_star_presplit(&split, s, &mut scratch, None);
            scratch.copy_distances_into(&mut out);
            assert_eq!(out, want, "delta* source {s}");
            rho_stepping_presplit(&split, s, default_rho(g.n()), &mut scratch, None);
            scratch.copy_distances_into(&mut out);
            assert_eq!(out, want, "rho source {s}");
        }
    }

    #[test]
    fn counters_record_activity() {
        let g = CsrGraph::from_edge_list(&shapes::path(20, 3));
        let split = SplitCsr::new(&g, 6);
        let mut scratch = StepScratch::new(&split);
        let ev = EventCounters::new();
        delta_star_presplit(&split, 0, &mut scratch, Some(&ev));
        assert_eq!(scratch.to_distances(), dijkstra(&g, 0));
        assert_eq!(ev.settled.get(), 20);
        assert_eq!(ev.relaxations.get() as usize, g.num_arcs());
        assert_eq!(ev.arcs_scanned.get(), ev.relaxations.get());
        assert!(ev.bucket_expansions.get() > 0);
        assert!(ev.improvements.get() >= 19);
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
        assert!(!step(
            &DeltaStar,
            &split,
            &mut scratch,
            &query(Some(&token))
        ));
        let live = CancelToken::new();
        assert!(step(&DeltaStar, &split, &mut scratch, &query(Some(&live))));
        assert_eq!(scratch.to_distances(), dijkstra(&g, 0));
    }
}
