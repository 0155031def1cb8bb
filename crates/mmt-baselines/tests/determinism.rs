//! Cross-thread-count determinism: the parallel stepping kernels are
//! `fetch_min` fixpoints, so the distances they produce are a function of
//! the graph alone — not of the thread count, the lane count, or the
//! scatter interleaving. This pins the seeded guarantee the scaling
//! benchmark's honesty rests on: a speedup row at N threads reports the
//! *same answers* as the 1-thread row.

use mmt_baselines::{
    adaptive_delta, default_rho, delta_star_presplit, delta_stepping_presplit, dijkstra,
    rho_stepping_presplit, DeltaScratch, StepScratch,
};
use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
use mmt_graph::types::Dist;
use mmt_graph::{CsrGraph, SplitCsr};
use mmt_platform::with_pool;

const SEED: u64 = 0x5354_4550; // "STEP"

fn workloads() -> Vec<CsrGraph> {
    [
        (GraphClass::Random, WeightDist::Uniform),
        (GraphClass::Rmat, WeightDist::PolyLog),
    ]
    .into_iter()
    .map(|(class, wd)| {
        let mut spec = WorkloadSpec::new(class, wd, 9, 9);
        spec.seed = SEED;
        CsrGraph::from_edge_list(&spec.generate())
    })
    .collect()
}

/// Runs every stepping kernel on `split` at the installed thread budget,
/// building the scratch *inside* the pool so lane counts follow it.
fn solve_all(g: &CsrGraph, split: &SplitCsr, sources: &[u32]) -> Vec<(&'static str, Vec<Dist>)> {
    let mut out = Vec::new();
    let mut step = StepScratch::new(split);
    let mut delta = DeltaScratch::new(split);
    for &s in sources {
        rho_stepping_presplit(split, s, default_rho(g.n()), &mut step, None);
        out.push(("rho", step.to_distances()));
        delta_star_presplit(split, s, &mut step, None);
        out.push(("delta-star", step.to_distances()));
        delta_stepping_presplit(split, s, &mut delta, None);
        out.push(("delta-presplit", delta.to_distances()));
    }
    out
}

#[test]
fn same_distances_at_one_vs_n_threads() {
    for g in workloads() {
        let delta = adaptive_delta(&g).min(u32::MAX as u64) as u32;
        let split = SplitCsr::new(&g, delta.max(1));
        let sources = [0u32, g.n() as u32 / 3, g.n() as u32 - 1];
        let serial = with_pool(1, || solve_all(&g, &split, &sources));
        for threads in [2usize, 4, 8] {
            let parallel = with_pool(threads, || solve_all(&g, &split, &sources));
            for ((name_a, a), (name_b, b)) in serial.iter().zip(&parallel) {
                assert_eq!(name_a, name_b);
                assert_eq!(a, b, "{name_a}: 1 thread vs {threads} threads");
            }
        }
        // And the fixpoint they all agree on is the right one.
        for (i, &s) in sources.iter().enumerate() {
            let want = dijkstra(&g, s);
            for (name, d) in &serial[i * 3..(i + 1) * 3] {
                assert_eq!(d, &want, "{name} vs oracle, source {s}");
            }
        }
    }
}
