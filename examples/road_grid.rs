//! Road networks — the paper's future-work frontier.
//!
//! The conclusion notes the implementation "exhibits trapping behavior that
//! severely limits performance on road networks": on high-diameter
//! structured graphs the Component Hierarchy traversal descends into long
//! chains of tiny components, so the toVisit sets stay near size one and
//! the parallel machinery has nothing to chew on. This example quantifies
//! that on a grid (the standard road-network stand-in): compare the
//! bucket-expansion counts and wall time of Thorup vs Δ-stepping on a grid
//! against an unstructured Random graph of the same size.
//!
//! ```text
//! cargo run --release --example road_grid [log_n]
//! ```

use mmt_platform::{EventCounters, Stopwatch};
use mmt_sssp::prelude::*;

fn run(label: &str, spec: WorkloadSpec) {
    let edges = spec.generate();
    let graph = CsrGraph::from_edge_list(&edges);
    let ch = build_parallel(&edges);
    let stats = ChStats::of(&ch);
    let solver = ThorupSolver::new(&graph, &ch);

    let sw = Stopwatch::start();
    let dist = solver.solve(0);
    let thorup_secs = sw.seconds();
    verify_sssp(&graph, 0, &dist).expect("certificate check");

    let sw = Stopwatch::start();
    let baseline = delta_stepping(&graph, 0, DeltaConfig::auto(&graph));
    let delta_secs = sw.seconds();
    assert_eq!(dist, baseline);

    // The diagnosis itself: a counted serial run.
    let ev = EventCounters::new();
    solver
        .with_config(ThorupConfig::serial())
        .with_counters(&ev)
        .solve(0);
    let c = ev.snapshot();
    println!(
        "\n== {label}: {} (n={} m={})",
        spec.name(),
        graph.n(),
        graph.m()
    );
    println!(
        "   CH: depth {} avg_children {:.2}",
        stats.depth, stats.avg_children
    );
    println!("   Thorup {thorup_secs:.4}s vs Δ-stepping {delta_secs:.4}s");
    println!(
        "   trapping indicators: {:.2} bucket expansions/vertex; {:.2} mind hops/improvement",
        c.bucket_expansions as f64 / c.settled as f64,
        c.mind_propagation_hops as f64 / c.improvements as f64
    );
}

fn main() {
    let log_n: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(14);
    // Same vertex budget, same weight distribution; only structure differs.
    run(
        "unstructured (paper's home turf)",
        WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, log_n, 8),
    );
    run(
        "structured road-like grid (future work)",
        WorkloadSpec::new(GraphClass::Grid, WeightDist::Uniform, log_n, 8),
    );
}
