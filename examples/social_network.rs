//! Social-network batch queries: shortest paths from the best-connected
//! seed users of an R-MAT scale-free graph — the unstructured-network
//! workload the paper's introduction motivates ("social networks and
//! economic transaction networks").
//!
//! The kernel is a batch of single-source shortest path computations, which
//! is exactly the regime where a shared Component Hierarchy pays off
//! (paper §5.5 / Figure 5): build the CH once, run the queries
//! simultaneously, and compare against running Δ-stepping once per seed.
//!
//! ```text
//! cargo run --release --example social_network [log_n]
//! ```

use mmt_platform::Stopwatch;
use mmt_sssp::prelude::*;

fn main() {
    let log_n: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(14);
    let spec = WorkloadSpec::new(GraphClass::Rmat, WeightDist::Uniform, log_n, 6);
    let edges = spec.generate();
    let graph = CsrGraph::from_edge_list(&edges);
    println!("network {}: n={} m={}", spec.name(), graph.n(), graph.m());

    // Preprocessing (shared by every query).
    let sw = Stopwatch::start();
    let ch = build_parallel(&edges);
    println!(
        "component hierarchy built in {:.3}s — {}",
        sw.seconds(),
        ChStats::of(&ch)
    );

    // Pick the highest-degree vertices as "seed users".
    let mut by_degree: Vec<VertexId> = (0..graph.n() as VertexId).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
    let seeds: Vec<VertexId> = by_degree[..16].to_vec();

    // Batch of Thorup queries over the shared CH.
    let solver = ThorupSolver::new(&graph, &ch);
    let batch = BatchSolver::new(&solver);
    let sw = Stopwatch::start();
    let rows = batch.solve_batch(&seeds);
    let thorup_secs = sw.seconds();

    // The baseline: Δ-stepping must run the seeds one after another.
    let cfg = DeltaConfig::auto(&graph);
    let sw = Stopwatch::start();
    let baseline: Vec<Vec<Dist>> = seeds
        .iter()
        .map(|&s| delta_stepping(&graph, s, cfg))
        .collect();
    let delta_secs = sw.seconds();
    assert!(
        rows.iter().zip(&baseline).all(|(a, b)| a[..] == b[..]),
        "both engines must agree"
    );

    println!(
        "\n{} queries: simultaneous Thorup {:.3}s vs sequential Δ-stepping {:.3}s ({:.2}x)",
        seeds.len(),
        thorup_secs,
        delta_secs,
        delta_secs / thorup_secs
    );
}
