//! Quickstart: build a graph, build its Component Hierarchy once, answer
//! shortest-path queries with Thorup's algorithm, and cross-check against
//! Dijkstra.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mmt_sssp::baselines::dijkstra::{dijkstra_with_parents, extract_path};
use mmt_sssp::prelude::*;

fn main() {
    // The paper's Figure 1 graph: two tight communities (weight-1
    // triangles) joined by one expensive edge (weight 8).
    let edges = shapes::figure_one();
    let graph = CsrGraph::from_edge_list(&edges);

    // Preprocessing: the Component Hierarchy. Built once, shared by every
    // query afterwards.
    let ch = build_parallel(&edges);
    println!(
        "graph: n={} m={} C={}",
        graph.n(),
        graph.m(),
        graph.max_weight()
    );
    println!("hierarchy: {}", ChStats::of(&ch));

    // A Thorup query.
    let solver = ThorupSolver::new(&graph, &ch);
    let source: VertexId = 0;
    let dist = solver.solve(source);
    println!("\ndistances from {source}: {dist:?}");

    // Cross-check with the Dijkstra oracle and print an actual path.
    let (oracle, parents) = dijkstra_with_parents(&graph, source);
    assert_eq!(dist, oracle, "Thorup must agree with Dijkstra");
    verify_sssp(&graph, source, &dist).expect("certificate check");
    let target = 5;
    let path = extract_path(&parents, &oracle, source, target).expect("reachable");
    println!(
        "a shortest path {source} -> {target}: {path:?} (length {})",
        dist[target as usize]
    );

    // The batch API: many sources, one shared hierarchy.
    let batch = BatchSolver::new(&solver);
    let all: Vec<VertexId> = (0..graph.n() as VertexId).collect();
    let rows = batch.solve_batch(&all);
    println!(
        "\nall-pairs via {} simultaneous single-source queries:",
        all.len()
    );
    for (s, row) in rows.iter().enumerate() {
        println!("  from {s}: {:?}", &row[..]);
    }
}
