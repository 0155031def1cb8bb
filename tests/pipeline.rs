//! Cross-crate integration: generator → CSR → Component Hierarchy → solver
//! pipelines, batch engines, DIMACS round-trips, and the zero-weight
//! preprocessing path, all checked end to end against independent oracles.

use mmt_sssp::prelude::*;

fn grid_of_specs() -> Vec<WorkloadSpec> {
    let mut v = Vec::new();
    for class in [GraphClass::Random, GraphClass::Rmat, GraphClass::Grid] {
        for dist in [WeightDist::Uniform, WeightDist::PolyLog] {
            let mut s = WorkloadSpec::new(class, dist, 9, 7);
            s.seed = 7;
            v.push(s);
        }
    }
    v
}

#[test]
fn full_pipeline_matches_all_baselines() {
    for spec in grid_of_specs() {
        let el = spec.generate();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_parallel(&el);
        ch.validate(None).unwrap();
        let solver = ThorupSolver::new(&g, &ch);
        let s = (g.n() / 3) as VertexId;
        let thorup = solver.solve(s);
        assert_eq!(thorup, dijkstra(&g, s), "{} vs dijkstra", spec.name());
        assert_eq!(thorup, goldberg_sssp(&g, s), "{} vs goldberg", spec.name());
        assert_eq!(
            thorup,
            delta_stepping(&g, s, DeltaConfig::auto(&g)),
            "{} vs delta-stepping",
            spec.name()
        );
        verify_sssp_engine("thorup", &g, s, &thorup).unwrap();
    }
}

#[test]
fn one_call_facade_functions() {
    let spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 8, 8);
    let el = spec.generate();
    let g = CsrGraph::from_edge_list(&el);
    let d = mmt_sssp::shortest_paths(&el, 5).unwrap();
    assert_eq!(d, dijkstra(&g, 5));
    let batch = mmt_sssp::shortest_paths_multi(&el, &[1, 2, 3]).unwrap();
    assert_eq!(batch[2], dijkstra(&g, 3));
}

#[test]
fn dimacs_round_trip_preserves_distances() {
    let spec = WorkloadSpec::new(GraphClass::Random, WeightDist::PolyLog, 8, 6);
    let el = spec.generate();
    let mut buf = Vec::new();
    mmt_sssp::graph::dimacs::write_gr(&mut buf, &el, "round trip").unwrap();
    let back = mmt_sssp::graph::dimacs::read_gr(&buf[..]).unwrap();
    let g1 = CsrGraph::from_edge_list(&el);
    let g2 = CsrGraph::from_edge_list(&back);
    assert_eq!(g1.n(), g2.n());
    assert_eq!(g1.m(), g2.m());
    assert_eq!(dijkstra(&g1, 0), dijkstra(&g2, 0));
    assert_eq!(
        mmt_sssp::shortest_paths(&el, 0).unwrap(),
        mmt_sssp::shortest_paths(&back, 0).unwrap()
    );
}

#[test]
fn batch_engine_consistency_across_modes_and_pools() {
    let spec = WorkloadSpec::new(GraphClass::Rmat, WeightDist::Uniform, 9, 9);
    let el = spec.generate();
    let g = CsrGraph::from_edge_list(&el);
    let ch = build_parallel(&el);
    let solver = ThorupSolver::new(&g, &ch);
    let batch = BatchSolver::new(&solver);
    let sources: Vec<VertexId> = vec![0, 9, 99, 400, 77, 3];
    let want: Vec<Vec<Dist>> = sources.iter().map(|&s| dijkstra(&g, s)).collect();
    for threads in [1usize, 4] {
        let got: Vec<Vec<Dist>> = mmt_sssp::platform::with_pool(threads, || {
            batch
                .solve_batch(&sources)
                .into_iter()
                .map(|row| row.detach())
                .collect()
        });
        assert_eq!(got, want, "threads={threads}");
    }
    let sequential: Vec<Vec<Dist>> = sources.iter().map(|&s| solver.solve(s)).collect();
    assert_eq!(sequential, want);
}

#[test]
fn zero_weight_graphs_via_contraction() {
    use mmt_sssp::ch::ZeroContraction;
    // A graph mixing zero and positive weights.
    let el = EdgeList::from_triples(
        8,
        [
            (0, 1, 0),
            (1, 2, 5),
            (2, 3, 0),
            (3, 4, 7),
            (5, 6, 0),
            (0, 5, 2),
            (6, 7, 3),
        ],
    );
    let z = ZeroContraction::contract(&el);
    let g = CsrGraph::from_edge_list(&z.reduced);
    let ch = build_parallel(&z.reduced);
    let reduced = ThorupSolver::new(&g, &ch).solve(z.map_source(0));
    let full = z.expand_dist(&reduced);
    // Oracle: Dijkstra tolerates zero weights directly.
    let g_full = CsrGraph::from_edge_list(&el);
    assert_eq!(full, dijkstra(&g_full, 0));
}

#[test]
fn induced_subgraph_queries_match_global_structure() {
    use mmt_sssp::graph::subgraph::induced_by_vertices;
    let spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 8, 5);
    let el = spec.generate();
    let g = CsrGraph::from_edge_list(&el);
    // Extract the ball of radius 2 hops around vertex 0 and solve inside it.
    let mut selected: Vec<VertexId> = vec![0];
    for (v, _) in g.edges_from(0) {
        selected.push(v);
        for (u, _) in g.edges_from(v) {
            selected.push(u);
        }
    }
    let sub = induced_by_vertices(&g, &selected);
    let sub_el = sub.graph.to_edge_list();
    let d = mmt_sssp::shortest_paths(&sub_el, 0).unwrap();
    assert_eq!(d, dijkstra(&sub.graph, 0));
    // Distances inside the subgraph can only be >= the global ones.
    let global = dijkstra(&g, 0);
    for (new_id, &orig) in sub.original_id.iter().enumerate() {
        assert!(d[new_id] >= global[orig as usize]);
    }
}

#[test]
fn faithful_and_collapsed_hierarchies_answer_identically() {
    let spec = WorkloadSpec::new(GraphClass::Random, WeightDist::PolyLog, 8, 10);
    let el = spec.generate();
    let g = CsrGraph::from_edge_list(&el);
    let collapsed = build_serial(&el, ChMode::Collapsed);
    let faithful = build_serial(&el, ChMode::Faithful);
    let a = ThorupSolver::new(&g, &collapsed).solve(2);
    let b = ThorupSolver::new(&g, &faithful).solve(2);
    assert_eq!(a, b);
}
