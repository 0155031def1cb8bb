//! Randomised cross-validation sweeps and concurrency stress — larger and
//! nastier than the per-crate tests, still fast enough for every CI run.

use mmt_sssp::prelude::*;
use rayon::prelude::*;

/// Five engines, many seeds, every graph family: all must agree exactly.
#[test]
fn five_engines_agree_across_seeds() {
    for seed in [1u64, 7, 42, 1234] {
        for class in [GraphClass::Random, GraphClass::Rmat] {
            for wd in [WeightDist::Uniform, WeightDist::PolyLog] {
                let mut spec = WorkloadSpec::new(class, wd, 10, 10);
                spec.seed = seed;
                let el = spec.generate();
                let g = CsrGraph::from_edge_list(&el);
                let ch = build_parallel(&el);
                let s = (seed % g.n() as u64) as VertexId;
                let want = dijkstra(&g, s);
                assert_eq!(
                    ThorupSolver::new(&g, &ch).solve(s),
                    want,
                    "thorup {}",
                    spec.name()
                );
                assert_eq!(
                    ThorupSolver::new(&g, &ch)
                        .with_config(ThorupConfig::serial())
                        .solve(s),
                    want,
                    "serial {}",
                    spec.name()
                );
                assert_eq!(goldberg_sssp(&g, s), want, "goldberg {}", spec.name());
                assert_eq!(
                    delta_stepping(&g, s, DeltaConfig::auto(&g)),
                    want,
                    "delta {}",
                    spec.name()
                );
                verify_sssp_engine("dijkstra", &g, s, &want).unwrap();
            }
        }
    }
}

/// Many concurrent queries through the instance pool, on an oversubscribed
/// pool, with interleaved full and targeted solves.
#[test]
fn pool_stress_with_mixed_query_kinds() {
    let mut spec = WorkloadSpec::new(GraphClass::Rmat, WeightDist::Uniform, 10, 8);
    spec.seed = 3;
    let el = spec.generate();
    let g = CsrGraph::from_edge_list(&el);
    let ch = build_parallel(&el);
    let solver = ThorupSolver::new(&g, &ch);
    let pool = InstancePool::new(&ch);
    let oracle = dijkstra(&g, 0);
    mmt_sssp::platform::with_pool(8, || {
        (0..64u32).into_par_iter().for_each(|i| {
            let inst = pool.acquire();
            if i % 2 == 0 {
                solver.solve_into(&inst, 0);
                assert_eq!(inst.distances(), oracle, "query {i}");
            } else {
                let t = (i * 37) % g.n() as u32;
                let d = solver.solve_target(&inst, 0, t);
                assert_eq!(d, oracle[t as usize], "targeted query {i}");
            }
        });
    });
    assert!(pool.allocated() <= 16);
}

/// Repeated simultaneous batches must be bit-identical run over run.
#[test]
fn simultaneous_batches_are_deterministic() {
    let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::PolyLog, 10, 12);
    spec.seed = 77;
    let el = spec.generate();
    let g = CsrGraph::from_edge_list(&el);
    let ch = build_parallel(&el);
    let solver = ThorupSolver::new(&g, &ch);
    let batch = BatchSolver::new(&solver);
    let sources: Vec<VertexId> = (0..12).map(|i| i * 53 % g.n() as u32).collect();
    let first = batch.solve_batch(&sources);
    for round in 0..5 {
        let again = mmt_sssp::platform::with_pool(6, || batch.solve_batch(&sources));
        assert_eq!(first, again, "round {round}");
    }
}

/// The hub-table pipeline at a size where row count × n is nontrivial.
#[test]
fn hub_table_stress() {
    let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 10, 6);
    spec.seed = 9;
    let el = spec.generate();
    let g = CsrGraph::from_edge_list(&el);
    let ch = build_parallel(&el);
    let solver = ThorupSolver::new(&g, &ch);
    let hubs: Vec<VertexId> = (0..24).map(|i| i * 41 % g.n() as u32).collect();
    let table = HubDistances::precompute(&solver, &hubs);
    // spot-check 3 rows against the oracle
    for &i in &[0usize, 11, 23] {
        assert_eq!(
            (0..g.n() as u32)
                .map(|v| table.from_hub(i, v))
                .collect::<Vec<_>>(),
            dijkstra(&g, hubs[i])
        );
    }
    // hub-to-hub table symmetry on an undirected graph
    let hh = table.hub_table();
    for (i, row) in hh.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            assert_eq!(v, hh[j][i], "({i},{j})");
        }
    }
}

/// Serialize a hierarchy, reload it, and serve queries from the loaded
/// copy — the persistence workflow end to end.
#[test]
fn persisted_hierarchy_round_trip_serves_queries() {
    let mut spec = WorkloadSpec::new(GraphClass::Rmat, WeightDist::PolyLog, 9, 9);
    spec.seed = 21;
    let el = spec.generate();
    let g = CsrGraph::from_edge_list(&el);
    let ch = build_parallel(&el);
    let mut buf = Vec::new();
    mmt_sssp::ch::io::write_ch(&mut buf, &ch).unwrap();
    let loaded = mmt_sssp::ch::io::read_ch(&buf[..]).unwrap();
    assert_eq!(loaded, ch);
    let s = 17;
    assert_eq!(ThorupSolver::new(&g, &loaded).solve(s), dijkstra(&g, s));
}
