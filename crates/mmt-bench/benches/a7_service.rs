//! Ablation 7 — query-service throughput: the resident worker-pool service
//! vs calling the batch engine directly, for bursts of mixed queries.

use criterion::{criterion_group, criterion_main, Criterion};
use mmt_bench::{scale_from_env, Workload};
use mmt_ch::build_parallel;
use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
use mmt_thorup::{BatchSolver, GraphRegistry, QueryRequest, QueryService, ThorupSolver};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let scale = scale_from_env(12);
    let mut group = c.benchmark_group("a7_service");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(2000));
    let spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, scale, 8);
    let w = Workload::generate(spec);
    let graph = Arc::new(w.graph);
    let ch = Arc::new(build_parallel(&w.edges));
    let sources: Vec<u32> = {
        // regenerate sources without the moved Workload
        (0..16u32)
            .map(|i| (i * 2654435761) % graph.n() as u32)
            .collect()
    };
    let name = spec.name();

    let mut registry = GraphRegistry::new();
    registry
        .register(name.as_str(), &graph, Arc::clone(&ch))
        .expect("matching graph and hierarchy");
    let service = QueryService::builder()
        .workers(4)
        .build_registry(registry)
        .expect("registry graphs are servable");
    group.bench_function(format!("{name}/service_16_queries"), |b| {
        b.iter(|| {
            let handles: Vec<_> = sources
                .iter()
                .map(|&s| service.submit(s).unwrap())
                .collect();
            for h in handles {
                black_box(h.wait().unwrap());
            }
        })
    });

    let solver = ThorupSolver::new(&graph, &ch);
    let batch = BatchSolver::new(&solver);
    group.bench_function(format!("{name}/batch_16_queries"), |b| {
        b.iter(|| black_box(batch.solve_batch(&sources)))
    });

    group.bench_function(format!("{name}/service_targeted_burst"), |b| {
        b.iter(|| {
            let handles: Vec<_> = sources
                .iter()
                .map(|&s| {
                    service
                        .submit_p2p(QueryRequest::new(s).target((s + 1) % graph.n() as u32))
                        .unwrap()
                })
                .collect();
            for h in handles {
                black_box(h.wait().unwrap());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
