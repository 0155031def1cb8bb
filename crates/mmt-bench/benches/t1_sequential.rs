//! Table 1 — sequential Thorup vs the DIMACS reference solver (Goldberg
//! multilevel buckets), plus the CH preprocessing cost, on Random-UWD at
//! two sizes. Paper shape: the reference solver wins by ~2–4×, and CH
//! construction dominates Thorup's preprocessing.

use criterion::{criterion_group, criterion_main, Criterion};
use mmt_baselines::{dijkstra, goldberg_sssp};
use mmt_bench::{scale_from_env, Workload};
use mmt_ch::{build_serial, ChMode};
use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
use mmt_thorup::{ThorupConfig, ThorupInstance, ThorupSolver};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let scale = scale_from_env(12);
    let mut group = c.benchmark_group("table1_sequential");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    for log_n in [scale, scale + 1] {
        let spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, log_n, log_n);
        let w = Workload::generate(spec);
        let name = spec.name();
        group.bench_function(format!("{name}/ch_preprocessing"), |b| {
            b.iter(|| black_box(build_serial(&w.edges, ChMode::Collapsed)))
        });
        let ch = build_serial(&w.edges, ChMode::Collapsed);
        // Child visits in turn: the solve is its instance's only writer.
        let solver = ThorupSolver::new(&w.graph, &ch).with_config(ThorupConfig::serial());
        let inst = ThorupInstance::new(&ch);
        let src = w.source();
        group.bench_function(format!("{name}/thorup_serial"), |b| {
            b.iter(|| {
                inst.reset(&ch);
                solver.solve_into(&inst, src);
            })
        });
        group.bench_function(format!("{name}/dimacs_reference"), |b| {
            b.iter(|| black_box(goldberg_sssp(&w.graph, src)))
        });
        group.bench_function(format!("{name}/dijkstra_binary_heap"), |b| {
            b.iter(|| black_box(dijkstra(&w.graph, src)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
