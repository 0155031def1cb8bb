//! Figure 5 — k simultaneous Thorup queries sharing one CH vs k
//! *sequential* (internally parallel) Δ-stepping runs vs k sequential
//! Thorup runs, at two Random-UWD sizes. Paper shape: past a modest k the
//! shared-CH batch wins.

use criterion::{criterion_group, criterion_main, Criterion};
use mmt_baselines::{delta_stepping, DeltaConfig};
use mmt_bench::{scale_from_env, Workload};
use mmt_ch::build_parallel;
use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
use mmt_thorup::{BatchSolver, ThorupSolver};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let scale = scale_from_env(12);
    let mut group = c.benchmark_group("fig5_simultaneous");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(2000));
    for log_n in [scale.saturating_sub(2), scale + 1] {
        let spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, log_n, log_n);
        let w = Workload::generate(spec);
        let ch = build_parallel(&w.edges);
        let solver = ThorupSolver::new(&w.graph, &ch);
        let batch = BatchSolver::new(&solver);
        let cfg = DeltaConfig::auto(&w.graph);
        let name = spec.name();
        for k in [1usize, 4, 16] {
            let sources = w.sources(k);
            group.bench_function(format!("{name}/k={k}/simul_thorup"), |b| {
                b.iter(|| black_box(batch.solve_batch(&sources)))
            });
            group.bench_function(format!("{name}/k={k}/seq_thorup"), |b| {
                b.iter(|| {
                    for &s in &sources {
                        black_box(solver.solve(s));
                    }
                })
            });
            group.bench_function(format!("{name}/k={k}/seq_delta"), |b| {
                b.iter(|| {
                    for &s in &sources {
                        black_box(delta_stepping(&w.graph, s, cfg));
                    }
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
