//! The locality-layout grid behind `bench layout`.
//!
//! The MTA-2 the paper targets has a flat, uniform-latency memory system —
//! vertex order is performance-irrelevant there. On cache-based commodity
//! hardware it is anything but, so this grid measures the same fixed-seed
//! workloads as `bench hotpath` under every vertex ordering in
//! [`LayoutKind`]:
//!
//! * `delta-u64` — the pre-split Δ-stepping hot path on the natural,
//!   degree-sorted, BFS, and CH-DFS relabeled graphs;
//! * `rho-u64` — ρ-stepping on every layout;
//! * `thorup` — parallel Thorup on the natural and CH-DFS layouts (the
//!   ordering that makes its components index-contiguous).
//!
//! Every permuted measurement is end-to-end honest: the source is mapped
//! into the layout, and the distances are scattered back to original
//! vertex ids inside the timed region — the same O(n) facade cost the
//! query service pays. Counters come from the shared
//! [`CountersSnapshot`] story, so `arcs_scanned` is comparable across
//! orderings (a permutation changes *where* arc reads land, never how
//! many there are).
//!
//! The workloads reuse the hotpath families (Rand/RMAT × UWD/PWD,
//! seed 0x2007) with the weight exponent capped at 2^10, the shape every
//! recorded version of this artifact measured, so its rows stay
//! comparable with that history.

use crate::artifact::{comma, per_sec, Header, RunShape};
use crate::hotpath::counters_json;
use crate::json;
use mmt_baselines::{
    adaptive_delta, default_rho, delta_stepping_presplit, rho_stepping_presplit, StepScratch,
};
use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
use mmt_graph::types::{Dist, VertexId, Weight};
use mmt_graph::{CsrGraph, SplitCsr, VertexPermutation};
use mmt_platform::{CountersSnapshot, EventCounters};
use mmt_thorup::{GraphLayout, InstancePool, LayoutKind, ThorupSolver};
use std::sync::Arc;
use std::time::Instant;

/// The checked-in schema `BENCH_layout.json` must validate against.
pub const SCHEMA_TEXT: &str = include_str!("../schema/BENCH_layout.schema.json");

/// Format version stamped into the artifact. Version 2 added the
/// `threads` and `host_logical_cores` header fields and the
/// `delta-u64-ra` (read-ahead) sample rows. Version 3 added the
/// `pin_policy` / `numa_nodes` topology header and the `rho-u64`,
/// `rho-part` and `thorup-u32` sample rows. Version 4 retired the
/// `delta-u64-ra` rows (every stepping policy now relaxes with read-ahead)
/// and the `rho-part` rows with the owned-partition kernel. Version 5
/// retired the `thorup-u32` rows with the `u32`-cell Thorup instance.
/// Version 6 dropped the `pin_policy` and `numa_nodes` header keys with
/// worker pinning. Version 7 retired the `delta-u32` rows and the
/// workload's `compact_ok` flag with the `u32` distance cell. `--check`
/// accepts only this version, so an artifact recorded by an older format
/// fails it and must be re-recorded.
pub const FORMAT_VERSION: u64 = 7;

/// The default measurement shape: `MMT_SCALE` (default 16) and at most
/// four of `MMT_RUNS`. Locality effects only show once the working set
/// outgrows the cache, so the default scale is larger than hotpath's.
pub fn full_shape() -> RunShape {
    RunShape::full(16, 4)
}

/// One `(engine, layout)` measurement on one workload.
#[derive(Debug, Clone)]
pub struct LayoutSample {
    /// Kernel under test: `delta-u64`, `rho-u64` or `thorup`.
    pub engine: &'static str,
    /// Ordering: `natural`, `degree`, `bfs`, or `chdfs`.
    pub layout: &'static str,
    /// Queries answered inside `wall_secs`.
    pub queries: usize,
    /// Total wall time for all queries, including the id-mapping facade.
    pub wall_secs: f64,
    /// One-off cost of building the permutation and permuted structures
    /// (0 for the natural layout).
    pub permute_secs: f64,
    /// The shared counters snapshot (relax, buckets, arcs scanned, ...).
    pub counters: CountersSnapshot,
}

impl LayoutSample {
    /// Relaxations per second of wall time (0 when nothing was measured).
    pub fn relaxations_per_sec(&self) -> f64 {
        per_sec(self.counters.relaxations, self.wall_secs)
    }
}

/// One workload's measurements across the layout grid.
#[derive(Debug, Clone)]
pub struct LayoutWorkload {
    /// Workload name (`Rand-UWD-2^16-2^10`, ...).
    pub name: String,
    /// Vertices.
    pub n: usize,
    /// Undirected edges.
    pub m: usize,
    /// The adaptive Δ shared by every Δ-stepping sample.
    pub delta: u64,
    /// Per-`(engine, layout)` measurements.
    pub samples: Vec<LayoutSample>,
}

/// The whole artifact.
#[derive(Debug, Clone)]
pub struct LayoutReport {
    /// Run shape and host.
    pub header: Header,
    /// Per-workload measurements.
    pub workloads: Vec<LayoutWorkload>,
}

/// The four fixed-seed layout workloads at `scale`: the hotpath
/// families with `log_c` capped at 10, as every recorded version of this
/// artifact ran them.
pub fn layout_specs(scale: u32) -> Vec<WorkloadSpec> {
    use GraphClass::{Random, Rmat};
    use WeightDist::{PolyLog, Uniform};
    [
        (Random, Uniform),
        (Random, PolyLog),
        (Rmat, Uniform),
        (Rmat, PolyLog),
    ]
    .into_iter()
    .map(|(class, dist)| WorkloadSpec {
        class,
        dist,
        log_n: scale,
        log_c: scale.min(10),
        seed: 0x2007,
    })
    .collect()
}

/// Runs the whole layout grid.
pub fn run(opts: RunShape) -> LayoutReport {
    let workloads = layout_specs(opts.scale)
        .into_iter()
        .map(|spec| run_workload(spec, opts))
        .collect();
    LayoutReport {
        header: Header::capture(opts, None),
        workloads,
    }
}

fn run_workload(spec: WorkloadSpec, opts: RunShape) -> LayoutWorkload {
    let w = crate::Workload::generate(spec);
    let sources = w.sources(opts.sources);
    let graph = Arc::new(w.graph);
    let ch = Arc::new(mmt_ch::build_parallel(&w.edges));
    let delta = adaptive_delta(&graph);
    let delta_w = delta.min(u32::MAX as u64) as Weight;

    let mut samples = Vec::new();
    for kind in LayoutKind::all() {
        // One permutation per ordering, shared by every kernel on it. Its
        // construction (plus graph/hierarchy rebuild) is the amortised
        // one-off cost the artifact reports as permute_secs.
        let t0 = Instant::now();
        let perm = kind.permutation(&graph, &ch);
        let (pg, permute_secs) = match &perm {
            None => (Arc::clone(&graph), 0.0),
            Some(p) => (Arc::new(graph.permuted(p)), t0.elapsed().as_secs_f64()),
        };

        let split = SplitCsr::new(&pg, delta_w);
        samples.push(measure_delta(
            &split,
            perm.as_ref(),
            kind,
            &sources,
            opts.iterations,
            permute_secs,
        ));
        samples.push(measure_rho(
            &split,
            perm.as_ref(),
            kind,
            &sources,
            opts.iterations,
            permute_secs,
        ));
        if matches!(kind, LayoutKind::Natural | LayoutKind::ChDfs) {
            samples.push(measure_thorup(kind, &graph, &ch, &sources, opts.iterations));
        }
    }

    LayoutWorkload {
        name: spec.name(),
        n: graph.n(),
        m: graph.m(),
        delta,
        samples,
    }
}

fn map_source(perm: Option<&VertexPermutation>, s: VertexId) -> VertexId {
    perm.map_or(s, |p| p.to_new(s))
}

/// Δ-stepping on one layout (`delta-u64`).
fn measure_delta(
    split: &SplitCsr,
    perm: Option<&VertexPermutation>,
    kind: LayoutKind,
    sources: &[VertexId],
    iterations: usize,
    permute_secs: f64,
) -> LayoutSample {
    let mut scratch = StepScratch::new(split);
    let mut internal: Vec<Dist> = Vec::with_capacity(split.n());
    let mut out: Vec<Dist> = Vec::with_capacity(split.n());
    delta_stepping_presplit(split, map_source(perm, sources[0]), &mut scratch, None);
    let counters = EventCounters::new();
    let t0 = Instant::now();
    for _ in 0..iterations {
        for &s in sources {
            delta_stepping_presplit(split, map_source(perm, s), &mut scratch, Some(&counters));
            // Materialise the answer in original vertex ids: the facade
            // cost belongs inside the measurement.
            match perm {
                None => scratch.copy_distances_into(&mut out),
                Some(p) => {
                    scratch.copy_distances_into(&mut internal);
                    p.scatter_to_original(&internal, &mut out);
                }
            }
            std::hint::black_box(out[s as usize]);
        }
    }
    LayoutSample {
        engine: "delta-u64",
        layout: kind.short_name(),
        queries: sources.len() * iterations,
        wall_secs: t0.elapsed().as_secs_f64(),
        permute_secs,
        counters: counters.snapshot(),
    }
}

/// ρ-stepping on one layout (`rho-u64`).
fn measure_rho(
    split: &SplitCsr,
    perm: Option<&VertexPermutation>,
    kind: LayoutKind,
    sources: &[VertexId],
    iterations: usize,
    permute_secs: f64,
) -> LayoutSample {
    let rho = default_rho(split.n());
    let mut scratch = StepScratch::new(split);
    let mut internal: Vec<Dist> = Vec::with_capacity(split.n());
    let mut out: Vec<Dist> = Vec::with_capacity(split.n());
    rho_stepping_presplit(split, map_source(perm, sources[0]), rho, &mut scratch, None); // warm-up
    let counters = EventCounters::new();
    let t0 = Instant::now();
    for _ in 0..iterations {
        for &s in sources {
            let s_in = map_source(perm, s);
            rho_stepping_presplit(split, s_in, rho, &mut scratch, Some(&counters));
            match perm {
                None => scratch.copy_distances_into(&mut out),
                Some(p) => {
                    scratch.copy_distances_into(&mut internal);
                    p.scatter_to_original(&internal, &mut out);
                }
            }
            std::hint::black_box(out[s as usize]);
        }
    }
    LayoutSample {
        engine: "rho-u64",
        layout: kind.short_name(),
        queries: sources.len() * iterations,
        wall_secs: t0.elapsed().as_secs_f64(),
        permute_secs,
        counters: counters.snapshot(),
    }
}

fn measure_thorup(
    kind: LayoutKind,
    graph: &Arc<CsrGraph>,
    ch: &Arc<mmt_ch::ComponentHierarchy>,
    sources: &[VertexId],
    iterations: usize,
) -> LayoutSample {
    let t0 = Instant::now();
    let layout = GraphLayout::build(kind, Arc::clone(graph), Arc::clone(ch))
        .expect("workload graph and hierarchy sizes agree");
    let permute_secs = if matches!(kind, LayoutKind::Natural) {
        0.0
    } else {
        t0.elapsed().as_secs_f64()
    };
    let counters = EventCounters::new();
    let solver = ThorupSolver::new(layout.graph(), layout.hierarchy()).with_counters(&counters);
    let pool = InstancePool::new(layout.hierarchy());
    let mut internal: Vec<Dist> = Vec::with_capacity(graph.n());
    let mut out: Vec<Dist> = Vec::with_capacity(graph.n());
    {
        let inst = pool.acquire();
        solver.solve_into(&inst, layout.to_internal(sources[0])); // warm-up
    }
    counters.reset();
    let t0 = Instant::now();
    for _ in 0..iterations {
        for &s in sources {
            let inst = pool.acquire();
            solver.solve_into(&inst, layout.to_internal(s));
            inst.copy_distances_into(&mut internal);
            layout.scatter_into(&internal, &mut out);
            std::hint::black_box(out[s as usize]);
        }
    }
    LayoutSample {
        engine: "thorup",
        layout: kind.short_name(),
        queries: sources.len() * iterations,
        wall_secs: t0.elapsed().as_secs_f64(),
        permute_secs,
        counters: counters.snapshot(),
    }
}

impl LayoutReport {
    /// Renders the artifact as pretty-stable JSON (two-space indent).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.header.write_json(FORMAT_VERSION, &mut out);
        out.push_str("  \"workloads\": [\n");
        for (wi, w) in self.workloads.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", json::escape(&w.name)));
            out.push_str(&format!("      \"n\": {},\n", w.n));
            out.push_str(&format!("      \"m\": {},\n", w.m));
            out.push_str(&format!("      \"delta\": {},\n", w.delta));
            out.push_str("      \"samples\": [\n");
            for (si, s) in w.samples.iter().enumerate() {
                out.push_str("        {");
                out.push_str(&format!("\"engine\": \"{}\", ", json::escape(s.engine)));
                out.push_str(&format!("\"layout\": \"{}\", ", json::escape(s.layout)));
                out.push_str(&format!("\"queries\": {}, ", s.queries));
                out.push_str(&format!("\"wall_secs\": {}, ", s.wall_secs));
                out.push_str(&format!("\"permute_secs\": {}, ", s.permute_secs));
                out.push_str(&format!(
                    "\"relaxations_per_sec\": {}, ",
                    s.relaxations_per_sec()
                ));
                out.push_str(&format!(
                    "\"counters\": {}}}{}\n",
                    counters_json(&s.counters),
                    comma(si, w.samples.len())
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!("    }}{}\n", comma(wi, self.workloads.len())));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::check_artifact;

    #[test]
    fn specs_cap_the_weight_exponent_for_narrowing() {
        let specs = layout_specs(16);
        assert_eq!(specs.len(), 4);
        assert!(specs.iter().all(|s| s.seed == 0x2007 && s.log_c == 10));
        assert_eq!(layout_specs(8)[0].log_c, 8);
    }

    #[test]
    fn smoke_run_covers_the_grid_and_validates() {
        let report = run(RunShape {
            scale: 6,
            iterations: 1,
            sources: 2,
            smoke: true,
        });
        assert_eq!(report.workloads.len(), 4);
        for w in &report.workloads {
            // 4 layouts x (delta-u64 + rho-u64) + thorup on natural + chdfs.
            assert_eq!(w.samples.len(), 10);
            for s in &w.samples {
                assert!(s.wall_secs > 0.0, "{} {}", s.engine, s.layout);
                assert!(s.counters.relaxations > 0);
                assert!(s.counters.arcs_scanned > 0);
            }
            // Arc scans are layout-invariant for Δ-stepping: the
            // permutation moves reads around, it cannot change their
            // number. (rho rows are excluded: ρ re-scans a frontier vertex
            // per extraction, and extraction grouping is layout-sensitive.)
            let arcs: Vec<u64> = w
                .samples
                .iter()
                .filter(|s| s.engine == "delta-u64")
                .map(|s| s.counters.arcs_scanned)
                .collect();
            assert!(arcs.windows(2).all(|p| p[0] == p[1]), "{arcs:?}");
            let natural = w
                .samples
                .iter()
                .find(|s| s.engine == "delta-u64" && s.layout == "natural")
                .unwrap();
            assert_eq!(natural.permute_secs, 0.0);
            // ρ runs on every layout, Thorup on two.
            for (eng, want) in [("rho-u64", 4), ("thorup", 2)] {
                let rows = w.samples.iter().filter(|s| s.engine == eng).count();
                assert_eq!(rows, want, "{eng}");
            }
        }
        let text = report.to_json();
        check_artifact(SCHEMA_TEXT, FORMAT_VERSION, &text)
            .expect("artifact must satisfy the schema");
    }

    #[test]
    fn malformed_layout_artifacts_fail_the_check() {
        assert!(check_artifact(SCHEMA_TEXT, FORMAT_VERSION, "{\"version\": 1}").is_err());
        assert!(check_artifact(SCHEMA_TEXT, FORMAT_VERSION, "not json").is_err());
    }
}
