//! The reproducible hot-path baseline behind `bench hotpath`.
//!
//! Four fixed-seed workloads (Rand/RMAT × UWD/PWD) are run through the
//! SSSP hot paths this repo optimises — Δ-stepping with its split and
//! scratch built per query, the pre-split allocation-free Δ-stepping,
//! parallel Thorup over a shared CH, and the pooled batch engine — and the
//! result is one machine-readable `BENCH_hotpath.json` (wall time,
//! relaxations/sec, peak RSS, and — with `--features count-alloc` —
//! allocations per query) that validates against the checked-in schema
//! (`schema/BENCH_hotpath.schema.json`). CI runs the `--smoke` shape of
//! this on every push, so the artifact format can never silently rot.

use crate::artifact::{comma, per_sec, Header, RunShape};
use crate::json::{self, Json};
use mmt_baselines::{
    adaptive_delta, default_delta, delta_stepping_presplit, DeltaConfig, DeltaScratch,
};
use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
use mmt_graph::types::Weight;
use mmt_graph::{CsrArena, SplitCsr};
use mmt_platform::{CountersSnapshot, EventCounters};
use mmt_thorup::{
    BatchSolver, GraphRegistry, InstancePool, QueryRequest, QueryServiceBuilder, ShutdownMode,
    ThorupSolver,
};
use std::sync::Arc;
use std::time::Instant;

/// The checked-in schema `BENCH_hotpath.json` must validate against.
pub const SCHEMA_TEXT: &str = include_str!("../schema/BENCH_hotpath.schema.json");

/// Format version stamped into the artifact. Version 2 added the full
/// per-engine `counters` object (the [`CountersSnapshot`] fields, including
/// `arcs_scanned`), shared with `bench_layout`. Version 3 added the
/// `registry` grid: shared-arena resident bytes and serving throughput
/// with 1 vs 4 registered graphs, plus the duplicated-`SplitCsr` vs
/// offset-view arc-byte table per Δ count. Version 4 added the `threads`
/// and `host_logical_cores` header fields so 1-core-container numbers are
/// self-describing. Version 5 added the `pin_policy` and `numa_nodes`
/// topology header shared by every artifact. Version 6 retired the
/// `delta-reference` row with the seed kernel it measured; the
/// `delta-stepping` row now builds its split and scratch per query.
/// Version 7 dropped the `pin_policy` and `numa_nodes` header keys with
/// worker pinning; version-6 artifacts still validate, since the checker
/// ignores extra keys.
pub const FORMAT_VERSION: u64 = 7;

/// The default measurement shape: `MMT_SCALE` (default 12) and every one
/// of `MMT_RUNS`.
pub fn full_shape() -> RunShape {
    RunShape::full(12, usize::MAX)
}

/// One engine's measurement on one workload.
#[derive(Debug, Clone)]
pub struct EngineSample {
    /// Engine name (matches the mmt-verify registry where applicable).
    pub name: &'static str,
    /// Queries answered inside `wall_secs`.
    pub queries: usize,
    /// Total wall time for all queries.
    pub wall_secs: f64,
    /// Edge relaxations performed (engine's own accounting; equals
    /// `counters.relaxations`).
    pub relaxations: u64,
    /// The full event-counter snapshot for the run (relaxations, bucket
    /// expansions, arcs scanned, ...): one counters story for every bench
    /// binary.
    pub counters: CountersSnapshot,
    /// Heap allocations per query (0 unless built with `count-alloc`).
    pub allocs_per_query: f64,
    /// Heap bytes allocated per query (0 unless built with `count-alloc`).
    pub alloc_bytes_per_query: f64,
}

impl EngineSample {
    /// Relaxations per second of wall time (0 when nothing was measured).
    pub fn relaxations_per_sec(&self) -> f64 {
        per_sec(self.relaxations, self.wall_secs)
    }
}

/// One workload's measurements.
#[derive(Debug, Clone)]
pub struct WorkloadSamples {
    /// Workload name (`Rand-UWD-2^8-2^8`, ...).
    pub name: String,
    /// Vertices.
    pub n: usize,
    /// Undirected edges.
    pub m: usize,
    /// The adaptive Δ chosen for the pre-split engines.
    pub adaptive_delta: u64,
    /// The classic `C / avg_degree` Δ, for comparison.
    pub default_delta: u64,
    /// Wall time to build the shared Component Hierarchy.
    pub ch_build_secs: f64,
    /// Per-engine measurements.
    pub engines: Vec<EngineSample>,
}

/// Arc-array bytes at one Δ count: what `count` duplicating [`SplitCsr`]
/// builds cost versus `count` offset views over one shared [`CsrArena`].
/// Both are measured from live structures, not computed.
#[derive(Debug, Clone)]
pub struct SplitBytesSample {
    /// Number of distinct Δ values split for.
    pub delta_count: usize,
    /// Heap bytes when every Δ duplicates the adjacency ([`SplitCsr`]).
    pub duplicated_bytes: usize,
    /// Heap bytes with one arena plus a `u32` light-prefix length per
    /// vertex per Δ ([`CsrArena::split`]).
    pub offset_view_bytes: usize,
}

/// One registry serving measurement: `graphs` tenants registered, queries
/// routed round-robin across them through the sharded `QueryService`.
#[derive(Debug, Clone)]
pub struct RegistryGridSample {
    /// Graphs registered (each with distinct content).
    pub graphs: usize,
    /// Registry-accounted resident bytes after registration (arena arc
    /// arrays + hierarchies, each stored exactly once).
    pub resident_bytes: usize,
    /// Queries answered inside `wall_secs`.
    pub queries: usize,
    /// Wall time for the whole query sweep.
    pub wall_secs: f64,
    /// Edge relaxations those queries perform (counted once per
    /// (graph, source) on the same solver configuration, deterministic).
    pub relaxations: u64,
}

impl RegistryGridSample {
    /// Relaxations per second of serving wall time.
    pub fn relaxations_per_sec(&self) -> f64 {
        per_sec(self.relaxations, self.wall_secs)
    }
}

/// The registry grid: the multi-tenant serving and shared-arena memory
/// story for one fixed workload.
#[derive(Debug, Clone)]
pub struct RegistrySamples {
    /// The workload the grid runs on (the first hot-path spec).
    pub workload: String,
    /// Shared arc-payload bytes of one arena over that workload.
    pub arena_arc_bytes: usize,
    /// Duplicated vs offset-view bytes at 1, 2, and 4 Δ values.
    pub splits: Vec<SplitBytesSample>,
    /// Serving throughput and resident bytes with 1 vs 4 tenants.
    pub grid: Vec<RegistryGridSample>,
}

/// The whole artifact.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Run shape and host, with `alloc_counting` set.
    pub header: Header,
    /// Per-workload measurements.
    pub workloads: Vec<WorkloadSamples>,
    /// The multi-graph registry grid (resident bytes + relax/s, 1 vs 4
    /// graphs) and the per-Δ-count arc-byte table.
    pub registry: RegistrySamples,
}

/// True when the crate was built with the counting allocator.
pub fn alloc_counting_enabled() -> bool {
    cfg!(feature = "count-alloc")
}

fn measure_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    #[cfg(feature = "count-alloc")]
    {
        crate::alloc_count::measure(f)
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        (f(), 0, 0)
    }
}

/// The four fixed-seed hot-path workloads at `scale`: Rand/RMAT × UWD/PWD.
pub fn hotpath_specs(scale: u32) -> Vec<WorkloadSpec> {
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
        log_c: scale,
        // Fixed seed: the artifact is comparable run to run and machine to
        // machine (0x2007 — the paper's year).
        seed: 0x2007,
    })
    .collect()
}

/// Runs the whole measurement grid.
pub fn run(opts: RunShape) -> HotpathReport {
    let workloads = hotpath_specs(opts.scale)
        .into_iter()
        .map(|spec| run_workload(spec, opts))
        .collect();
    let registry = run_registry(opts);
    HotpathReport {
        header: Header::capture(opts, Some(alloc_counting_enabled())),
        workloads,
        registry,
    }
}

/// Measures the registry grid on the first hot-path workload: the
/// duplicated-vs-offset-view arc-byte table at 1/2/4 Δ values, then
/// serving throughput and registry-resident bytes with 1 vs 4 registered
/// graphs (distinct content, same shape) behind the sharded
/// `QueryService`.
fn run_registry(opts: RunShape) -> RegistrySamples {
    let spec = hotpath_specs(opts.scale).remove(0);
    let w = crate::Workload::generate(spec);
    let g = &w.graph;

    let arena = CsrArena::new(g);
    let base_delta = adaptive_delta(g).min(u32::MAX as u64).max(1) as Weight;
    let splits = [1usize, 2, 4]
        .iter()
        .map(|&count| {
            // Distinct Δ values: base, 2·base, ... — the byte cost of a
            // duplicating split does not depend on Δ, but building real
            // structures keeps this a measurement rather than arithmetic.
            let deltas: Vec<Weight> = (0..count)
                .map(|k| base_delta.saturating_mul(k as Weight + 1))
                .collect();
            let duplicated_bytes = deltas
                .iter()
                .map(|&d| SplitCsr::new(g, d).heap_bytes())
                .sum();
            let offset_view_bytes = arena.arc_bytes()
                + deltas
                    .iter()
                    .map(|&d| arena.split(d).view_bytes())
                    .sum::<usize>();
            SplitBytesSample {
                delta_count: count,
                duplicated_bytes,
                offset_view_bytes,
            }
        })
        .collect();

    let mut grid = Vec::new();
    for &count in &[1usize, 4] {
        let mut registry = GraphRegistry::new();
        let mut tenants = Vec::new();
        for i in 0..count {
            let mut spec_i = spec;
            spec_i.seed = spec.seed + 1 + i as u64;
            let wi = crate::Workload::generate(spec_i);
            let ch = Arc::new(mmt_ch::build_parallel(&wi.edges));
            let id = registry
                .register(format!("tenant-{i}"), &wi.graph, Arc::clone(&ch))
                .expect("registering a generated workload");
            tenants.push((id, wi, ch));
        }
        let resident_bytes = registry.resident_bytes();

        // Relaxation counts are deterministic per (graph, source) for a
        // fixed solver configuration; count them once outside the
        // service so the timed sweep below stays uninstrumented.
        let mut relaxations = 0u64;
        let mut schedule = Vec::new();
        for (id, wi, ch) in &tenants {
            let counters = EventCounters::new();
            let solver = ThorupSolver::new(&wi.graph, ch).with_counters(&counters);
            let pool = InstancePool::new(ch);
            let sources = wi.sources(opts.sources);
            for &s in &sources {
                let inst = pool.acquire();
                solver.solve_into(&inst, s);
            }
            relaxations += counters.snapshot().relaxations * opts.iterations as u64;
            schedule.push((*id, sources));
        }

        let service = QueryServiceBuilder::default()
            .workers(2)
            .build_registry(registry)
            .expect("service over a fresh registry");
        // Warm-up: one query per tenant so every shard's pools are hot.
        for (id, sources) in &schedule {
            service
                .submit(QueryRequest::on(*id, sources[0]))
                .expect("warm-up submit")
                .wait()
                .expect("warm-up answer");
        }
        let queries = count * opts.sources * opts.iterations;
        let t0 = Instant::now();
        for _ in 0..opts.iterations {
            let handles: Vec<_> = schedule
                .iter()
                .flat_map(|(id, sources)| {
                    sources.iter().map(|&s| {
                        service
                            .submit(QueryRequest::on(*id, s))
                            .expect("grid submit")
                    })
                })
                .collect();
            for h in handles {
                std::hint::black_box(h.wait().expect("grid answer"));
            }
        }
        let wall_secs = t0.elapsed().as_secs_f64();
        service.shutdown(ShutdownMode::Drain);

        grid.push(RegistryGridSample {
            graphs: count,
            resident_bytes,
            queries,
            wall_secs,
            relaxations,
        });
    }

    RegistrySamples {
        workload: spec.name(),
        arena_arc_bytes: arena.arc_bytes(),
        splits,
        grid,
    }
}

fn run_workload(spec: WorkloadSpec, opts: RunShape) -> WorkloadSamples {
    let w = crate::Workload::generate(spec);
    let g = &w.graph;
    let sources = w.sources(opts.sources);
    let queries = sources.len() * opts.iterations;

    let ch_start = Instant::now();
    let ch = mmt_ch::build_parallel(&w.edges);
    let ch_build_secs = ch_start.elapsed().as_secs_f64();

    let mut engines = Vec::new();

    // The one-shot path: auto-Δ, with the split and scratch built per
    // query, as `delta_stepping` does.
    {
        let counters = EventCounters::new();
        let delta = DeltaConfig::auto(g).delta().min(u32::MAX as u64) as Weight;
        let t0 = Instant::now();
        let ((), allocs, bytes) = measure_allocs(|| {
            for _ in 0..opts.iterations {
                for &s in &sources {
                    let split = SplitCsr::new(g, delta);
                    let mut scratch = DeltaScratch::new(&split);
                    delta_stepping_presplit(&split, s, &mut scratch, Some(&counters));
                    std::hint::black_box(scratch.to_distances());
                }
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        engines.push(finish_sample(
            "delta-stepping",
            queries,
            wall,
            &counters,
            allocs,
            bytes,
        ));
    }

    // The allocation-free hot path: pre-split CSR + reusable scratch +
    // adaptive Δ, both built once and reused across every query.
    {
        let counters = EventCounters::new();
        let delta = adaptive_delta(g).min(u32::MAX as u64) as Weight;
        let split = SplitCsr::new(g, delta);
        let mut scratch = DeltaScratch::new(&split);
        // Warm-up query so the steady state is what gets measured.
        delta_stepping_presplit(&split, sources[0], &mut scratch, None);
        let t0 = Instant::now();
        let ((), allocs, bytes) = measure_allocs(|| {
            for _ in 0..opts.iterations {
                for &s in &sources {
                    delta_stepping_presplit(&split, s, &mut scratch, Some(&counters));
                    std::hint::black_box(scratch.distance(s));
                }
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        engines.push(finish_sample(
            "delta-presplit",
            queries,
            wall,
            &counters,
            allocs,
            bytes,
        ));
    }

    // Parallel Thorup over the shared CH, instance reused across queries.
    {
        let counters = EventCounters::new();
        let solver = ThorupSolver::new(g, &ch).with_counters(&counters);
        let pool = InstancePool::new(&ch);
        {
            let inst = pool.acquire();
            solver.solve_into(&inst, sources[0]); // warm-up
        }
        let t0 = Instant::now();
        let ((), allocs, bytes) = measure_allocs(|| {
            for _ in 0..opts.iterations {
                for &s in &sources {
                    let inst = pool.acquire();
                    solver.solve_into(&inst, s);
                    std::hint::black_box(inst.dist_of(s));
                }
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        engines.push(finish_sample(
            "thorup", queries, wall, &counters, allocs, bytes,
        ));
    }

    // Pooled batch engine: all sources simultaneously, pools warm.
    {
        let counters = EventCounters::new();
        let solver = ThorupSolver::new(g, &ch).with_counters(&counters);
        let batch = BatchSolver::new(&solver);
        drop(batch.solve_batch(&sources)); // warm-up
        let t0 = Instant::now();
        let ((), allocs, bytes) = measure_allocs(|| {
            for _ in 0..opts.iterations {
                let rows = batch.solve_batch(&sources);
                std::hint::black_box(rows.len());
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        engines.push(finish_sample(
            "thorup-batch",
            queries,
            wall,
            &counters,
            allocs,
            bytes,
        ));
    }

    WorkloadSamples {
        name: spec.name(),
        n: g.n(),
        m: g.m(),
        adaptive_delta: adaptive_delta(g),
        default_delta: default_delta(g),
        ch_build_secs,
        engines,
    }
}

fn finish_sample(
    name: &'static str,
    queries: usize,
    wall_secs: f64,
    counters: &EventCounters,
    allocs: u64,
    bytes: u64,
) -> EngineSample {
    let snap = counters.snapshot();
    EngineSample {
        name,
        queries,
        wall_secs,
        relaxations: snap.relaxations,
        counters: snap,
        allocs_per_query: allocs as f64 / queries.max(1) as f64,
        alloc_bytes_per_query: bytes as f64 / queries.max(1) as f64,
    }
}

/// Renders a [`CountersSnapshot`] as a JSON object — the shared counters
/// encoding of the hotpath and layout artifacts.
pub fn counters_json(c: &CountersSnapshot) -> String {
    format!(
        "{{\"relaxations\": {}, \"improvements\": {}, \"settled\": {}, \
         \"parallel_loop_setups\": {}, \"serial_loops\": {}, \
         \"mind_propagation_hops\": {}, \"bucket_expansions\": {}, \
         \"arcs_scanned\": {}}}",
        c.relaxations,
        c.improvements,
        c.settled,
        c.parallel_loop_setups,
        c.serial_loops,
        c.mind_propagation_hops,
        c.bucket_expansions,
        c.arcs_scanned
    )
}

impl HotpathReport {
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
            out.push_str(&format!(
                "      \"adaptive_delta\": {},\n",
                w.adaptive_delta
            ));
            out.push_str(&format!("      \"default_delta\": {},\n", w.default_delta));
            out.push_str(&format!("      \"ch_build_secs\": {},\n", w.ch_build_secs));
            out.push_str("      \"engines\": [\n");
            for (ei, e) in w.engines.iter().enumerate() {
                out.push_str("        {");
                out.push_str(&format!("\"name\": \"{}\", ", json::escape(e.name)));
                out.push_str(&format!("\"queries\": {}, ", e.queries));
                out.push_str(&format!("\"wall_secs\": {}, ", e.wall_secs));
                out.push_str(&format!("\"relaxations\": {}, ", e.relaxations));
                out.push_str(&format!(
                    "\"relaxations_per_sec\": {}, ",
                    e.relaxations_per_sec()
                ));
                out.push_str(&format!("\"counters\": {}, ", counters_json(&e.counters)));
                out.push_str(&format!("\"allocs_per_query\": {}, ", e.allocs_per_query));
                out.push_str(&format!(
                    "\"alloc_bytes_per_query\": {}}}{}\n",
                    e.alloc_bytes_per_query,
                    comma(ei, w.engines.len())
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!("    }}{}\n", comma(wi, self.workloads.len())));
        }
        out.push_str("  ],\n");
        let r = &self.registry;
        out.push_str("  \"registry\": {\n");
        out.push_str(&format!(
            "    \"workload\": \"{}\",\n",
            json::escape(&r.workload)
        ));
        out.push_str(&format!(
            "    \"arena_arc_bytes\": {},\n",
            r.arena_arc_bytes
        ));
        out.push_str("    \"splits\": [\n");
        for (si, s) in r.splits.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"delta_count\": {}, \"duplicated_bytes\": {}, \
                 \"offset_view_bytes\": {}}}{}\n",
                s.delta_count,
                s.duplicated_bytes,
                s.offset_view_bytes,
                comma(si, r.splits.len())
            ));
        }
        out.push_str("    ],\n");
        out.push_str("    \"grid\": [\n");
        for (gi, gs) in r.grid.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"graphs\": {}, \"resident_bytes\": {}, \"queries\": {}, \
                 \"wall_secs\": {}, \"relaxations\": {}, \
                 \"relaxations_per_sec\": {}}}{}\n",
                gs.graphs,
                gs.resident_bytes,
                gs.queries,
                gs.wall_secs,
                gs.relaxations,
                gs.relaxations_per_sec(),
                comma(gi, r.grid.len())
            ));
        }
        out.push_str("    ]\n");
        out.push_str("  }\n}\n");
        out
    }
}

/// One `(workload, engine)` throughput comparison from [`diff_artifacts`].
#[derive(Debug, Clone)]
pub struct DiffLine {
    /// Workload name shared by both artifacts.
    pub workload: String,
    /// Engine name shared by both artifacts.
    pub engine: String,
    /// Baseline relaxations/sec.
    pub baseline: f64,
    /// Current relaxations/sec.
    pub current: f64,
}

impl DiffLine {
    /// `current / baseline` (0 when the baseline is 0).
    pub fn ratio(&self) -> f64 {
        if self.baseline > 0.0 {
            self.current / self.baseline
        } else {
            0.0
        }
    }
}

fn relax_per_sec_index(value: &Json) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    let Some(workloads) = value.get("workloads").and_then(Json::as_arr) else {
        return out;
    };
    for w in workloads {
        let Some(wname) = w.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(engines) = w.get("engines").and_then(Json::as_arr) else {
            continue;
        };
        for e in engines {
            if let (Some(ename), Some(rps)) = (
                e.get("name").and_then(Json::as_str),
                e.get("relaxations_per_sec").and_then(Json::as_num),
            ) {
                out.push((wname.to_string(), ename.to_string(), rps));
            }
        }
    }
    // The registry grid participates in the same gate: each tenant count
    // is one (workload="registry", engine="graphs-N") pair. A version-2
    // baseline simply contributes no such pairs.
    if let Some(grid) = value
        .get("registry")
        .and_then(|r| r.get("grid"))
        .and_then(Json::as_arr)
    {
        for g in grid {
            if let (Some(graphs), Some(rps)) = (
                g.get("graphs").and_then(Json::as_num),
                g.get("relaxations_per_sec").and_then(Json::as_num),
            ) {
                out.push(("registry".to_string(), format!("graphs-{graphs}"), rps));
            }
        }
    }
    out
}

/// Compares two schema-valid artifacts' relaxations/sec for every
/// `(workload, engine)` pair present in both, failing when the current run
/// is more than `tolerance`× slower than the baseline. The wide tolerance
/// absorbs machine-to-machine noise while still catching a hot path that
/// fell off a cliff. Errs when the artifacts share no pairs at all — a
/// renamed grid must come with a regenerated baseline, not a silent pass.
pub fn diff_artifacts(
    baseline: &Json,
    current: &Json,
    tolerance: f64,
) -> Result<Vec<DiffLine>, String> {
    assert!(tolerance >= 1.0);
    let base = relax_per_sec_index(baseline);
    let cur = relax_per_sec_index(current);
    let mut lines = Vec::new();
    for (wname, ename, baseline_rps) in &base {
        let Some((_, _, current_rps)) = cur.iter().find(|(w, e, _)| w == wname && e == ename)
        else {
            continue;
        };
        lines.push(DiffLine {
            workload: wname.clone(),
            engine: ename.clone(),
            baseline: *baseline_rps,
            current: *current_rps,
        });
    }
    if lines.is_empty() {
        return Err("artifacts share no (workload, engine) pairs to compare".into());
    }
    if let Some(worst) = lines
        .iter()
        .filter(|l| l.baseline > 0.0 && l.current * tolerance < l.baseline)
        .min_by(|a, b| a.ratio().total_cmp(&b.ratio()))
    {
        return Err(format!(
            "relaxations/sec regression: {} / {} at {:.0} vs baseline {:.0} ({:.2}x, tolerance {}x)",
            worst.workload,
            worst.engine,
            worst.current,
            worst.baseline,
            worst.ratio(),
            tolerance
        ));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::check_artifact;

    #[test]
    fn specs_are_fixed_seed_and_cover_the_grid() {
        let specs = hotpath_specs(8);
        assert_eq!(specs.len(), 4);
        assert!(specs.iter().all(|s| s.seed == 0x2007));
        let names: Vec<String> = specs.iter().map(|s| s.name()).collect();
        assert_eq!(names[0], "Rand-UWD-2^8-2^8");
        assert_eq!(names[3], "RMAT-PWD-2^8-2^8");
        assert_eq!(specs, hotpath_specs(8), "deterministic");
    }

    #[test]
    fn smoke_run_emits_a_schema_valid_artifact() {
        let report = run(RunShape {
            scale: 6,
            iterations: 1,
            sources: 2,
            smoke: true,
        });
        assert_eq!(report.workloads.len(), 4);
        for w in &report.workloads {
            assert_eq!(w.engines.len(), 4);
            assert!(w.engines.iter().all(|e| e.wall_secs > 0.0));
            assert!(w.engines.iter().all(|e| e.relaxations > 0));
            assert!(
                w.engines.iter().all(|e| e.counters.arcs_scanned > 0),
                "every instrumented engine reports arc scans"
            );
            assert!(w
                .engines
                .iter()
                .all(|e| e.counters.relaxations == e.relaxations));
        }
        let reg = &report.registry;
        assert_eq!(reg.splits.len(), 3);
        assert_eq!(reg.grid.len(), 2);
        assert!(reg.arena_arc_bytes > 0);
        // Duplicating splits pay the adjacency once per Δ; offset views
        // pay it once total plus n·4 bytes per Δ.
        let one = &reg.splits[0];
        let four = &reg.splits[2];
        assert_eq!(four.delta_count, 4);
        assert!(four.duplicated_bytes >= 4 * one.duplicated_bytes);
        assert!(
            four.offset_view_bytes < 2 * reg.arena_arc_bytes,
            "4 offset views must stay well under two arena copies \
             ({} vs arena {})",
            four.offset_view_bytes,
            reg.arena_arc_bytes
        );
        // Four registered graphs hold each arc array exactly once: the
        // accounted bytes scale with tenant count, with no per-Δ
        // duplication on top.
        let single = &reg.grid[0];
        let multi = &reg.grid[1];
        assert_eq!((single.graphs, multi.graphs), (1, 4));
        assert!(multi.resident_bytes < 5 * single.resident_bytes);
        assert!(reg.grid.iter().all(|g| g.relaxations > 0));
        assert!(reg.grid.iter().all(|g| g.wall_secs > 0.0));

        let text = report.to_json();
        let value = check_artifact(SCHEMA_TEXT, &text).expect("artifact must satisfy the schema");
        assert_eq!(
            value.get("version").and_then(Json::as_num),
            Some(FORMAT_VERSION as f64)
        );
        let workloads = value.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), 4);
        // The registry grid feeds the --diff gate alongside the engines.
        let pairs = relax_per_sec_index(&value);
        assert!(pairs
            .iter()
            .any(|(w, e, _)| w == "registry" && e == "graphs-1"));
        assert!(pairs
            .iter()
            .any(|(w, e, _)| w == "registry" && e == "graphs-4"));
    }

    fn fake_artifact(rps: f64) -> Json {
        json::parse(&format!(
            r#"{{"workloads": [{{"name": "w", "engines": [
                {{"name": "delta-presplit", "relaxations_per_sec": {rps}}},
                {{"name": "thorup", "relaxations_per_sec": 500.0}}
            ]}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn diff_passes_within_tolerance_and_fails_beyond_it() {
        let baseline = fake_artifact(1000.0);
        // 1.8x slower: inside the 2x tolerance.
        let lines = diff_artifacts(&baseline, &fake_artifact(555.0), 2.0).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().any(|l| l.engine == "delta-presplit"));
        // 4x slower: a real regression.
        let err = diff_artifacts(&baseline, &fake_artifact(250.0), 2.0).unwrap_err();
        assert!(
            err.contains("delta-presplit") && err.contains("regression"),
            "{err}"
        );
        // Faster is never a failure.
        diff_artifacts(&baseline, &fake_artifact(9000.0), 2.0).unwrap();
    }

    #[test]
    fn diff_rejects_disjoint_grids() {
        let baseline = fake_artifact(1000.0);
        let renamed = json::parse(
            r#"{"workloads": [{"name": "other", "engines": [
                {"name": "delta-presplit", "relaxations_per_sec": 1000.0}
            ]}]}"#,
        )
        .unwrap();
        assert!(diff_artifacts(&baseline, &renamed, 2.0).is_err());
    }

    #[test]
    fn truncated_artifact_fails_the_check() {
        let report = run(RunShape {
            scale: 6,
            iterations: 1,
            sources: 1,
            smoke: true,
        });
        let text = report.to_json();
        assert!(check_artifact(SCHEMA_TEXT, &text[..text.len() / 2]).is_err());
        // A parseable document missing required keys also fails.
        assert!(check_artifact(SCHEMA_TEXT, "{\"version\": 1}").is_err());
    }

    #[cfg(feature = "count-alloc")]
    #[test]
    fn one_lane_stepping_allocates_nothing_per_warm_query() {
        use mmt_baselines::{
            default_rho, delta_star_presplit, delta_stepping_st, rho_stepping_presplit, StepScratch,
        };
        use mmt_graph::{CompactSplitCsr, CsrGraph};
        use mmt_platform::AtomicMinU32;
        for class in [GraphClass::Random, GraphClass::Road] {
            let spec = WorkloadSpec::new(class, WeightDist::Uniform, 12, 12);
            let g = CsrGraph::from_edge_list(&spec.generate());
            let delta = adaptive_delta(&g).clamp(1, u32::MAX as u64) as u32;
            let split = SplitCsr::new(&g, delta);
            let compact = CompactSplitCsr::try_new(&g, delta).expect("2^12 graphs narrow");
            let sources: Vec<u32> = (0..4).map(|i| (i * g.n() / 4) as u32).collect();
            let rho = default_rho(g.n());
            mmt_platform::with_pool(1, || {
                let mut delta = DeltaScratch::new(&split);
                let mut steps = StepScratch::new(&split);
                let mut star = StepScratch::new(&split);
                let mut early = DeltaScratch::new(&split);
                let mut narrow = StepScratch::<AtomicMinU32>::new(&compact);
                let mut solve = |kernel: usize| {
                    for (i, &s) in sources.iter().enumerate() {
                        match kernel {
                            0 => delta_stepping_presplit(&split, s, &mut delta, None),
                            1 => rho_stepping_presplit(&split, s, rho, &mut steps, None),
                            2 => delta_star_presplit(&split, s, &mut star, None),
                            3 => {
                                let t = sources[(i + 1) % sources.len()] + 1;
                                delta_stepping_st(&split, s, t, &mut early, None, None);
                            }
                            _ => delta_stepping_presplit(&compact, s, &mut narrow, None),
                        }
                    }
                };
                let kernels = ["delta", "rho", "delta-star", "delta-early", "delta-u32"];
                for (kernel, name) in kernels.into_iter().enumerate() {
                    solve(kernel);
                    let ((), allocs) = crate::alloc_count::measure_thread(|| solve(kernel));
                    assert_eq!(
                        allocs,
                        0,
                        "{}: one-lane {name} allocated on warm queries",
                        spec.name()
                    );
                }
            });
        }
    }
}
