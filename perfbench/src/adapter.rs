//! The only module that names the library crates.
//!
//! Every call the benchmark makes into the workspace goes through a
//! function here, one per library call, so a later rename of a public API
//! is fixed in this file alone. The functions add no behaviour of their
//! own: spans and timings are recorded by the callers, around these calls.

use std::sync::Arc;

pub use mmt_baselines::{BidiScratch, DeltaScratch, StepScratch};
pub use mmt_ch::ComponentHierarchy as Hierarchy;
pub use mmt_graph::types::{Dist, EdgeList, VertexId};
pub use mmt_graph::{CsrGraph as Graph, SplitCsr as Split};
pub use mmt_platform::{CountersSnapshot, EventCounters as Counters};
pub use mmt_thorup::{
    GraphId, GraphRegistry, MemoryTraceSink, P2pAlgo, QueryHandle, QueryService, TargetHandle,
    ThorupInstance, TraceEvent,
};

use mmt_graph::{GraphClass, WeightDist, WorkloadSpec};
use mmt_thorup::{QueryRequest, ThorupConfig, ThorupSolver};

/// The generator families the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// DIMACS `Random4-n`: a cycle plus random edges, m = 4n.
    Rand,
    /// A street grid with highway shortcuts.
    Road,
}

fn spec(family: Family, log_n: u32, log_c: u32, seed: u64) -> WorkloadSpec {
    let class = match family {
        Family::Rand => GraphClass::Random,
        Family::Road => GraphClass::Road,
    };
    let mut spec = WorkloadSpec::new(class, WeightDist::Uniform, log_n, log_c);
    spec.seed = seed;
    spec
}

/// The paper's data-set name, e.g. `Rand-UWD-2^17-2^17`.
pub fn input_name(family: Family, log_n: u32, log_c: u32) -> String {
    spec(family, log_n, log_c, 0).name()
}

/// The seeded edge list: the benchmark's input, outside every timing.
pub fn generate(family: Family, log_n: u32, log_c: u32, seed: u64) -> EdgeList {
    spec(family, log_n, log_c, seed).generate()
}

/// Hardware threads of this host, read at run time.
pub fn nproc() -> usize {
    mmt_platform::available_threads()
}

/// Runs `f` with a pool of `threads` installed.
pub fn with_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    mmt_platform::with_pool(threads, f)
}

/// Process peak resident set size (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    mmt_platform::mem::peak_rss_bytes().unwrap_or(0)
}

/// One empty two-item parallel region: the fork/join cost every
/// stepping phase pays.
pub fn empty_region() {
    let lanes = mmt_platform::ShardBuffers::<u8>::new(2);
    lanes.scatter(&[0u8, 0u8], |_, _| {});
}

/// The thread budget a kernel reads when it sizes its lanes.
pub fn thread_budget() -> usize {
    rayon::current_num_threads()
}

pub fn csr(el: &EdgeList) -> Graph {
    Graph::from_edge_list(el)
}

/// The light/heavy split at the adaptive Δ, shared by the three stepping
/// kernels.
pub fn split(g: &Graph) -> Split {
    let delta = mmt_baselines::adaptive_delta(g).clamp(1, u32::MAX as u64) as u32;
    Split::new(g, delta)
}

pub fn ch_parallel(el: &EdgeList) -> Hierarchy {
    mmt_ch::build_parallel(el)
}

pub fn ch_serial(el: &EdgeList) -> Hierarchy {
    mmt_ch::build_serial(el, mmt_ch::ChMode::Collapsed)
}

pub fn ch_heap_bytes(ch: &Hierarchy) -> usize {
    ch.heap_bytes()
}

/// The correctness oracle.
pub fn dijkstra(g: &Graph, source: VertexId) -> Vec<Dist> {
    mmt_baselines::dijkstra(g, source)
}

/// The four full-SSSP engines of the paper comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Thorup,
    Delta,
    Rho,
    DeltaStar,
}

impl Engine {
    pub const ALL: [Engine; 4] = [
        Engine::Thorup,
        Engine::Delta,
        Engine::Rho,
        Engine::DeltaStar,
    ];

    /// The engine's short name in reports.
    pub fn metric(self) -> &'static str {
        match self {
            Engine::Thorup => "thorup",
            Engine::Delta => "delta",
            Engine::Rho => "rho",
            Engine::DeltaStar => "delta_star",
        }
    }

    /// The layer the engine's solve lives in.
    pub fn layer(self) -> &'static str {
        match self {
            Engine::Thorup => "mmt-thorup.solver",
            Engine::Delta => "mmt-baselines.delta",
            Engine::Rho => "mmt-baselines.rho",
            Engine::DeltaStar => "mmt-baselines.delta_star",
        }
    }
}

/// Per-engine reusable state over one graph. Scratch lanes follow the
/// pool installed when this is built.
pub struct Engines<'a> {
    graph: &'a Graph,
    ch: &'a Hierarchy,
    split: &'a Split,
    rho: usize,
    thorup: ThorupInstance,
    delta: DeltaScratch,
    rho_scratch: StepScratch,
    star: StepScratch,
}

impl<'a> Engines<'a> {
    pub fn new(graph: &'a Graph, ch: &'a Hierarchy, split: &'a Split) -> Self {
        Self {
            graph,
            ch,
            split,
            rho: mmt_baselines::default_rho(graph.n()),
            thorup: ThorupInstance::new(ch),
            delta: DeltaScratch::new(split),
            rho_scratch: StepScratch::new(split),
            star: StepScratch::new(split),
        }
    }

    /// One full SSSP from `source`: `ThorupInstance::reset` +
    /// `ThorupSolver::solve_into` (default config), or the stepping
    /// kernel over the shared split.
    pub fn solve(&mut self, engine: Engine, source: VertexId, counters: Option<&Counters>) {
        match engine {
            Engine::Thorup => {
                self.thorup.reset(self.ch);
                let solver = ThorupSolver::new(self.graph, self.ch);
                match counters {
                    Some(c) => solver.with_counters(c).solve_into(&self.thorup, source),
                    None => solver.solve_into(&self.thorup, source),
                }
            }
            Engine::Delta => mmt_baselines::delta_stepping_presplit(
                self.split,
                source,
                &mut self.delta,
                counters,
            ),
            Engine::Rho => mmt_baselines::rho_stepping_presplit(
                self.split,
                source,
                self.rho,
                &mut self.rho_scratch,
                counters,
            ),
            Engine::DeltaStar => {
                mmt_baselines::delta_star_presplit(self.split, source, &mut self.star, counters)
            }
        }
    }

    /// The distance the engine's last solve found for `v`.
    pub fn distance(&self, engine: Engine, v: VertexId) -> Dist {
        match engine {
            Engine::Thorup => self.thorup.dist_of(v),
            Engine::Delta => self.delta.distance(v),
            Engine::Rho => self.rho_scratch.distance(v),
            Engine::DeltaStar => self.star.distance(v),
        }
    }
}

/// What one service worker does per full query: a serial Thorup solve
/// into a reset instance.
pub fn thorup_serial_solve(g: &Graph, ch: &Hierarchy, inst: &ThorupInstance, source: VertexId) {
    inst.reset(ch);
    ThorupSolver::new(g, ch)
        .with_config(ThorupConfig::serial())
        .solve_into(inst, source);
}

pub fn thorup_instance(ch: &Hierarchy) -> ThorupInstance {
    ThorupInstance::new(ch)
}

/// The reply copy a full query pays: `ThorupInstance::distances`.
pub fn instance_distances(inst: &ThorupInstance) -> Vec<Dist> {
    inst.distances()
}

pub fn delta_scratch(split: &Split) -> DeltaScratch {
    DeltaScratch::new(split)
}

/// Early-exit Δ-stepping s–t, as the service's `DeltaEarly` runs it.
pub fn delta_early(
    split: &Split,
    s: VertexId,
    t: VertexId,
    scratch: &mut DeltaScratch,
    counters: Option<&Counters>,
) -> Dist {
    mmt_baselines::delta_stepping_st(split, s, t, scratch, counters, None)
        .expect("an uncancellable solve completes")
}

/// Bidirectional Dijkstra s–t, as the service's `Bidirectional` runs it:
/// the distance and the arcs it scanned.
pub fn bidi(g: &Graph, s: VertexId, t: VertexId, scratch: &mut BidiScratch) -> (Dist, u64) {
    let (d, stats) = mmt_baselines::bidirectional_st(g, s, t, scratch, None)
        .expect("an uncancellable solve completes");
    (d, stats.arcs_scanned)
}

pub fn registry() -> GraphRegistry {
    GraphRegistry::new()
}

pub fn register(registry: &mut GraphRegistry, name: &str, g: &Graph, ch: Hierarchy) -> GraphId {
    registry
        .register(name, g, Arc::new(ch))
        .expect("the hierarchy was built for this graph")
}

pub fn resident_bytes(registry: &GraphRegistry) -> usize {
    registry.resident_bytes()
}

/// Starts a service with `workers` workers per graph and otherwise the
/// builder's defaults (zero-budget coalescing on), optionally tracing
/// into `sink`.
pub fn start_service(
    registry: GraphRegistry,
    workers: usize,
    sink: Option<Arc<MemoryTraceSink>>,
) -> QueryService {
    let mut builder = QueryService::builder().workers(workers);
    if let Some(sink) = sink {
        builder = builder.trace(sink);
    }
    builder
        .build_registry(registry)
        .expect("a freshly registered graph starts")
}

pub fn submit_full(svc: &QueryService, graph: GraphId, source: VertexId) -> Option<QueryHandle> {
    svc.submit(QueryRequest::on(graph, source)).ok()
}

pub fn submit_st(
    svc: &QueryService,
    graph: GraphId,
    s: VertexId,
    t: VertexId,
    algo: P2pAlgo,
) -> Option<TargetHandle> {
    svc.submit_p2p(QueryRequest::st_on(graph, s, t).algo(algo))
        .ok()
}

/// The id a handle was admitted under, as trace events render it.
pub fn full_id(h: &QueryHandle) -> String {
    h.id().to_string()
}

pub fn st_id(h: &TargetHandle) -> String {
    h.id().to_string()
}

pub fn wait_full(h: QueryHandle) -> Option<Vec<Dist>> {
    h.wait().ok()
}

pub fn wait_st(h: TargetHandle) -> Option<Dist> {
    h.wait().ok()
}

/// The graph and hierarchy a service's workers solve on.
pub fn served(svc: &QueryService, graph: GraphId) -> (Arc<Graph>, Arc<Hierarchy>) {
    let registry = svc.registry();
    let g = registry.graph(graph).expect("registered graph");
    let ch = registry.hierarchy(graph).expect("registered graph");
    (g, ch)
}

/// Requests queued but not yet taken by a worker.
pub fn queue_depth(svc: &QueryService) -> u64 {
    svc.metrics().queue_depth()
}

/// `(coalesced_queries, served_full)` from the metrics snapshot.
pub fn coalescing(svc: &QueryService) -> (u64, u64) {
    let snap = svc.metrics().snapshot();
    (snap.coalesced_queries, snap.served_full)
}

pub fn trace_events(sink: &MemoryTraceSink) -> Vec<TraceEvent> {
    sink.events()
}
