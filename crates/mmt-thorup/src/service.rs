//! The long-lived SSSP serving layer: multi-graph, sharded, and typed.
//!
//! The paper's deployment story — build the hierarchy once, then serve a
//! stream of shortest-path queries from many clients — needs more than a
//! batch call: resident worker pools, per-worker reusable instances,
//! bounded admission, per-request deadlines, cancellation, and clean
//! shutdown. This module is that serving layer, generalised from one
//! graph to a [`GraphRegistry`] of tenants:
//!
//! * **Sharded routing.** Every registered graph gets its own bounded
//!   queue and worker pool; a request names its tenant with a typed
//!   [`GraphId`] (no raw indices cross the public surface) and is routed
//!   to that shard. One tenant's overload or eviction never blocks
//!   another's queue.
//! * **Typed requests.** [`submit`](QueryService::submit) /
//!   [`try_submit`](QueryService::try_submit) /
//!   [`submit_batch`](QueryService::submit_batch) take a chainable
//!   [`QueryRequest`] / [`BatchRequest`] carrying graph, source and
//!   optional deadline; point-to-point queries go through
//!   [`submit_p2p`](QueryService::submit_p2p), which *requires* the
//!   target the full-SSSP path *rejects*. Shape errors are values
//!   ([`InputError::UnexpectedTarget`] / [`InputError::MissingTarget`]),
//!   never silent reinterpretation.
//! * **Shared arenas.** All shards serve the graph as registered, off the
//!   registry's `Arc`-shared [`CsrArena`](mmt_graph::CsrArena)s: N graphs
//!   store each arc array exactly once, and the registry's resident-bytes
//!   gauge feeds the optional
//!   [`memory_limit`](QueryServiceBuilder::memory_limit) admission check
//!   ([`ServiceError::MemoryPressure`]).
//! * **Lifecycle.** [`QueryService::evict_graph`] closes one shard,
//!   resolves its queued requests to [`ServiceError::GraphEvicted`],
//!   joins its workers and drops the registry's data. Eviction is
//!   refcounted: in-flight solves keep their graph and hierarchy `Arc`s
//!   alive and finish normally.
//! * **Coalescing scheduler.** A worker that dequeues a full-SSSP query
//!   gathers queued full-SSSP queries for the same graph — up to
//!   [`coalesce_batch_cap`](QueryServiceBuilder::coalesce_batch_cap),
//!   waiting at most [`coalesce_budget`](QueryServiceBuilder::coalesce_budget)
//!   and never past the earliest member deadline — and solves them in one
//!   [`BatchSolver`] run, converting the batch path's amortisation into
//!   serving throughput. The default zero budget adds no latency: batches
//!   form exactly when a backlog exists. `coalesced_batches` /
//!   `coalesced_queries` in [`ServiceMetrics`] observe it;
//!   [`QueryServiceBuilder::no_coalescing`] turns it off.
//!
//! Each worker solves on one lane — the service's parallelism is across
//! queries and shards, so no solve forks a thread — and owns one
//! [`ThorupInstance`] for single requests plus, from its first coalesced
//! full query on, one pooled batch instance: a `w`-worker shard keeps at
//! most `2w` resident instances whatever the batch size (the paper's
//! Section 5.2 memory model). A worker pulls requests from its shard's **bounded**
//! queue and answers through a per-request reply channel. Admission
//! control is typed: when the queue is full, [`QueryService::try_submit`]
//! returns [`ServiceError::Overloaded`] instead of blocking. Every request
//! carries a [`CancelToken`]; dropping a handle, an expired deadline, or
//! an abort-mode shutdown stops the query — checked at dequeue *and*
//! cooperatively inside the solver at bucket-expansion boundaries.
//!
//! The service also degrades gracefully instead of deadlocking:
//!
//! * **Poisoned workers.** A panic while a request is in flight is
//!   caught ([`std::panic::catch_unwind`]); the request resolves to
//!   [`ServiceError::WorkerLost`], the worker's per-query state is torn
//!   down and respawned, and the pool returns to full strength
//!   ([`ServiceMetrics::workers_restarted`] /
//!   [`ServiceMetrics::requests_lost`] record the damage).
//! * **Load shedding.** Under sustained overload,
//!   [`ShedPolicy::RejectOldestExpired`] evicts queued requests whose
//!   deadline has already passed (or that were cancelled) to admit fresh
//!   work; evicted requests resolve to [`ServiceError::Shed`] — never a
//!   timeout-by-silence — and queue depth never exceeds capacity.
//! * **Fault injection.** The chaos suite threads a seeded
//!   [`mmt_platform::FaultPlan`] through the workers via
//!   [`QueryServiceBuilder::fault_plan`]. Beyond panics, stalls and
//!   allocation pressure, `FaultKind::DropReply` severs the reply channel
//!   at the worker's reply site (the client sees a disconnect, the
//!   service counts `requests_lost`), and `FaultSite::ClientWait` fires
//!   on the *client* thread inside [`QueryHandle::wait`] — a stall there
//!   simulates a slow client, a drop there withdraws the query.
//!   `DropReply` is honoured at the `Reply` and `ClientWait` sites and
//!   ignored elsewhere. Production services pay one `Option` branch per
//!   injection site.
//!
//! ```
//! use mmt_ch::build_parallel;
//! use mmt_graph::{gen::shapes, CsrGraph};
//! use mmt_thorup::service::QueryRequest;
//! use mmt_thorup::{GraphRegistry, QueryService};
//!
//! let el = shapes::figure_one();
//! let g = CsrGraph::from_edge_list(&el);
//! let ch = build_parallel(&el);
//! let mut registry = GraphRegistry::new();
//! let id = registry.register("figure-one", &g, ch.into()).unwrap();
//! let service = QueryService::builder()
//!     .workers(2)
//!     .queue_capacity(64)
//!     .build_registry(registry)
//!     .unwrap();
//! let handle = service.submit(QueryRequest::on(id, 0)).unwrap();
//! assert_eq!(handle.wait().unwrap()[5], 10);
//! assert_eq!(service.metrics().served_full(), 1);
//! ```

use crate::batch::{BatchSolver, DistancePool, PooledDistances};
use crate::error::{InputError, ServiceError};
use crate::instance::ThorupInstance;
use crate::registry::{GraphId, GraphRegistry, QueryId};
use crate::solver::{ThorupConfig, ThorupSolver};
use crate::trace::{escape_json, TraceEvent, TraceSink};
use crossbeam::channel::{bounded, Receiver, Sender};
use mmt_baselines::{
    adaptive_delta, bidirectional_st, delta_stepping_st, BidiScratch, DeltaScratch,
};
use mmt_ch::ComponentHierarchy;
use mmt_graph::types::{Dist, VertexId};
use mmt_graph::{CsrGraph, SplitCsr};
use mmt_platform::{
    AtomicLog2Histogram, CancelToken, CoalescePop, Counter, CountersSnapshot, EventCounters,
    FaultEffect, FaultPlan, FaultSite, Log2Histogram, MemoryGauge, PushRejected, QuantileSummary,
    ShedQueue,
};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One queued unit of work, routed to a shard at admission.
struct Request {
    kind: RequestKind,
    token: CancelToken,
    enqueued: Instant,
    /// The typed id the admitting submit handed back; trace events carry
    /// it so a client can correlate a slow handle with its lifecycle.
    id: QueryId,
}

enum RequestKind {
    Full {
        source: VertexId,
        reply: Sender<Result<Vec<Dist>, ServiceError>>,
    },
    Target {
        source: VertexId,
        target: VertexId,
        algo: P2pAlgo,
        reply: Sender<Result<Dist, ServiceError>>,
    },
    Batch {
        source: VertexId,
        member: BatchMember,
    },
}

/// Shared completion state of one batch: one slot per source, a countdown,
/// and the signal that flips when the countdown hits zero. All member
/// metrics are recorded here — exactly once per slot, whatever path
/// resolved it (worker answer, dequeue-time failure, or a request dropped
/// by shutdown).
struct BatchCollector {
    slots: Mutex<Vec<Option<Result<PooledDistances, ServiceError>>>>,
    remaining: AtomicUsize,
    done: Sender<()>,
    metrics: Arc<ServiceMetrics>,
    stats: Arc<GraphStats>,
}

impl BatchCollector {
    fn fulfil(&self, slot: usize, result: Result<PooledDistances, ServiceError>) {
        match &result {
            Ok(_) => {
                self.metrics.served_batch.bump();
                self.stats.served.bump();
            }
            Err(e) => self.metrics.note_failure(e),
        }
        self.slots.lock()[slot] = Some(result);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _ = self.done.send(());
        }
    }
}

/// One batch slot's write-once capability. If the request carrying it is
/// dropped unresolved (e.g. discarded from the queue at shutdown), the
/// slot resolves to [`ServiceError::ShutDown`] so the batch never hangs.
struct BatchMember {
    collector: Arc<BatchCollector>,
    slot: usize,
    resolved: bool,
}

impl BatchMember {
    fn new(collector: Arc<BatchCollector>, slot: usize) -> Self {
        Self {
            collector,
            slot,
            resolved: false,
        }
    }

    fn fulfil(mut self, result: Result<PooledDistances, ServiceError>) {
        self.resolved = true;
        self.collector.fulfil(self.slot, result);
    }
}

impl Drop for BatchMember {
    fn drop(&mut self) {
        if !self.resolved {
            self.collector
                .fulfil(self.slot, Err(ServiceError::ShutDown));
        }
    }
}

/// A handle to an in-flight batch of full SSSP queries. Dropping it
/// without waiting cancels every member.
pub struct BatchHandle {
    done: Option<Receiver<()>>,
    collector: Arc<BatchCollector>,
    token: CancelToken,
    id: QueryId,
    faults: Option<Arc<FaultPlan>>,
}

impl std::fmt::Debug for BatchHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchHandle")
            .field("id", &self.id)
            .field("waited", &self.done.is_none())
            .finish_non_exhaustive()
    }
}

impl BatchHandle {
    /// The typed id this batch was admitted under.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Blocks until every member has an answer or a typed rejection,
    /// returning per-source results in submission order. Result vectors
    /// are on loan from the service's pool: dropping one recycles its
    /// buffer for later queries.
    pub fn wait(mut self) -> Vec<Result<PooledDistances, ServiceError>> {
        if let Some(plan) = &self.faults {
            // A client-side drop withdraws the not-yet-answered members;
            // the batch still resolves every slot (Cancelled or Ok).
            if plan.fire(FaultSite::ClientWait).drops_reply() {
                self.token.cancel();
            }
        }
        let done = self.done.take().expect("done receiver taken once");
        // Every member slot is guaranteed to resolve (worker, dequeue
        // check, or drop guard), so this cannot hang; a disconnect would
        // mean the collector died, which the Arc we hold rules out.
        let _ = done.recv();
        let mut slots = self.collector.slots.lock();
        slots
            .drain(..)
            .map(|r| r.expect("all slots resolved before done fires"))
            .collect()
    }

    /// Requests cancellation of every not-yet-answered member.
    pub fn cancel(&self) {
        self.token.cancel();
    }
}

impl Drop for BatchHandle {
    fn drop(&mut self) {
        if self.done.is_some() {
            self.token.cancel();
        }
    }
}

macro_rules! impl_handle {
    ($(#[$doc:meta])* $name:ident, $ok:ty) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            reply: Option<Receiver<Result<$ok, ServiceError>>>,
            token: CancelToken,
            id: QueryId,
            faults: Option<Arc<FaultPlan>>,
        }

        impl $name {
            /// The typed id this request was admitted under.
            pub fn id(&self) -> QueryId {
                self.id
            }

            /// Fires the client-wait fault site, if a plan is installed.
            /// A stall there simulates a slow client; a reply-drop there
            /// withdraws the query from the client side.
            fn fire_client_wait(&self) -> bool {
                let Some(plan) = &self.faults else {
                    return false;
                };
                if plan.fire(FaultSite::ClientWait).drops_reply() {
                    self.token.cancel();
                    return true;
                }
                false
            }

            /// Blocks until the answer (or a typed rejection) arrives.
            ///
            /// [`ServiceError::ShutDown`] is returned when the service
            /// stopped before answering.
            pub fn wait(mut self) -> Result<$ok, ServiceError> {
                if self.fire_client_wait() {
                    return Err(ServiceError::Cancelled);
                }
                let reply = self.reply.take().expect("reply receiver taken once");
                match reply.recv() {
                    Ok(result) => result,
                    Err(_) => Err(ServiceError::ShutDown),
                }
            }

            /// As [`wait`](Self::wait), giving up (and cancelling the
            /// query) when no answer arrives within `timeout`.
            pub fn wait_timeout(mut self, timeout: Duration) -> Result<$ok, ServiceError> {
                if self.fire_client_wait() {
                    return Err(ServiceError::Cancelled);
                }
                let reply = self.reply.take().expect("reply receiver taken once");
                match reply.recv_timeout(timeout) {
                    Ok(result) => result,
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                        self.token.cancel();
                        Err(ServiceError::DeadlineExceeded)
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                        Err(ServiceError::ShutDown)
                    }
                }
            }

            /// Requests cancellation of the in-flight query without
            /// consuming the handle. The eventual [`wait`](Self::wait)
            /// reports [`ServiceError::Cancelled`] unless the answer was
            /// already produced.
            pub fn cancel(&self) {
                self.token.cancel();
            }
        }

        impl Drop for $name {
            fn drop(&mut self) {
                // A handle dropped without being waited on withdraws the
                // query: queued requests are discarded at dequeue and
                // in-flight solves stop at the next expansion boundary.
                if self.reply.is_some() {
                    self.token.cancel();
                }
            }
        }
    };
}

impl_handle!(
    /// A handle to an in-flight full SSSP query. Dropping it without
    /// waiting cancels the query.
    QueryHandle,
    Vec<Dist>
);
impl_handle!(
    /// A handle to an in-flight point-to-point query. Dropping it
    /// without waiting cancels the query.
    TargetHandle,
    Dist
);

/// Per-graph serving counters, listed in [`MetricsSnapshot::graphs`]. The
/// resident gauge is shared with the registry, so the snapshot reflects
/// evictions immediately.
#[derive(Debug)]
struct GraphStats {
    name: String,
    served: Counter,
    shed: Counter,
    resident: Arc<MemoryGauge>,
}

/// Live service counters and histograms. All updates are relaxed; read
/// them individually or atomically-enough via
/// [`snapshot`](ServiceMetrics::snapshot).
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    served_full: Counter,
    served_target: Counter,
    served_batch: Counter,
    rejected_overload: Counter,
    rejected_deadline: Counter,
    rejected_shutdown: Counter,
    rejected_input: Counter,
    rejected_evicted: Counter,
    rejected_memory: Counter,
    cancelled: Counter,
    requests_lost: Counter,
    shed: Counter,
    workers_restarted: Counter,
    /// Moved by the shard queues themselves, inside their locks.
    queue_depth: Arc<Counter>,
    inflight: Counter,
    coalesced_batches: Counter,
    coalesced_queries: Counter,
    latency_us: AtomicLog2Histogram,
    queue_wait_us: AtomicLog2Histogram,
    /// One entry per registered graph, fixed at build time.
    graphs: Mutex<Vec<Arc<GraphStats>>>,
    /// Test probes: most Δ-early bin lanes and batch instances a worker held.
    #[cfg(test)]
    delta_lanes: std::sync::atomic::AtomicUsize,
    #[cfg(test)]
    batch_instances: std::sync::atomic::AtomicUsize,
}

impl ServiceMetrics {
    /// Full queries answered.
    pub fn served_full(&self) -> u64 {
        self.served_full.get()
    }

    /// Targeted queries answered.
    pub fn served_target(&self) -> u64 {
        self.served_target.get()
    }

    /// Batch-member queries answered (one per source per batch).
    pub fn served_batch(&self) -> u64 {
        self.served_batch.get()
    }

    /// Requests refused at admission because the queue was full.
    pub fn rejected_overload(&self) -> u64 {
        self.rejected_overload.get()
    }

    /// Requests whose deadline passed before an answer was produced.
    pub fn rejected_deadline(&self) -> u64 {
        self.rejected_deadline.get()
    }

    /// Requests refused or abandoned because the service shut down.
    pub fn rejected_shutdown(&self) -> u64 {
        self.rejected_shutdown.get()
    }

    /// Requests refused because they were malformed (e.g. an
    /// out-of-range source).
    pub fn rejected_input(&self) -> u64 {
        self.rejected_input.get()
    }

    /// Requests refused or abandoned because their graph was evicted
    /// from the registry.
    pub fn rejected_evicted(&self) -> u64 {
        self.rejected_evicted.get()
    }

    /// Requests refused at admission because registry resident bytes
    /// exceeded the configured memory limit.
    pub fn rejected_memory(&self) -> u64 {
        self.rejected_memory.get()
    }

    /// Queries cancelled by their holder (dropped or cancelled handles).
    pub fn cancelled(&self) -> u64 {
        self.cancelled.get()
    }

    /// Requests whose worker panicked mid-flight (each resolved to
    /// [`ServiceError::WorkerLost`]) plus answers lost to an injected
    /// reply-channel drop — never silently uncounted.
    pub fn requests_lost(&self) -> u64 {
        self.requests_lost.get()
    }

    /// Queued requests evicted by the load-shedding policy.
    pub fn shed(&self) -> u64 {
        self.shed.get()
    }

    /// Workers respawned after a panic; the pool is back at full
    /// strength once the counter stops moving.
    pub fn workers_restarted(&self) -> u64 {
        self.workers_restarted.get()
    }

    /// Requests currently sitting in a shard queue (gauge, all shards).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.get()
    }

    /// Requests currently being solved (gauge, all shards).
    pub fn inflight(&self) -> u64 {
        self.inflight.get()
    }

    /// Coalesced batches formed: dequeue-time groupings of two or more
    /// queued full-SSSP queries solved by one `BatchSolver` run.
    /// Singleton formations are not counted.
    pub fn coalesced_batches(&self) -> u64 {
        self.coalesced_batches.get()
    }

    /// Queries that rode a coalesced batch (members of formations counted
    /// by [`coalesced_batches`](Self::coalesced_batches)).
    pub fn coalesced_queries(&self) -> u64 {
        self.coalesced_queries.get()
    }

    /// End-to-end latency (enqueue to answer) of served queries, in
    /// microseconds.
    pub fn latency_us(&self) -> Log2Histogram {
        self.latency_us.snapshot()
    }

    /// Time served queries spent queued before a worker picked them up,
    /// in microseconds.
    pub fn queue_wait_us(&self) -> Log2Histogram {
        self.queue_wait_us.snapshot()
    }

    /// A point-in-time copy of every counter and histogram, per-graph
    /// sections included.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            served_full: self.served_full(),
            served_target: self.served_target(),
            served_batch: self.served_batch(),
            rejected_overload: self.rejected_overload(),
            rejected_deadline: self.rejected_deadline(),
            rejected_shutdown: self.rejected_shutdown(),
            rejected_input: self.rejected_input(),
            rejected_evicted: self.rejected_evicted(),
            rejected_memory: self.rejected_memory(),
            cancelled: self.cancelled(),
            requests_lost: self.requests_lost(),
            shed: self.shed(),
            workers_restarted: self.workers_restarted(),
            queue_depth: self.queue_depth(),
            inflight: self.inflight(),
            coalesced_batches: self.coalesced_batches(),
            coalesced_queries: self.coalesced_queries(),
            graphs: self
                .graphs
                .lock()
                .iter()
                .map(|g| GraphMetricsSnapshot {
                    name: g.name.clone(),
                    served: g.served.get(),
                    shed: g.shed.get(),
                    resident_bytes: g.resident.resident() as u64,
                })
                .collect(),
            latency_us: self.latency_us(),
            queue_wait_us: self.queue_wait_us(),
        }
    }

    /// Records a terminal rejection against the matching counter.
    fn note_failure(&self, err: &ServiceError) {
        match err {
            ServiceError::Overloaded { .. } => self.rejected_overload.bump(),
            ServiceError::DeadlineExceeded => self.rejected_deadline.bump(),
            ServiceError::ShutDown => self.rejected_shutdown.bump(),
            ServiceError::Cancelled => self.cancelled.bump(),
            ServiceError::WorkerLost => self.requests_lost.bump(),
            ServiceError::Shed => self.shed.bump(),
            ServiceError::GraphEvicted => self.rejected_evicted.bump(),
            ServiceError::MemoryPressure { .. } => self.rejected_memory.bump(),
            ServiceError::Input(_) => self.rejected_input.bump(),
        }
    }
}

/// One graph's section of a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphMetricsSnapshot {
    /// The name the graph was registered under.
    pub name: String,
    /// Queries answered for this graph (full, targeted and batch).
    pub served: u64,
    /// Queued requests of this graph evicted by the load-shedding policy.
    pub shed: u64,
    /// Registry bytes currently resident for this graph (arena +
    /// hierarchy; zero after eviction).
    pub resident_bytes: u64,
}

/// A point-in-time copy of [`ServiceMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Full queries answered.
    pub served_full: u64,
    /// Targeted queries answered.
    pub served_target: u64,
    /// Batch-member queries answered.
    pub served_batch: u64,
    /// Requests refused at admission because the queue was full.
    pub rejected_overload: u64,
    /// Requests whose deadline passed before an answer was produced.
    pub rejected_deadline: u64,
    /// Requests refused or abandoned because the service shut down.
    pub rejected_shutdown: u64,
    /// Malformed requests.
    pub rejected_input: u64,
    /// Requests refused or abandoned because their graph was evicted.
    pub rejected_evicted: u64,
    /// Requests refused by the memory-pressure admission check.
    pub rejected_memory: u64,
    /// Queries cancelled by their holder.
    pub cancelled: u64,
    /// Requests lost to a worker panic or an injected reply drop.
    pub requests_lost: u64,
    /// Queued requests evicted by the load-shedding policy.
    pub shed: u64,
    /// Workers respawned after a panic.
    pub workers_restarted: u64,
    /// Requests queued at snapshot time (gauge).
    pub queue_depth: u64,
    /// Requests being solved at snapshot time (gauge).
    pub inflight: u64,
    /// Coalesced (≥ 2-member) batches formed at dequeue.
    pub coalesced_batches: u64,
    /// Queries that rode a coalesced batch.
    pub coalesced_queries: u64,
    /// Per-graph served/shed/resident sections, in registration order.
    pub graphs: Vec<GraphMetricsSnapshot>,
    /// End-to-end latency of served queries (µs).
    pub latency_us: Log2Histogram,
    /// Queue wait of dequeued requests (µs).
    pub queue_wait_us: Log2Histogram,
}

impl MetricsSnapshot {
    /// Queries answered, of any kind.
    pub fn served_total(&self) -> u64 {
        self.served_full + self.served_target + self.served_batch
    }

    /// Requests that terminated without an answer, for any reason.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_overload
            + self.rejected_deadline
            + self.rejected_shutdown
            + self.rejected_input
            + self.rejected_evicted
            + self.rejected_memory
            + self.cancelled
            + self.requests_lost
            + self.shed
    }

    /// p50/p95/p99 summary of the end-to-end latency histogram. Reported
    /// percentiles carry the histogram's log2 bucket-bound error: for a
    /// nonzero exact quantile `q`, `q <= reported <= 2*q - 1` (see
    /// [`Log2Histogram::quantiles`]).
    pub fn latency_quantiles(&self) -> QuantileSummary {
        self.latency_us.quantiles()
    }

    /// p50/p95/p99 summary of the queue-wait histogram, with the same
    /// bucket-bound error as [`latency_quantiles`](Self::latency_quantiles).
    pub fn queue_wait_quantiles(&self) -> QuantileSummary {
        self.queue_wait_us.quantiles()
    }

    /// Renders the snapshot as a JSON object (histograms and per-graph
    /// sections included).
    pub fn to_json(&self) -> String {
        let graphs: Vec<String> = self
            .graphs
            .iter()
            .map(|g| {
                format!(
                    "{{\"name\":\"{}\",\"served\":{},\"shed\":{},\"resident_bytes\":{}}}",
                    escape_json(&g.name),
                    g.served,
                    g.shed,
                    g.resident_bytes,
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"served_full\":{},\"served_target\":{},",
                "\"served_batch\":{},",
                "\"rejected_overload\":{},\"rejected_deadline\":{},",
                "\"rejected_shutdown\":{},\"rejected_input\":{},",
                "\"rejected_evicted\":{},\"rejected_memory\":{},",
                "\"cancelled\":{},\"requests_lost\":{},\"shed\":{},",
                "\"workers_restarted\":{},",
                "\"queue_depth\":{},\"inflight\":{},",
                "\"coalesced_batches\":{},\"coalesced_queries\":{},",
                "\"graphs\":[{}],",
                "\"latency_quantiles_us\":{},\"queue_wait_quantiles_us\":{},",
                "\"latency_us\":{},\"queue_wait_us\":{}}}"
            ),
            self.served_full,
            self.served_target,
            self.served_batch,
            self.rejected_overload,
            self.rejected_deadline,
            self.rejected_shutdown,
            self.rejected_input,
            self.rejected_evicted,
            self.rejected_memory,
            self.cancelled,
            self.requests_lost,
            self.shed,
            self.workers_restarted,
            self.queue_depth,
            self.inflight,
            self.coalesced_batches,
            self.coalesced_queries,
            graphs.join(","),
            self.latency_quantiles().to_json(),
            self.queue_wait_quantiles().to_json(),
            self.latency_us.to_json(),
            self.queue_wait_us.to_json(),
        )
    }
}

/// How [`QueryService::shutdown`] treats outstanding work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop admission, answer everything already queued, then stop.
    Drain,
    /// Stop admission and abandon queued and in-flight queries: their
    /// handles resolve to [`ServiceError::ShutDown`] promptly (in-flight
    /// solves stop at the next bucket-expansion boundary).
    Abort,
}

/// What the service does with an arriving request when the bounded queue
/// is already full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Refuse the arriving request: `try_submit` reports
    /// [`ServiceError::Overloaded`], blocking `submit` waits for room.
    /// The default — exactly the pre-shedding behaviour.
    #[default]
    RejectNewest,
    /// Evict queued requests that are already dead — deadline passed,
    /// handle dropped, or service aborting — oldest first, to admit the
    /// arriving one. Evicted requests resolve to [`ServiceError::Shed`].
    /// When nothing is evictable this degrades to [`RejectNewest`](Self::RejectNewest).
    RejectOldestExpired,
}

/// A chainable full-SSSP or point-to-point query description.
///
/// Built from a bare source (`submit(3)` — routed to the first registered
/// graph) or explicitly with [`QueryRequest::on`]; point-to-point queries
/// start from [`QueryRequest::st`] / [`QueryRequest::st_on`]; refined with
/// [`target`](QueryRequest::target), [`deadline`](QueryRequest::deadline)
/// and [`algo`](QueryRequest::algo). The full-SSSP entry points reject a
/// request with a target set, and [`QueryService::submit_p2p`] rejects one
/// without — the request's shape is checked, not guessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRequest {
    graph: GraphId,
    source: VertexId,
    target: Option<VertexId>,
    deadline: Option<Duration>,
    algo: P2pAlgo,
}

/// Which solver answers a point-to-point ([`QueryRequest::st`]) request.
///
/// All three are exact: they agree with each other and with full SSSP at
/// the target on every input (the verify harness runs them as the
/// `p2p-bidi`/`p2p-delta-early` differential engines), and all of them
/// prove unreachability rather than timing out. They differ only in how
/// much of the graph they touch before the stopping criterion fires —
/// the arcs-scanned tests of the s–t kernels and perfbench's
/// serve-road-st measure exactly that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum P2pAlgo {
    /// Thorup's hierarchy-guided search with target early exit — the
    /// default, reusing the worker's resident solver and instance.
    #[default]
    Thorup,
    /// Bidirectional Dijkstra: forward and backward searches meet in the
    /// middle, stopping when `top(fwd) + top(bwd) ≥ best` meeting.
    Bidirectional,
    /// Δ-stepping that stops once the target's bucket has settled.
    DeltaEarly,
}

impl QueryRequest {
    /// A query on the *first* registered graph — the single-tenant
    /// convenience, equivalent to the pre-registry API.
    pub fn new(source: VertexId) -> Self {
        Self::on(GraphId::from_index(0), source)
    }

    /// A query on a specific registered graph.
    pub fn on(graph: GraphId, source: VertexId) -> Self {
        Self {
            graph,
            source,
            target: None,
            deadline: None,
            algo: P2pAlgo::default(),
        }
    }

    /// A point-to-point query on the *first* registered graph — shorthand
    /// for `QueryRequest::new(source).target(target)`, ready for
    /// [`QueryService::submit_p2p`].
    pub fn st(source: VertexId, target: VertexId) -> Self {
        Self::new(source).target(target)
    }

    /// A point-to-point query on a specific registered graph.
    pub fn st_on(graph: GraphId, source: VertexId, target: VertexId) -> Self {
        Self::on(graph, source).target(target)
    }

    /// Sets the target vertex, making this a point-to-point request for
    /// [`QueryService::submit_p2p`].
    pub fn target(mut self, target: VertexId) -> Self {
        self.target = Some(target);
        self
    }

    /// Selects the point-to-point solver (default [`P2pAlgo::Thorup`]).
    /// Meaningful only for requests with a target; the full-SSSP entry
    /// points ignore it.
    pub fn algo(mut self, algo: P2pAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Sets a per-request deadline (overriding the builder's default).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

impl From<VertexId> for QueryRequest {
    fn from(source: VertexId) -> Self {
        Self::new(source)
    }
}

impl From<(GraphId, VertexId)> for QueryRequest {
    fn from((graph, source): (GraphId, VertexId)) -> Self {
        Self::on(graph, source)
    }
}

/// A chainable batch description: one full SSSP query per source, all on
/// one graph, sharing a deadline, a cancellation token and a completion
/// signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRequest {
    graph: GraphId,
    sources: Vec<VertexId>,
    deadline: Option<Duration>,
}

impl BatchRequest {
    /// A batch on the *first* registered graph.
    pub fn new(sources: impl Into<Vec<VertexId>>) -> Self {
        Self::on(GraphId::from_index(0), sources)
    }

    /// A batch on a specific registered graph.
    pub fn on(graph: GraphId, sources: impl Into<Vec<VertexId>>) -> Self {
        Self {
            graph,
            sources: sources.into(),
            deadline: None,
        }
    }

    /// Sets a deadline applied to every member (overriding the builder's
    /// default).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

impl From<&[VertexId]> for BatchRequest {
    fn from(sources: &[VertexId]) -> Self {
        Self::new(sources.to_vec())
    }
}

impl<const N: usize> From<&[VertexId; N]> for BatchRequest {
    fn from(sources: &[VertexId; N]) -> Self {
        Self::new(sources.to_vec())
    }
}

impl From<&Vec<VertexId>> for BatchRequest {
    fn from(sources: &Vec<VertexId>) -> Self {
        Self::new(sources.clone())
    }
}

impl From<Vec<VertexId>> for BatchRequest {
    fn from(sources: Vec<VertexId>) -> Self {
        Self::new(sources)
    }
}

/// The dequeue-time coalescing configuration one worker observes.
#[derive(Debug, Clone, Copy)]
struct CoalesceSettings {
    enabled: bool,
    budget: Duration,
    cap: usize,
}

impl Default for CoalesceSettings {
    fn default() -> Self {
        Self {
            enabled: true,
            budget: Duration::ZERO,
            cap: 16,
        }
    }
}

/// Builder for [`QueryService`]; obtained from [`QueryService::builder`].
#[derive(Debug, Clone)]
pub struct QueryServiceBuilder {
    workers: Option<usize>,
    queue_capacity: usize,
    default_deadline: Option<Duration>,
    shed_policy: ShedPolicy,
    fault_plan: Option<Arc<FaultPlan>>,
    memory_limit: Option<usize>,
    coalesce: CoalesceSettings,
    trace: Option<Arc<dyn TraceSink>>,
}

impl Default for QueryServiceBuilder {
    fn default() -> Self {
        Self {
            workers: None,
            queue_capacity: 1024,
            default_deadline: None,
            shed_policy: ShedPolicy::default(),
            fault_plan: None,
            memory_limit: None,
            coalesce: CoalesceSettings::default(),
            trace: None,
        }
    }
}

impl QueryServiceBuilder {
    /// Sets the number of resident worker threads *per shard* (per
    /// registered graph). Defaults to the hardware thread count. `0` is
    /// allowed and spawns no workers — requests queue up to capacity
    /// without being answered, which is useful for admission-control
    /// tests and staged startup.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets each shard's bounded request-queue capacity (clamped to at
    /// least 1; default 1024). When a shard's queue is full, `try_submit`
    /// returns [`ServiceError::Overloaded`] and blocking `submit` waits.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets a deadline applied to every request that does not carry its
    /// own. Default: none.
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Sets the overload policy applied at enqueue when a shard's
    /// bounded queue is full (default [`ShedPolicy::RejectNewest`]).
    pub fn shed_policy(mut self, policy: ShedPolicy) -> Self {
        self.shed_policy = policy;
        self
    }

    /// Installs a fault-injection plan observed by every worker — the
    /// chaos suite's hook. Default: none, costing one `Option` branch
    /// per injection site.
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Caps registry resident bytes at admission: a request arriving
    /// while [`GraphRegistry::resident_bytes`] exceeds `bytes` is
    /// refused with [`ServiceError::MemoryPressure`]. The check is
    /// advisory (admission-time, not allocation-time) and applies to
    /// every shard. Default: unlimited.
    pub fn memory_limit(mut self, bytes: usize) -> Self {
        self.memory_limit = Some(bytes);
        self
    }

    /// Sets how long a worker that just dequeued a full-SSSP query may
    /// wait for more same-graph queries to coalesce into one
    /// [`BatchSolver`] run (default [`Duration::ZERO`]: the worker grabs
    /// whatever is *already* queued and never waits, so coalescing adds
    /// no latency and batches form exactly when there is a backlog).
    ///
    /// The window is always clamped to the earliest member deadline —
    /// coalescing never waits a member past its deadline — and a member
    /// whose deadline does expire while the batch forms is shed loudly
    /// ([`ServiceError::DeadlineExceeded`]), never solved late.
    pub fn coalesce_budget(mut self, budget: Duration) -> Self {
        self.coalesce.enabled = true;
        self.coalesce.budget = budget;
        self
    }

    /// Caps how many queries one coalesced batch may carry (clamped to at
    /// least 1; default 16). Reaching the cap ends the coalescing window
    /// early.
    pub fn coalesce_batch_cap(mut self, cap: usize) -> Self {
        self.coalesce.cap = cap.max(1);
        self
    }

    /// Disables dequeue-time coalescing: every full-SSSP query solves
    /// alone, exactly as before the scheduler existed. Chaos tests that
    /// pin per-request fault ordinals use this.
    pub fn no_coalescing(mut self) -> Self {
        self.coalesce.enabled = false;
        self
    }

    /// Installs a per-query trace sink. Every resolved query then emits
    /// one [`TraceEvent`] (enqueue/dequeue/coalesce/solve/reply
    /// timestamps, work counters, coalesced-batch membership) to `sink`
    /// from the worker that resolved it. Default: none — the workers read
    /// no extra clocks or counters, so tracing is zero-cost when off.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Spawns one worker pool per registered graph and starts the
    /// service. Every shard's workers solve on the graph and hierarchy
    /// as registered.
    ///
    /// Fails with [`ServiceError::GraphEvicted`] when a graph was
    /// evicted from `registry` before the service was built.
    pub fn build_registry(self, registry: GraphRegistry) -> Result<QueryService, ServiceError> {
        let registry = Arc::new(registry);
        let worker_count = self.workers.unwrap_or_else(mmt_platform::available_threads);
        let metrics = Arc::new(ServiceMetrics::default());
        let abort = Arc::new(AtomicBool::new(false));
        let trace = self.trace.map(|sink| {
            Arc::new(TraceShared {
                sink,
                epoch: Instant::now(),
                next_batch: AtomicU64::new(0),
            })
        });
        let mut shards = Vec::with_capacity(registry.len());
        for id in registry.ids() {
            let graph = registry.graph(id)?;
            let ch = registry.hierarchy(id)?;
            let stats = Arc::new(GraphStats {
                name: registry.name(id).map_err(ServiceError::Input)?.to_string(),
                served: Counter::new(),
                shed: Counter::new(),
                resident: registry.resident_gauge(id).map_err(ServiceError::Input)?,
            });
            metrics.graphs.lock().push(Arc::clone(&stats));
            let queue = Arc::new(ShedQueue::with_depth_gauge(
                self.queue_capacity,
                Arc::clone(&metrics.queue_depth),
            ));
            let distances = DistancePool::new();
            let evicted = Arc::new(AtomicBool::new(false));
            let workers = (0..worker_count)
                .map(|i| {
                    let shared = WorkerShared {
                        graph: Arc::clone(&graph),
                        ch: Arc::clone(&ch),
                        queue: Arc::clone(&queue),
                        metrics: Arc::clone(&metrics),
                        stats: Arc::clone(&stats),
                        distances: distances.clone(),
                        faults: self.fault_plan.clone(),
                        evicted: Arc::clone(&evicted),
                        coalesce: self.coalesce,
                        trace: trace.clone(),
                    };
                    std::thread::Builder::new()
                        .name(format!("mmt-query-{id}-{i}"))
                        .spawn(move || worker_thread(&shared))
                        .expect("spawn service worker")
                })
                .collect();
            shards.push(Shard {
                queue,
                workers: Mutex::new(workers),
                graph_n: graph.n(),
                distances,
                stats,
                evicted,
            });
        }
        Ok(QueryService {
            registry,
            shards,
            metrics,
            abort,
            queue_capacity: self.queue_capacity,
            default_deadline: self.default_deadline,
            worker_count,
            shed_policy: self.shed_policy,
            memory_limit: self.memory_limit,
            faults: self.fault_plan,
            coalesce: self.coalesce,
            next_query: AtomicU64::new(0),
        })
    }
}

/// One graph's serving lane: a bounded queue and a worker pool. Closed
/// independently of the others on eviction.
struct Shard {
    queue: Arc<ShedQueue<Request>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    graph_n: usize,
    distances: DistancePool,
    stats: Arc<GraphStats>,
    /// Shared with every worker: a coalescing worker checks it after
    /// gathering so members dequeued across an eviction resolve to
    /// [`ServiceError::GraphEvicted`], not a stale answer.
    evicted: Arc<AtomicBool>,
}

/// The running service. Dropping it drains outstanding queries and joins
/// every shard's workers (equivalent to
/// [`shutdown(Drain)`](QueryService::shutdown)).
pub struct QueryService {
    registry: Arc<GraphRegistry>,
    shards: Vec<Shard>,
    metrics: Arc<ServiceMetrics>,
    abort: Arc<AtomicBool>,
    queue_capacity: usize,
    default_deadline: Option<Duration>,
    worker_count: usize,
    shed_policy: ShedPolicy,
    memory_limit: Option<usize>,
    faults: Option<Arc<FaultPlan>>,
    coalesce: CoalesceSettings,
    next_query: AtomicU64,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("graphs", &self.shards.len())
            .field("workers_per_shard", &self.worker_count)
            .field("queue_capacity", &self.queue_capacity)
            .field("default_deadline", &self.default_deadline)
            .field("shed_policy", &self.shed_policy)
            .field("memory_limit", &self.memory_limit)
            .finish_non_exhaustive()
    }
}

impl QueryService {
    /// Starts configuring a service; finish with
    /// [`build_registry`](QueryServiceBuilder::build_registry).
    pub fn builder() -> QueryServiceBuilder {
        QueryServiceBuilder::default()
    }

    /// Enqueues a full SSSP query, blocking while the shard's queue is
    /// full. Takes anything convertible into a [`QueryRequest`] — a bare
    /// source routes to the first registered graph. A request with a
    /// target set is refused ([`InputError::UnexpectedTarget`]); use
    /// [`submit_p2p`](Self::submit_p2p).
    pub fn submit(&self, request: impl Into<QueryRequest>) -> Result<QueryHandle, ServiceError> {
        self.submit_full(request.into(), /*blocking=*/ true)
    }

    /// As [`submit`](Self::submit) without blocking: a full shard queue
    /// is reported as [`ServiceError::Overloaded`].
    pub fn try_submit(
        &self,
        request: impl Into<QueryRequest>,
    ) -> Result<QueryHandle, ServiceError> {
        self.submit_full(request.into(), /*blocking=*/ false)
    }

    /// Enqueues a point-to-point query (early-terminating), blocking
    /// while the shard's queue is full. The request must carry a target
    /// ([`QueryRequest::target`]); one without is refused
    /// ([`InputError::MissingTarget`]).
    pub fn submit_p2p(
        &self,
        request: impl Into<QueryRequest>,
    ) -> Result<TargetHandle, ServiceError> {
        self.submit_targeted(request.into(), /*blocking=*/ true)
    }

    /// As [`submit_p2p`](Self::submit_p2p) without blocking.
    pub fn try_submit_p2p(
        &self,
        request: impl Into<QueryRequest>,
    ) -> Result<TargetHandle, ServiceError> {
        self.submit_targeted(request.into(), /*blocking=*/ false)
    }

    /// Enqueues one full SSSP query per source as a single batch, blocking
    /// while the shard's queue is full. Takes anything convertible into a
    /// [`BatchRequest`] — a bare source slice routes to the first
    /// registered graph. The whole batch shares one cancellation token
    /// (cancelling the handle cancels every unanswered member) and one
    /// completion signal; answers come back as pooled buffers, so a
    /// steady stream of batches stops allocating result vectors once the
    /// shard's pool is warm.
    ///
    /// Any out-of-range source rejects the whole batch up front — nothing
    /// is enqueued.
    pub fn submit_batch(
        &self,
        request: impl Into<BatchRequest>,
    ) -> Result<BatchHandle, ServiceError> {
        self.submit_batch_inner(request.into())
    }

    /// The registry this service serves from. Resident-bytes queries go
    /// through here; eviction goes through
    /// [`evict_graph`](Self::evict_graph).
    pub fn registry(&self) -> &Arc<GraphRegistry> {
        &self.registry
    }

    /// Closes one graph's shard and evicts the graph from the registry.
    ///
    /// Admission for the graph stops immediately; its queued requests
    /// resolve to [`ServiceError::GraphEvicted`]; its workers are joined;
    /// then the registry drops the graph's data and subtracts its
    /// resident bytes. In-flight solves hold graph and hierarchy `Arc`s
    /// and finish normally — eviction is refcounted, never a
    /// use-after-free. Other shards are untouched.
    ///
    /// Returns `Ok(true)` when this call performed the eviction,
    /// `Ok(false)` when the graph was already evicted.
    pub fn evict_graph(&self, id: GraphId) -> Result<bool, ServiceError> {
        let shard = self
            .shards
            .get(id.index())
            .ok_or(ServiceError::Input(InputError::UnknownGraph { graph: id }))?;
        if shard.evicted.swap(true, Ordering::AcqRel) {
            return Ok(false);
        }
        shard.queue.close();
        // Queued-but-unserved requests resolve typed; whatever a worker
        // already popped is in flight and finishes normally.
        for req in shard.queue.drain_now() {
            resolve_request(req, ServiceError::GraphEvicted, &self.metrics);
        }
        let workers: Vec<_> = shard.workers.lock().drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
        // Zero-worker shards (and rare races with worker exit) can leave
        // stragglers behind the join; sweep them too.
        for req in shard.queue.drain_now() {
            resolve_request(req, ServiceError::GraphEvicted, &self.metrics);
        }
        self.registry.evict(id);
        Ok(true)
    }

    /// Result-distance buffers the service has ever allocated, summed
    /// over every shard's pool. Flat across a window of batches ⇒ that
    /// window served every answer from the pools.
    pub fn distance_buffers_created(&self) -> usize {
        self.shards.iter().map(|s| s.distances.created()).sum()
    }

    /// Live metrics: served/rejected counters, queue-depth and inflight
    /// gauges, latency and queue-wait histograms, per-graph sections.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Number of worker threads per shard (per registered graph).
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Each shard's bounded queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The deadline applied to requests that do not carry their own.
    pub fn default_deadline(&self) -> Option<Duration> {
        self.default_deadline
    }

    /// The admission-time resident-bytes cap, if one is configured.
    pub fn memory_limit(&self) -> Option<usize> {
        self.memory_limit
    }

    /// Stops the service. Idempotent; safe to call from any thread.
    ///
    /// [`ShutdownMode::Drain`] answers everything already admitted, then
    /// joins the workers. [`ShutdownMode::Abort`] additionally flips the
    /// service-wide abort flag that every request token observes, so
    /// queued queries are discarded and in-flight solves stop at their
    /// next bucket-expansion boundary; abandoned handles resolve to
    /// [`ServiceError::ShutDown`].
    pub fn shutdown(&self, mode: ShutdownMode) {
        if mode == ShutdownMode::Abort {
            self.abort.store(true, Ordering::Release);
        }
        // Close every shard's admission first so all pools drain
        // concurrently, then join shard by shard.
        for shard in &self.shards {
            shard.queue.close();
        }
        for shard in &self.shards {
            let workers: Vec<_> = shard.workers.lock().drain(..).collect();
            for w in workers {
                let _ = w.join();
            }
            // Zero-worker shards (and aborted ones racing their workers'
            // exit) may leave requests queued after the join; discard them
            // so their handles resolve to ShutDown promptly rather than
            // waiting for the queue Arc to die with the last clone.
            drop(shard.queue.drain_now());
        }
    }

    /// The overload policy applied at enqueue when a shard's queue is
    /// full.
    pub fn shed_policy(&self) -> ShedPolicy {
        self.shed_policy
    }

    /// The coalescing wait budget, or `None` when coalescing is disabled
    /// ([`QueryServiceBuilder::no_coalescing`]).
    pub fn coalesce_budget(&self) -> Option<Duration> {
        self.coalesce.enabled.then_some(self.coalesce.budget)
    }

    /// The most queries one coalesced batch may carry.
    pub fn coalesce_batch_cap(&self) -> usize {
        self.coalesce.cap
    }

    /// Notes a terminal admission failure and hands the error back.
    fn reject(&self, err: ServiceError) -> ServiceError {
        self.metrics.note_failure(&err);
        err
    }

    /// Routes a typed graph id to its shard, refusing unknown and
    /// evicted graphs.
    fn route(&self, id: GraphId) -> Result<&Shard, ServiceError> {
        let Some(shard) = self.shards.get(id.index()) else {
            return Err(self.reject(ServiceError::Input(InputError::UnknownGraph { graph: id })));
        };
        if shard.evicted.load(Ordering::Acquire) {
            return Err(self.reject(ServiceError::GraphEvicted));
        }
        Ok(shard)
    }

    /// The memory-pressure admission check: refuses work while the
    /// registry's resident bytes exceed the configured limit.
    fn check_memory(&self) -> Result<(), ServiceError> {
        if let Some(limit) = self.memory_limit {
            let resident = self.registry.resident_bytes();
            if resident > limit {
                return Err(self.reject(ServiceError::MemoryPressure { resident, limit }));
            }
        }
        Ok(())
    }

    fn next_query_id(&self) -> QueryId {
        QueryId::new(self.next_query.fetch_add(1, Ordering::Relaxed))
    }

    fn submit_full(
        &self,
        request: QueryRequest,
        blocking: bool,
    ) -> Result<QueryHandle, ServiceError> {
        let shard = self.route(request.graph)?;
        if let Some(target) = request.target {
            return Err(self.reject(ServiceError::Input(InputError::UnexpectedTarget { target })));
        }
        self.check_vertex(shard, request.source, /*is_source=*/ true)?;
        self.check_memory()?;
        let token = self.make_token(request.deadline);
        let id = self.next_query_id();
        let (reply_tx, reply_rx) = bounded(1);
        self.enqueue(
            shard,
            Request {
                kind: RequestKind::Full {
                    source: request.source,
                    reply: reply_tx,
                },
                token: token.clone(),
                enqueued: Instant::now(),
                id,
            },
            blocking,
        )?;
        Ok(QueryHandle {
            reply: Some(reply_rx),
            token,
            id,
            faults: self.faults.clone(),
        })
    }

    fn submit_targeted(
        &self,
        request: QueryRequest,
        blocking: bool,
    ) -> Result<TargetHandle, ServiceError> {
        let shard = self.route(request.graph)?;
        let Some(target) = request.target else {
            return Err(self.reject(ServiceError::Input(InputError::MissingTarget)));
        };
        self.check_vertex(shard, request.source, /*is_source=*/ true)?;
        self.check_vertex(shard, target, /*is_source=*/ false)?;
        self.check_memory()?;
        let token = self.make_token(request.deadline);
        let id = self.next_query_id();
        let (reply_tx, reply_rx) = bounded(1);
        self.enqueue(
            shard,
            Request {
                kind: RequestKind::Target {
                    source: request.source,
                    target,
                    algo: request.algo,
                    reply: reply_tx,
                },
                token: token.clone(),
                enqueued: Instant::now(),
                id,
            },
            blocking,
        )?;
        Ok(TargetHandle {
            reply: Some(reply_rx),
            token,
            id,
            faults: self.faults.clone(),
        })
    }

    fn submit_batch_inner(&self, request: BatchRequest) -> Result<BatchHandle, ServiceError> {
        let shard = self.route(request.graph)?;
        for &s in &request.sources {
            self.check_vertex(shard, s, /*is_source=*/ true)?;
        }
        self.check_memory()?;
        let token = self.make_token(request.deadline);
        let (done_tx, done_rx) = bounded(1);
        let collector = Arc::new(BatchCollector {
            slots: Mutex::new((0..request.sources.len()).map(|_| None).collect()),
            remaining: AtomicUsize::new(request.sources.len()),
            done: done_tx,
            metrics: Arc::clone(&self.metrics),
            stats: Arc::clone(&shard.stats),
        });
        if request.sources.is_empty() {
            let _ = collector.done.send(());
        }
        // Member metrics are recorded exclusively by the collector, so an
        // enqueue failure just drops the member guard — the slot resolves
        // to ShutDown and is counted exactly once.
        let id = self.next_query_id();
        for (slot, &source) in request.sources.iter().enumerate() {
            let member = BatchMember::new(Arc::clone(&collector), slot);
            let queued = Request {
                kind: RequestKind::Batch { source, member },
                token: token.clone(),
                enqueued: Instant::now(),
                id,
            };
            let expired = |r: &Request| r.token.is_cancelled();
            let evictable: Option<&dyn Fn(&Request) -> bool> = match self.shed_policy {
                ShedPolicy::RejectNewest => None,
                ShedPolicy::RejectOldestExpired => Some(&expired),
            };
            match shard.queue.push(queued, /*block=*/ true, evictable) {
                Ok(shed) => self.resolve_shed(shard, shed),
                // A blocking push only fails once the queue has closed;
                // dropping the request fires the member's ShutDown guard.
                Err(PushRejected::Closed(queued)) | Err(PushRejected::Full(queued)) => drop(queued),
            }
        }
        Ok(BatchHandle {
            done: Some(done_rx),
            collector,
            token,
            id,
            faults: self.faults.clone(),
        })
    }

    fn check_vertex(
        &self,
        shard: &Shard,
        v: VertexId,
        is_source: bool,
    ) -> Result<(), ServiceError> {
        if (v as usize) < shard.graph_n {
            return Ok(());
        }
        let err = ServiceError::Input(if is_source {
            InputError::SourceOutOfRange {
                source: v,
                n: shard.graph_n,
            }
        } else {
            InputError::TargetOutOfRange {
                target: v,
                n: shard.graph_n,
            }
        });
        Err(self.reject(err))
    }

    fn make_token(&self, deadline: Option<Duration>) -> CancelToken {
        let token = match deadline.or(self.default_deadline) {
            Some(d) => CancelToken::with_timeout(d),
            None => CancelToken::new(),
        };
        token.linked_to(Arc::clone(&self.abort))
    }

    fn enqueue(&self, shard: &Shard, request: Request, blocking: bool) -> Result<(), ServiceError> {
        let expired = |r: &Request| r.token.is_cancelled();
        let evictable: Option<&dyn Fn(&Request) -> bool> = match self.shed_policy {
            ShedPolicy::RejectNewest => None,
            ShedPolicy::RejectOldestExpired => Some(&expired),
        };
        match shard.queue.push(request, blocking, evictable) {
            Ok(shed) => {
                self.resolve_shed(shard, shed);
                Ok(())
            }
            Err(PushRejected::Full(_)) => Err(self.reject(ServiceError::Overloaded {
                capacity: self.queue_capacity,
            })),
            Err(PushRejected::Closed(_)) => Err(self.reject(ServiceError::ShutDown)),
        }
    }

    /// Resolves requests evicted by the shedding policy: each fails loudly
    /// with [`ServiceError::Shed`] — never its (already-expired) token
    /// error, so the shed counter alone accounts for every eviction.
    fn resolve_shed(&self, shard: &Shard, shed: Vec<Request>) {
        for victim in shed {
            shard.stats.shed.bump();
            resolve_request(victim, ServiceError::Shed, &self.metrics);
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown(ShutdownMode::Drain);
    }
}

fn token_failure(token: &CancelToken) -> Option<ServiceError> {
    if token.linked_flag_set() {
        Some(ServiceError::ShutDown)
    } else if token.explicitly_cancelled() {
        Some(ServiceError::Cancelled)
    } else if token.deadline_expired() {
        Some(ServiceError::DeadlineExceeded)
    } else {
        None
    }
}

/// Everything one worker needs; cloned per worker at build time and reused
/// across respawns, so a restarted worker rejoins the same shard's queue,
/// metrics, and buffer pool.
struct WorkerShared {
    graph: Arc<CsrGraph>,
    ch: Arc<ComponentHierarchy>,
    queue: Arc<ShedQueue<Request>>,
    metrics: Arc<ServiceMetrics>,
    stats: Arc<GraphStats>,
    distances: DistancePool,
    faults: Option<Arc<FaultPlan>>,
    /// The shard's eviction flag (see [`Shard::evicted`]).
    evicted: Arc<AtomicBool>,
    coalesce: CoalesceSettings,
    trace: Option<Arc<TraceShared>>,
}

/// The service-wide trace state: one sink, one epoch all timestamps are
/// relative to, and the coalesced-batch id allocator.
struct TraceShared {
    sink: Arc<dyn TraceSink>,
    epoch: Instant,
    next_batch: AtomicU64,
}

impl TraceShared {
    fn us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }
}

/// The label a trace event reports for a resolved query.
fn outcome_label<T>(result: &Result<T, ServiceError>) -> &'static str {
    result.as_ref().map_or_else(error_label, |_| "ok")
}

/// The label a trace event reports for a typed rejection.
fn error_label(err: &ServiceError) -> &'static str {
    match err {
        ServiceError::Overloaded { .. } => "overloaded",
        ServiceError::DeadlineExceeded => "deadline",
        ServiceError::ShutDown => "shutdown",
        ServiceError::Cancelled => "cancelled",
        ServiceError::WorkerLost => "worker-lost",
        ServiceError::Shed => "shed",
        ServiceError::GraphEvicted => "evicted",
        ServiceError::MemoryPressure { .. } => "memory",
        ServiceError::Input(_) => "input",
    }
}

/// How one `worker_loop` incarnation ended.
enum WorkerExit {
    /// The queue closed and drained; the shard is shutting down.
    Drained,
    /// A panic was caught mid-request; the in-flight request has already
    /// been resolved to [`ServiceError::WorkerLost`].
    Poisoned,
}

/// The worker supervisor: runs [`worker_loop`] incarnations until the
/// queue drains, respawning (in-thread, with a fresh solver and instance —
/// per-query state a panic may have corrupted) after every caught panic.
/// The pool therefore returns to full strength without growing new OS
/// threads, and a panic storm cannot deadlock the bounded queue. Each
/// incarnation runs on one lane (the service's parallelism is across
/// queries and shards): a Δ-early scratch gets one bin lane and a
/// coalesced batch solves its members in turn, forking nothing.
fn worker_thread(shared: &WorkerShared) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| {
            mmt_platform::with_pool(1, || worker_loop(shared))
        })) {
            Ok(WorkerExit::Drained) => break,
            Ok(WorkerExit::Poisoned) | Err(_) => shared.metrics.workers_restarted.bump(),
        }
    }
}

/// Resolves `req` with `err`: counts it (batch members count through their
/// collector) and delivers the typed error to the waiting handle.
fn resolve_request(req: Request, err: ServiceError, metrics: &ServiceMetrics) {
    match req.kind {
        RequestKind::Full { reply, .. } => {
            metrics.note_failure(&err);
            drop(reply.send(Err(err)));
        }
        RequestKind::Target { reply, .. } => {
            metrics.note_failure(&err);
            drop(reply.send(Err(err)));
        }
        RequestKind::Batch { member, .. } => member.fulfil(Err(err)),
    }
}

/// One `Option` branch when no plan is installed — the production cost of
/// the whole injection apparatus.
#[inline]
fn fire_fault(plan: &Option<Arc<FaultPlan>>, site: FaultSite) -> FaultEffect {
    match plan {
        Some(plan) => plan.fire(site),
        None => FaultEffect::None,
    }
}

fn worker_loop(shared: &WorkerShared) -> WorkerExit {
    let metrics: &ServiceMetrics = &shared.metrics;
    // Per-query work counters exist only while a trace sink is installed;
    // every other configuration never allocates or reads them.
    let counters = shared.trace.as_ref().map(|_| EventCounters::new());
    let solver = ThorupSolver::new(&shared.graph, &shared.ch).with_config(ThorupConfig::serial());
    let solver = match counters.as_ref() {
        Some(c) => solver.with_counters(c),
        None => solver,
    };
    // The coalescing scheduler amortises gathered members through pooled
    // batch instances; one BatchSolver per worker incarnation keeps those
    // pools warm across batches.
    let batcher = BatchSolver::new(&solver);
    let inst = ThorupInstance::new(&shared.ch);
    // Lazily-built per-worker state for the non-default P2P solvers; a
    // worker that never sees a Bidirectional/DeltaEarly request pays
    // nothing for them.
    let mut p2p = P2pState::default();
    while let Some(req) = shared.queue.pop() {
        let dequeued = Instant::now();
        metrics
            .queue_wait_us
            .record(dequeued.saturating_duration_since(req.enqueued).as_micros() as u64);
        // The dequeue fault site fires while we hold the request, so a
        // panic here is indistinguishable from one in the bookkeeping
        // between dequeue and solve: the request resolves to WorkerLost.
        // A DropReply scheduled here is ignored — the drop semantic is
        // defined at the Reply and ClientWait sites only.
        if catch_unwind(AssertUnwindSafe(|| {
            let _ = fire_fault(&shared.faults, FaultSite::Dequeue);
        }))
        .is_err()
        {
            resolve_request(req, ServiceError::WorkerLost, metrics);
            return WorkerExit::Poisoned;
        }
        // Deadline/cancellation/shutdown enforcement at dequeue: expired
        // work is discarded without touching the solver. Batch-member
        // metrics are the collector's job — the others are recorded here.
        if let Some(err) = token_failure(&req.token) {
            resolve_request(req, err, metrics);
            continue;
        }
        // The coalescing scheduler: a dequeued full-SSSP query opens a
        // batch that gathers queued full-SSSP queries under a
        // deadline-clamped window, then solves them in one BatchSolver run.
        let exit = if shared.coalesce.enabled && matches!(req.kind, RequestKind::Full { .. }) {
            serve_coalesced(req, dequeued, &batcher, counters.as_ref(), shared)
        } else {
            metrics.inflight.bump();
            serve_one(
                req,
                dequeued,
                &solver,
                &inst,
                &mut p2p,
                shared,
                counters.as_ref(),
            )
        };
        if let Some(exit) = exit {
            return exit;
        }
    }
    WorkerExit::Drained
}

/// One gathered member of a forming coalesced batch, with its reply
/// capability held OUTSIDE every `catch_unwind` so each slot resolves
/// exactly once no matter where a panic lands.
struct CoalesceMember {
    source: VertexId,
    reply: Sender<Result<Vec<Dist>, ServiceError>>,
    token: CancelToken,
    enqueued: Instant,
    dequeued: Instant,
    /// When the coalescing worker gathered this member; `None` for the
    /// batch's opener (which was dequeued normally).
    gathered: Option<Instant>,
    id: QueryId,
}

impl CoalesceMember {
    /// Destructures a queued full-SSSP request; the caller guarantees the
    /// request kind (the gather predicate admits nothing else).
    fn from_request(req: Request, dequeued: Instant, gathered: Option<Instant>) -> Self {
        let Request {
            kind,
            token,
            enqueued,
            id,
            ..
        } = req;
        let RequestKind::Full { source, reply } = kind else {
            unreachable!("coalesce gather admits only full requests");
        };
        Self {
            source,
            reply,
            token,
            enqueued,
            dequeued,
            gathered,
            id,
        }
    }

    /// Resolves this member with a typed rejection (counted) and traces
    /// it as never having reached the solve stage.
    fn reject(self, err: ServiceError, shared: &WorkerShared) {
        shared.metrics.note_failure(&err);
        // Trace before sending so the record exists by the time the
        // client's `wait` returns.
        emit_trace(
            shared,
            self.id,
            "full",
            self.source,
            self.enqueued,
            self.dequeued,
            self.gathered,
            None,
            (0, 0),
            None,
            1,
            error_label(&err),
        );
        let _ = self.reply.send(Err(err));
    }
}

/// Batch-total (relaxations, arcs_scanned) charged since `before`.
fn work_delta(before: Option<CountersSnapshot>, counters: Option<&EventCounters>) -> (u64, u64) {
    match (before, counters) {
        (Some(b), Some(c)) => {
            let after = c.snapshot();
            (
                after.relaxations.saturating_sub(b.relaxations),
                after.arcs_scanned.saturating_sub(b.arcs_scanned),
            )
        }
        _ => (0, 0),
    }
}

/// Records one resolved query's lifecycle with the installed trace sink;
/// free (one `Option` branch) when tracing is off.
#[allow(clippy::too_many_arguments)]
fn emit_trace(
    shared: &WorkerShared,
    id: QueryId,
    kind: &str,
    source: VertexId,
    enqueued: Instant,
    dequeued: Instant,
    gathered: Option<Instant>,
    solve_started: Option<Instant>,
    work: (u64, u64),
    batch: Option<u64>,
    batch_size: u32,
    outcome: &str,
) {
    let Some(tr) = shared.trace.as_deref() else {
        return;
    };
    let event = TraceEvent {
        query: id.to_string(),
        graph: shared.stats.name.clone(),
        kind: kind.to_string(),
        source,
        enqueue_us: tr.us(enqueued),
        dequeue_us: tr.us(dequeued),
        coalesce_us: gathered.map(|g| tr.us(g)),
        solve_us: solve_started.map(|s| tr.us(s)),
        reply_us: tr.us(Instant::now()),
        batch,
        batch_size,
        relaxations: work.0,
        arcs_scanned: work.1,
        outcome: outcome.to_string(),
    };
    tr.sink.record(&event);
}

/// The coalescing scheduler's serve path: `opener` (a dequeued, still-live
/// full-SSSP request) opens a batch; matching queued requests are gathered
/// up to the batch cap under a time window that never extends past the
/// earliest member deadline; the whole batch solves in one
/// [`BatchSolver`] run and every member's reply slot resolves exactly
/// once.
///
/// Fault-site semantics on this path: `Coalesce` fires once per formation
/// (after the opener is held, before gathering), `Solve` fires once per
/// batch, and `Reply` fires once per member in gather order. A panic at
/// `Coalesce` or `Solve` loses exactly the members held at that point
/// (each a typed [`ServiceError::WorkerLost`]); a panic at a member's
/// `Reply` loses that member and the not-yet-replied remainder, never an
/// already-delivered answer.
fn serve_coalesced(
    opener: Request,
    dequeued: Instant,
    batcher: &BatchSolver<'_>,
    counters: Option<&EventCounters>,
    shared: &WorkerShared,
) -> Option<WorkerExit> {
    let metrics: &ServiceMetrics = &shared.metrics;
    let mut members = vec![CoalesceMember::from_request(opener, dequeued, None)];
    // The formation fault site: a stall here holds the worker mid-coalesce
    // (the eviction and deadline chaos tests lean on that determinism); a
    // panic loses exactly the opener. DropReply is ignored here, as at
    // Dequeue.
    if catch_unwind(AssertUnwindSafe(|| {
        let _ = fire_fault(&shared.faults, FaultSite::Coalesce);
    }))
    .is_err()
    {
        for m in members {
            metrics.note_failure(&ServiceError::WorkerLost);
            let _ = m.reply.send(Err(ServiceError::WorkerLost));
        }
        return Some(WorkerExit::Poisoned);
    }
    // Gather under the window. With a zero budget the window is already
    // closed and only requests *already queued* are taken — coalescing
    // then costs no latency and batches form exactly under backlog. The
    // window is clamped to every member's deadline as it joins, so the
    // scheduler never waits past the earliest deadline in the batch.
    let mut window_end = Instant::now() + shared.coalesce.budget;
    if let Some(d) = members[0].token.deadline() {
        window_end = window_end.min(d);
    }
    let pred = |r: &Request| matches!(r.kind, RequestKind::Full { .. });
    while members.len() < shared.coalesce.cap {
        match shared.queue.pop_match_until(&pred, window_end) {
            CoalescePop::Item(req) => {
                let now = Instant::now();
                metrics
                    .queue_wait_us
                    .record(now.saturating_duration_since(req.enqueued).as_micros() as u64);
                if let Some(d) = req.token.deadline() {
                    window_end = window_end.min(d);
                }
                members.push(CoalesceMember::from_request(req, now, Some(now)));
            }
            CoalescePop::Mismatch | CoalescePop::TimedOut | CoalescePop::Closed => break,
        }
    }
    // Members dequeued across an eviction must not be answered from a
    // graph the registry already dropped; the shard queue is closed by
    // then, so everything this worker holds resolves typed.
    if shared.evicted.load(Ordering::Acquire) {
        for m in members {
            m.reject(ServiceError::GraphEvicted, shared);
        }
        return None;
    }
    // A member whose deadline expired (or that was cancelled, or whose
    // service is aborting) while the batch formed is shed loudly — typed,
    // counted, never solved late.
    let mut live = Vec::with_capacity(members.len());
    for m in members {
        match token_failure(&m.token) {
            Some(err) => m.reject(err, shared),
            None => live.push(m),
        }
    }
    let members = live;
    if members.is_empty() {
        return None;
    }
    if members.len() >= 2 {
        metrics.coalesced_batches.bump();
        metrics.coalesced_queries.add(members.len() as u64);
    }
    let batch_size = members.len() as u32;
    let batch_id = match (&shared.trace, members.len() >= 2) {
        (Some(tr), true) => Some(tr.next_batch.fetch_add(1, Ordering::Relaxed)),
        _ => None,
    };
    metrics.inflight.add(members.len() as u64);
    let sources: Vec<VertexId> = members.iter().map(|m| m.source).collect();
    let tokens: Vec<CancelToken> = members.iter().map(|m| m.token.clone()).collect();
    let solve_started = shared.trace.as_ref().map(|_| Instant::now());
    let before = counters.map(EventCounters::snapshot);
    // One Solve fault firing and one catch_unwind for the whole batch: a
    // panic mid-batch-solve loses exactly these members, each typed.
    let solved = catch_unwind(AssertUnwindSafe(|| {
        let _ = fire_fault(&shared.faults, FaultSite::Solve);
        batcher.solve_batch_with_cancel(&sources, &tokens)
    }));
    #[cfg(test)]
    metrics
        .batch_instances
        .fetch_max(batcher.instances_created(), Ordering::Relaxed);
    let Ok(results) = solved else {
        metrics.inflight.sub(members.len() as u64);
        for m in members {
            metrics.note_failure(&ServiceError::WorkerLost);
            let _ = m.reply.send(Err(ServiceError::WorkerLost));
        }
        return Some(WorkerExit::Poisoned);
    };
    let work = work_delta(before, counters);
    // Deliver in gather order. The Reply fault fires once per member;
    // metrics for each member are settled before its reply is sent, and a
    // poisoned worker still resolves every remaining slot before dying.
    let mut pairs: Vec<(CoalesceMember, Option<PooledDistances>)> =
        members.into_iter().zip(results).collect();
    pairs.reverse();
    let mut exit = None;
    while let Some((m, res)) = pairs.pop() {
        if exit.is_some() {
            metrics.note_failure(&ServiceError::WorkerLost);
            metrics.inflight.sub(1);
            let _ = m.reply.send(Err(ServiceError::WorkerLost));
            continue;
        }
        let fired = catch_unwind(AssertUnwindSafe(|| {
            fire_fault(&shared.faults, FaultSite::Reply)
        }));
        let Ok(effect) = fired else {
            metrics.note_failure(&ServiceError::WorkerLost);
            metrics.inflight.sub(1);
            let _ = m.reply.send(Err(ServiceError::WorkerLost));
            exit = Some(WorkerExit::Poisoned);
            continue;
        };
        if effect.drops_reply() {
            metrics.requests_lost.bump();
            metrics.inflight.sub(1);
            drop(m.reply);
            continue;
        }
        let result = match res {
            // Detaching hands the buffer to the client outright — the same
            // one-allocation-per-answer cost as the non-coalesced path.
            Some(pooled) => Ok(pooled.detach()),
            None => Err(token_failure(&m.token).unwrap_or(ServiceError::Cancelled)),
        };
        match &result {
            Ok(_) => {
                metrics.served_full.bump();
                shared.stats.served.bump();
                metrics
                    .latency_us
                    .record(m.enqueued.elapsed().as_micros() as u64);
            }
            Err(e) => metrics.note_failure(e),
        }
        metrics.inflight.sub(1);
        // Trace before sending so the record exists by the time the
        // client's `wait` returns.
        emit_trace(
            shared,
            m.id,
            "full",
            m.source,
            m.enqueued,
            m.dequeued,
            m.gathered,
            solve_started,
            work,
            batch_id,
            batch_size,
            outcome_label(&result),
        );
        let _ = m.reply.send(result);
    }
    exit
}

/// Per-worker solver state for the non-default [`P2pAlgo`] variants, built
/// lazily on first use and reused across requests (the scratches reset in
/// `O(search)`; the pre-split CSR is immutable). One per worker
/// incarnation.
#[derive(Default)]
struct P2pState {
    bidi: Option<BidiScratch>,
    delta: Option<(SplitCsr, DeltaScratch)>,
}

impl P2pState {
    fn bidi(&mut self) -> &mut BidiScratch {
        self.bidi.get_or_insert_with(BidiScratch::new)
    }

    /// The cached pre-split view (adaptive Δ) plus scratch for early-exit
    /// Δ-stepping over `g`.
    fn delta(&mut self, g: &CsrGraph) -> (&SplitCsr, &mut DeltaScratch) {
        let (split, scratch) = self.delta.get_or_insert_with(|| {
            let delta = adaptive_delta(g).min(u32::MAX as u64) as u32;
            let split = SplitCsr::new(g, delta.max(1));
            let scratch = DeltaScratch::new(&split);
            (split, scratch)
        });
        (&*split, scratch)
    }
}

/// Solves one dequeued request and delivers its answer.
///
/// Metrics (including the inflight decrement, which `worker_loop` has
/// already bumped) are settled BEFORE the reply is sent, so a client that
/// has seen its answer also sees a snapshot that accounts for it.
///
/// Each solve runs under `catch_unwind` with the reply capability held
/// OUTSIDE the closure: a panicking solve (injected or real) cannot take
/// the reply channel down with it, so the client sees a typed
/// `WorkerLost`, never a silent disconnect. A `DropReply` effect fired at
/// the reply site does the opposite on purpose: the reply capability is
/// discarded, the client observes a disconnect (surfaced as
/// [`ServiceError::ShutDown`] by the handle), and the service counts the
/// request under `requests_lost`.
///
/// Returns `Some(exit)` when the worker must die (poisoned), `None` to
/// keep serving.
fn serve_one(
    req: Request,
    dequeued: Instant,
    solver: &ThorupSolver<'_>,
    inst: &ThorupInstance,
    p2p: &mut P2pState,
    shared: &WorkerShared,
    counters: Option<&EventCounters>,
) -> Option<WorkerExit> {
    let metrics: &ServiceMetrics = &shared.metrics;
    let ch: &ComponentHierarchy = &shared.ch;
    let Request {
        kind,
        token,
        enqueued,
        id,
        ..
    } = req;
    let solve_started = shared.trace.as_ref().map(|_| Instant::now());
    let before = counters.map(EventCounters::snapshot);
    match kind {
        RequestKind::Full { source, reply } => {
            let solve = catch_unwind(AssertUnwindSafe(|| {
                let _ = fire_fault(&shared.faults, FaultSite::Solve);
                inst.reset(ch);
                let result = if solver.solve_into_with_cancel(inst, source, &token) {
                    Ok(inst.distances())
                } else {
                    Err(token_failure(&token).unwrap_or(ServiceError::Cancelled))
                };
                let effect = fire_fault(&shared.faults, FaultSite::Reply);
                (result, effect)
            }));
            let Ok((result, effect)) = solve else {
                metrics.note_failure(&ServiceError::WorkerLost);
                metrics.inflight.sub(1);
                drop(reply.send(Err(ServiceError::WorkerLost)));
                return Some(WorkerExit::Poisoned);
            };
            if effect.drops_reply() {
                metrics.requests_lost.bump();
                metrics.inflight.sub(1);
                drop(reply);
                return None;
            }
            match &result {
                Ok(_) => {
                    metrics.served_full.bump();
                    shared.stats.served.bump();
                    metrics
                        .latency_us
                        .record(enqueued.elapsed().as_micros() as u64);
                }
                Err(e) => metrics.note_failure(e),
            }
            metrics.inflight.sub(1);
            // Trace before sending so the record exists by the time the
            // client's `wait` returns.
            emit_trace(
                shared,
                id,
                "full",
                source,
                enqueued,
                dequeued,
                None,
                solve_started,
                work_delta(before, counters),
                None,
                1,
                outcome_label(&result),
            );
            let _ = reply.send(result);
        }
        RequestKind::Target {
            source,
            target,
            algo,
            reply,
        } => {
            let solve = catch_unwind(AssertUnwindSafe(|| {
                let _ = fire_fault(&shared.faults, FaultSite::Solve);
                // All three P2P solvers return None iff the token fired
                // mid-solve.
                let answer = match algo {
                    P2pAlgo::Thorup => {
                        inst.reset(ch);
                        solver.solve_target_with_cancel(inst, source, target, &token)
                    }
                    P2pAlgo::Bidirectional => {
                        bidirectional_st(&shared.graph, source, target, p2p.bidi(), Some(&token))
                            .map(|(d, stats)| {
                                if let Some(c) = counters {
                                    c.arcs_scanned.add(stats.arcs_scanned);
                                    c.relaxations.add(stats.arcs_scanned);
                                    c.settled.add(stats.settled);
                                }
                                d
                            })
                    }
                    P2pAlgo::DeltaEarly => {
                        let (split, scratch) = p2p.delta(&shared.graph);
                        #[cfg(test)]
                        metrics
                            .delta_lanes
                            .fetch_max(scratch.lane_count(), Ordering::Relaxed);
                        delta_stepping_st(split, source, target, scratch, counters, Some(&token))
                    }
                };
                let result = match answer {
                    Some(d) => Ok(d),
                    None => Err(token_failure(&token).unwrap_or(ServiceError::Cancelled)),
                };
                let effect = fire_fault(&shared.faults, FaultSite::Reply);
                (result, effect)
            }));
            let Ok((result, effect)) = solve else {
                metrics.note_failure(&ServiceError::WorkerLost);
                metrics.inflight.sub(1);
                drop(reply.send(Err(ServiceError::WorkerLost)));
                return Some(WorkerExit::Poisoned);
            };
            if effect.drops_reply() {
                metrics.requests_lost.bump();
                metrics.inflight.sub(1);
                drop(reply);
                return None;
            }
            match &result {
                Ok(_) => {
                    metrics.served_target.bump();
                    shared.stats.served.bump();
                    metrics
                        .latency_us
                        .record(enqueued.elapsed().as_micros() as u64);
                }
                Err(e) => metrics.note_failure(e),
            }
            metrics.inflight.sub(1);
            emit_trace(
                shared,
                id,
                "target",
                source,
                enqueued,
                dequeued,
                None,
                solve_started,
                work_delta(before, counters),
                None,
                1,
                outcome_label(&result),
            );
            let _ = reply.send(result);
        }
        RequestKind::Batch { source, member } => {
            let solve = catch_unwind(AssertUnwindSafe(|| {
                let _ = fire_fault(&shared.faults, FaultSite::Solve);
                inst.reset(ch);
                let result = if solver.solve_into_with_cancel(inst, source, &token) {
                    let mut buf = shared.distances.acquire();
                    inst.copy_distances_into(&mut buf);
                    Ok(shared.distances.wrap(buf))
                } else {
                    Err(token_failure(&token).unwrap_or(ServiceError::Cancelled))
                };
                let effect = fire_fault(&shared.faults, FaultSite::Reply);
                (result, effect)
            }));
            let Ok((result, effect)) = solve else {
                metrics.inflight.sub(1);
                member.fulfil(Err(ServiceError::WorkerLost));
                return Some(WorkerExit::Poisoned);
            };
            if effect.drops_reply() {
                // A batch member cannot disconnect individually — its slot
                // must resolve for the batch to complete — so a dropped
                // batch reply surfaces as a typed WorkerLost, counted
                // under requests_lost by the collector.
                metrics.inflight.sub(1);
                member.fulfil(Err(ServiceError::WorkerLost));
                return None;
            }
            if result.is_ok() {
                metrics
                    .latency_us
                    .record(enqueued.elapsed().as_micros() as u64);
            }
            metrics.inflight.sub(1);
            emit_trace(
                shared,
                id,
                "batch",
                source,
                enqueued,
                dequeued,
                None,
                solve_started,
                work_delta(before, counters),
                None,
                1,
                outcome_label(&result),
            );
            member.fulfil(result);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::InputError;
    use mmt_ch::{build_serial, ChMode};
    use mmt_graph::gen::shapes;
    use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};

    fn fixture(log_n: u32) -> (Arc<CsrGraph>, Arc<ComponentHierarchy>) {
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, log_n, 6);
        spec.seed = 5;
        let el = spec.generate();
        (
            Arc::new(CsrGraph::from_edge_list(&el)),
            Arc::new(build_serial(&el, ChMode::Collapsed)),
        )
    }

    fn single_registry(g: &CsrGraph, ch: Arc<ComponentHierarchy>) -> GraphRegistry {
        let mut registry = GraphRegistry::new();
        registry.register("default", g, ch).unwrap();
        registry
    }

    fn service(log_n: u32, workers: usize) -> (Arc<CsrGraph>, QueryService) {
        let (g, ch) = fixture(log_n);
        let svc = QueryService::builder()
            .workers(workers)
            .build_registry(single_registry(&g, ch))
            .unwrap();
        (g, svc)
    }

    #[test]
    fn serves_correct_answers() {
        let (g, service) = service(8, 3);
        assert_eq!(service.workers(), 3);
        let handles: Vec<_> = (0..20u32)
            .map(|s| (s, service.submit(s % 64).unwrap()))
            .collect();
        for (i, (s, h)) in handles.into_iter().enumerate() {
            let got = h.wait().unwrap();
            assert_eq!(got, mmt_baselines::dijkstra(&g, s % 64), "request {i}");
        }
        assert_eq!(service.metrics().served_full(), 20);
        let snap = service.metrics().snapshot();
        assert_eq!(snap.served_total(), 20);
        assert_eq!(snap.rejected_total(), 0);
        assert_eq!(snap.latency_us.total(), 20);
        assert_eq!(snap.queue_wait_us.total(), 20);
    }

    #[test]
    fn targeted_queries_served() {
        let (g, service) = service(8, 2);
        let oracle = mmt_baselines::dijkstra(&g, 7);
        let handles: Vec<_> = (0..10u32)
            .map(|t| {
                let h = service
                    .submit_p2p(QueryRequest::new(7).target(t * 13))
                    .unwrap();
                (t * 13, h)
            })
            .collect();
        for (t, h) in handles {
            assert_eq!(h.wait().unwrap(), oracle[t as usize]);
        }
        assert_eq!(service.metrics().served_target(), 10);
    }

    #[test]
    fn every_p2p_algo_serves_the_same_answer() {
        let (g, service) = service(8, 2);
        let oracle = mmt_baselines::dijkstra(&g, 7);
        for algo in [P2pAlgo::Thorup, P2pAlgo::Bidirectional, P2pAlgo::DeltaEarly] {
            let handles: Vec<_> = (0..8u32)
                .map(|t| {
                    let h = service
                        .submit_p2p(QueryRequest::st(7, t * 29).algo(algo))
                        .unwrap();
                    (t * 29, h)
                })
                .collect();
            for (t, h) in handles {
                assert_eq!(h.wait().unwrap(), oracle[t as usize], "{algo:?} t={t}");
            }
        }
        assert_eq!(service.metrics().served_target(), 24);
    }

    #[test]
    fn p2p_algos_handle_s_equals_t_and_unreachable() {
        use mmt_graph::types::INF;
        // A 5-vertex path plus an isolated vertex 5: reachable, s==t, and
        // proven-unreachable answers all flow through the served plane.
        let mut el = shapes::path(5, 3);
        el.n = 6;
        let g = CsrGraph::from_edge_list(&el);
        let ch = Arc::new(build_serial(&el, ChMode::Collapsed));
        let service = QueryService::builder()
            .workers(1)
            .build_registry(single_registry(&g, ch))
            .unwrap();
        for algo in [P2pAlgo::Thorup, P2pAlgo::Bidirectional, P2pAlgo::DeltaEarly] {
            let at = |s, t| {
                service
                    .submit_p2p(QueryRequest::st(s, t).algo(algo))
                    .unwrap()
                    .wait()
                    .unwrap()
            };
            assert_eq!(at(0, 4), 12, "{algo:?}");
            assert_eq!(at(2, 2), 0, "{algo:?} s==t");
            assert_eq!(at(0, 5), INF, "{algo:?} unreachable");
            assert_eq!(at(5, 0), INF, "{algo:?} unreachable reversed");
        }
        assert_eq!(service.metrics().served_target(), 12);
    }

    #[test]
    fn p2p_algo_deadline_already_expired_is_typed() {
        let (_g, service) = service(6, 1);
        for algo in [P2pAlgo::Bidirectional, P2pAlgo::DeltaEarly] {
            let err = service
                .submit_p2p(QueryRequest::st(0, 5).algo(algo).deadline(Duration::ZERO))
                .unwrap()
                .wait()
                .unwrap_err();
            assert!(
                matches!(err, ServiceError::DeadlineExceeded),
                "{algo:?}: {err:?}"
            );
        }
    }

    #[test]
    fn concurrent_clients() {
        let (g, service) = service(8, 4);
        let service = Arc::new(service);
        let oracle = mmt_baselines::dijkstra(&g, 0);
        std::thread::scope(|s| {
            for _ in 0..6 {
                let service = Arc::clone(&service);
                let oracle = &oracle;
                s.spawn(move || {
                    for _ in 0..5 {
                        let d = service.submit(0u32).unwrap().wait().unwrap();
                        assert_eq!(&d, oracle);
                    }
                });
            }
        });
        assert_eq!(service.metrics().served_full(), 30);
    }

    #[test]
    fn drop_joins_cleanly_with_queued_work() {
        let (_g, service) = service(9, 1);
        // Enqueue, keep the handles, drop the service first: drain-mode
        // shutdown answers both before the worker exits.
        let h1 = service.submit(0u32).unwrap();
        let h2 = service.submit(1u32).unwrap();
        drop(service);
        assert!(h1.wait().is_ok());
        assert!(h2.wait().is_ok());
    }

    #[test]
    fn figure_one_answers() {
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = Arc::new(build_serial(&el, ChMode::Collapsed));
        let service = QueryService::builder()
            .workers(2)
            .build_registry(single_registry(&g, ch))
            .unwrap();
        assert_eq!(
            service.submit(0u32).unwrap().wait().unwrap(),
            vec![0, 1, 1, 9, 10, 10]
        );
        assert_eq!(
            service
                .submit_p2p(QueryRequest::new(0).target(4))
                .unwrap()
                .wait()
                .unwrap(),
            10
        );
    }

    #[test]
    fn mismatched_hierarchy_is_a_typed_error() {
        let (g, _) = fixture(6);
        let other = shapes::figure_one();
        let ch = Arc::new(build_serial(&other, ChMode::Collapsed));
        let mut registry = GraphRegistry::new();
        let err = registry.register("default", &g, ch).unwrap_err();
        assert!(matches!(err, InputError::GraphMismatch { .. }));
    }

    #[test]
    fn out_of_range_queries_are_typed_errors() {
        let (g, service) = service(6, 1);
        let n = g.n();
        let bad = n as VertexId;
        assert!(matches!(
            service.submit(bad),
            Err(ServiceError::Input(InputError::SourceOutOfRange { .. }))
        ));
        assert!(matches!(
            service.submit_p2p(QueryRequest::new(0).target(bad)),
            Err(ServiceError::Input(InputError::TargetOutOfRange { .. }))
        ));
        assert_eq!(service.metrics().rejected_input(), 2);
    }

    #[test]
    fn request_shape_errors_are_typed() {
        let (_g, service) = service(6, 1);
        // A full-SSSP submit must not smuggle a target.
        assert!(matches!(
            service.submit(QueryRequest::new(0).target(3)),
            Err(ServiceError::Input(InputError::UnexpectedTarget {
                target: 3
            }))
        ));
        // A point-to-point submit must carry one.
        assert!(matches!(
            service.submit_p2p(QueryRequest::new(0)),
            Err(ServiceError::Input(InputError::MissingTarget))
        ));
        // A graph id the registry never issued is refused, not indexed.
        let ghost = GraphId::from_index(7);
        assert!(matches!(
            service.submit(QueryRequest::on(ghost, 0)),
            Err(ServiceError::Input(InputError::UnknownGraph { graph })) if graph == ghost
        ));
        assert_eq!(service.metrics().rejected_input(), 3);
    }

    #[test]
    fn query_ids_are_unique_and_typed() {
        let (_g, service) = service(6, 2);
        let h1 = service.submit(0u32).unwrap();
        let h2 = service.submit(1u32).unwrap();
        let b = service.submit_batch(&[2u32, 3]).unwrap();
        let mut ids = vec![h1.id(), h2.id(), b.id()];
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 3, "every admitted request gets a fresh id");
        assert_eq!(h1.id().to_string(), "q0");
        assert!(h1.wait().is_ok());
        assert!(h2.wait().is_ok());
        b.wait();
    }

    #[test]
    fn queue_full_rejects_without_blocking() {
        // Zero workers: nothing drains the queue, so admission control is
        // exercised deterministically.
        let (g, ch) = fixture(6);
        let service = QueryService::builder()
            .workers(0)
            .queue_capacity(2)
            .build_registry(single_registry(&g, ch))
            .unwrap();
        let h1 = service.try_submit(0u32).unwrap();
        let h2 = service.try_submit(1u32).unwrap();
        let err = service.try_submit(2u32).unwrap_err();
        assert_eq!(err, ServiceError::Overloaded { capacity: 2 });
        assert_eq!(service.metrics().rejected_overload(), 1);
        assert_eq!(service.metrics().queue_depth(), 2);
        // Dropping the service abandons the queued work; the held handles
        // resolve to ShutDown rather than hanging.
        drop(service);
        assert_eq!(h1.wait().unwrap_err(), ServiceError::ShutDown);
        assert_eq!(h2.wait().unwrap_err(), ServiceError::ShutDown);
    }

    #[test]
    fn expired_deadline_is_enforced_at_dequeue() {
        let (_g, service) = service(8, 1);
        let h = service
            .submit(QueryRequest::new(0).deadline(Duration::ZERO))
            .unwrap();
        assert_eq!(h.wait().unwrap_err(), ServiceError::DeadlineExceeded);
        let ht = service
            .submit_p2p(QueryRequest::new(0).target(5).deadline(Duration::ZERO))
            .unwrap();
        assert_eq!(ht.wait().unwrap_err(), ServiceError::DeadlineExceeded);
        assert_eq!(service.metrics().rejected_deadline(), 2);
        assert_eq!(service.metrics().served_full(), 0);
        // The worker is still healthy afterwards.
        assert!(service.submit(0u32).unwrap().wait().is_ok());
    }

    #[test]
    fn dropped_handle_cancels_query() {
        // One worker and a graph big enough that the solve cannot finish
        // in the instants before the drop lands: whether the cancellation
        // is observed at dequeue or mid-solve, the query must terminate
        // as Cancelled and the worker must move on.
        let (_g, service) = service(13, 1);
        let big = service.submit(0u32).unwrap();
        drop(big); // cancels
        let marker = service.submit(1u32).unwrap();
        assert!(marker.wait().is_ok());
        assert_eq!(service.metrics().cancelled(), 1);
        assert_eq!(service.metrics().served_full(), 1);
    }

    #[test]
    fn explicit_cancel_then_wait_reports_cancelled() {
        let (g, ch) = fixture(7);
        let service = QueryService::builder()
            .workers(1)
            .queue_capacity(8)
            .build_registry(single_registry(&g, ch))
            .unwrap();
        let h = service.submit(0u32).unwrap();
        h.cancel();
        // Either the worker saw the cancellation (Cancelled) or it had
        // already produced the answer (Ok) — both are legal; what must
        // never happen is a hang or a panic.
        match h.wait() {
            Ok(_) | Err(ServiceError::Cancelled) => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn shutdown_abort_abandons_queued_work() {
        let (_g, service) = service(10, 1);
        let handles: Vec<_> = (0..6u32).map(|s| service.submit(s).unwrap()).collect();
        service.shutdown(ShutdownMode::Abort);
        let mut served = 0u64;
        let mut shut_down = 0u64;
        for h in handles {
            match h.wait() {
                Ok(_) => served += 1,
                Err(ServiceError::ShutDown) => shut_down += 1,
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        assert_eq!(served + shut_down, 6);
        assert!(shut_down > 0, "abort must abandon queued work");
        let snap = service.metrics().snapshot();
        assert_eq!(snap.served_total() + snap.rejected_total(), 6);
        // Submission after shutdown is a typed error.
        assert_eq!(service.submit(0u32).unwrap_err(), ServiceError::ShutDown);
        // Idempotent.
        service.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn shutdown_drain_answers_everything() {
        let (_g, service) = service(9, 2);
        let handles: Vec<_> = (0..8u32).map(|s| service.submit(s).unwrap()).collect();
        service.shutdown(ShutdownMode::Drain);
        for h in handles {
            assert!(h.wait().is_ok());
        }
        assert_eq!(service.metrics().served_full(), 8);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let (_g, service) = service(7, 1);
        service.submit(0u32).unwrap().wait().unwrap();
        let json = service.metrics().snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"served_full\":1"));
        assert!(json.contains("\"latency_us\":{\"total\":1"));
        assert!(json.contains("\"graphs\":[{\"name\":\"default\",\"served\":1"));
    }

    #[test]
    fn batch_answers_match_dijkstra_in_order() {
        let (g, service) = service(8, 3);
        let sources: Vec<u32> = (0..12u32).map(|i| i * 11 % 64).collect();
        let results = service.submit_batch(&sources).unwrap().wait();
        assert_eq!(results.len(), sources.len());
        for (i, (s, r)) in sources.iter().zip(&results).enumerate() {
            let got = r.as_ref().unwrap();
            assert_eq!(&got[..], &mmt_baselines::dijkstra(&g, *s)[..], "slot {i}");
        }
        assert_eq!(service.metrics().served_batch(), 12);
        assert_eq!(service.metrics().snapshot().served_total(), 12);
    }

    #[test]
    fn batch_steady_state_reuses_distance_buffers() {
        let (g, service) = service(7, 2);
        let sources: Vec<u32> = (0..8).collect();
        let want: Vec<Vec<Dist>> = sources
            .iter()
            .map(|&s| mmt_baselines::dijkstra(&g, s))
            .collect();
        // Warm-up: the pool grows to at most one buffer per in-flight
        // result (all batch results are held until `wait` returns).
        let rows = service.submit_batch(&sources).unwrap().wait();
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(&r.as_ref().unwrap()[..], &want[i][..]);
        }
        drop(rows); // every buffer returns to the pool
        let warm = service.distance_buffers_created();
        assert!(warm >= 1 && warm <= sources.len());
        for _ in 0..3 {
            let rows = service.submit_batch(&sources).unwrap().wait();
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(&r.as_ref().unwrap()[..], &want[i][..]);
            }
        }
        assert_eq!(
            service.distance_buffers_created(),
            warm,
            "steady-state batches must serve every answer from the pool"
        );
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let (_g, service) = service(6, 1);
        let results = service.submit_batch(Vec::new()).unwrap().wait();
        assert!(results.is_empty());
        assert_eq!(service.metrics().served_batch(), 0);
    }

    #[test]
    fn batch_with_bad_source_is_rejected_whole() {
        let (g, service) = service(6, 1);
        let bad = g.n() as VertexId;
        let err = service.submit_batch(&[0, bad]).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Input(InputError::SourceOutOfRange { .. })
        ));
        assert_eq!(service.metrics().served_batch(), 0);
        assert_eq!(service.metrics().queue_depth(), 0, "nothing enqueued");
    }

    #[test]
    fn batch_expired_deadline_resolves_every_member() {
        let (_g, service) = service(8, 1);
        let handle = service
            .submit_batch(BatchRequest::new([0, 1, 2]).deadline(Duration::ZERO))
            .unwrap();
        let results = handle.wait();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert_eq!(*r.as_ref().unwrap_err(), ServiceError::DeadlineExceeded);
        }
        assert_eq!(service.metrics().rejected_deadline(), 3);
        // The worker is still healthy afterwards.
        assert!(service.submit(0u32).unwrap().wait().is_ok());
    }

    #[test]
    fn batch_abandoned_by_shutdown_never_hangs() {
        let (g, ch) = fixture(7);
        let service = QueryService::builder()
            .workers(0)
            .queue_capacity(16)
            .build_registry(single_registry(&g, ch))
            .unwrap();
        let handle = service.submit_batch(&[0u32, 1, 2, 3]).unwrap();
        // No workers: the queued members are dropped with the service and
        // their slots resolve to ShutDown instead of leaving `wait` stuck.
        drop(service);
        let results = handle.wait();
        assert_eq!(results.len(), 4);
        for r in &results {
            assert_eq!(*r.as_ref().unwrap_err(), ServiceError::ShutDown);
        }
    }

    #[test]
    fn snapshot_json_includes_batch_counter() {
        let (_g, service) = service(6, 1);
        service.submit_batch(&[0u32, 1]).unwrap().wait();
        let json = service.metrics().snapshot().to_json();
        assert!(json.contains("\"served_batch\":2"), "{json}");
    }

    #[test]
    fn wait_timeout_on_stalled_queue() {
        let (g, ch) = fixture(6);
        let service = QueryService::builder()
            .workers(0)
            .build_registry(single_registry(&g, ch))
            .unwrap();
        let h = service.try_submit(0u32).unwrap();
        assert_eq!(
            h.wait_timeout(Duration::from_millis(10)).unwrap_err(),
            ServiceError::DeadlineExceeded
        );
    }

    /// Keeps injected panics out of the test output while leaving genuine
    /// panics (including assertion failures on other test threads) on the
    /// default hook.
    fn silence_injected_panics() {
        use std::sync::Once;
        static HOOK: Once = Once::new();
        HOOK.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info
                    .payload()
                    .downcast_ref::<mmt_platform::InjectedPanic>()
                    .is_none()
                {
                    previous(info);
                }
            }));
        });
    }

    #[test]
    fn shed_policy_evicts_expired_queued_requests() {
        // Zero workers: the queue fills deterministically. Two requests
        // with already-expired deadlines occupy it; a fresh submission
        // under RejectOldestExpired evicts both.
        let (g, ch) = fixture(6);
        let service = QueryService::builder()
            .workers(0)
            .queue_capacity(2)
            .shed_policy(ShedPolicy::RejectOldestExpired)
            .build_registry(single_registry(&g, ch))
            .unwrap();
        assert_eq!(service.shed_policy(), ShedPolicy::RejectOldestExpired);
        let dead1 = service
            .try_submit(QueryRequest::new(0).deadline(Duration::ZERO))
            .unwrap();
        let dead2 = service
            .try_submit(QueryRequest::new(1).deadline(Duration::ZERO))
            .unwrap();
        let fresh = service.try_submit(2u32).unwrap();
        // The evicted requests fail loudly and typed — never by silence.
        assert_eq!(dead1.wait().unwrap_err(), ServiceError::Shed);
        assert_eq!(dead2.wait().unwrap_err(), ServiceError::Shed);
        assert_eq!(service.metrics().shed(), 2);
        assert_eq!(
            service.metrics().queue_depth(),
            1,
            "depth never exceeds capacity"
        );
        // The shed count is also attributed to the graph that shed it.
        let snap = service.metrics().snapshot();
        assert_eq!(snap.graphs[0].shed, 2);
        drop(fresh);
        drop(service);
    }

    #[test]
    fn shed_policy_with_nothing_evictable_still_rejects_newest() {
        let (g, ch) = fixture(6);
        let service = QueryService::builder()
            .workers(0)
            .queue_capacity(1)
            .shed_policy(ShedPolicy::RejectOldestExpired)
            .build_registry(single_registry(&g, ch))
            .unwrap();
        let _live = service.try_submit(0u32).unwrap();
        // The queued request is healthy, so nothing is evictable and the
        // arriving request is refused exactly as under RejectNewest.
        let err = service.try_submit(1u32).unwrap_err();
        assert_eq!(err, ServiceError::Overloaded { capacity: 1 });
        assert_eq!(service.metrics().shed(), 0);
    }

    #[test]
    fn injected_panic_resolves_worker_lost_and_respawns() {
        silence_injected_panics();
        let (g, ch) = fixture(8);
        let plan = Arc::new(
            FaultPlan::builder()
                .fault_at(FaultSite::Solve, 1, mmt_platform::FaultKind::Panic)
                .build(),
        );
        let service = QueryService::builder()
            .workers(1)
            .fault_plan(Arc::clone(&plan))
            .build_registry(single_registry(&g, ch))
            .unwrap();
        // Query 0 solves cleanly; query 1 panics mid-solve; query 2 proves
        // the respawned worker serves again.
        let h0 = service.submit(0u32).unwrap();
        assert!(h0.wait().is_ok());
        let h1 = service.submit(1u32).unwrap();
        assert_eq!(h1.wait().unwrap_err(), ServiceError::WorkerLost);
        let h2 = service.submit(2u32).unwrap();
        assert_eq!(h2.wait().unwrap(), mmt_baselines::dijkstra(&g, 2));
        assert_eq!(service.metrics().requests_lost(), 1);
        assert_eq!(service.metrics().workers_restarted(), 1);
        assert_eq!(service.metrics().inflight(), 0, "gauge repaired");
        assert_eq!(plan.panics_fired(), 1);
        // Shutdown still joins cleanly after a respawn.
        service.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn snapshot_json_includes_robustness_counters() {
        let (_g, service) = service(6, 1);
        let json = service.metrics().snapshot().to_json();
        for key in [
            "requests_lost",
            "shed",
            "workers_restarted",
            "rejected_evicted",
            "rejected_memory",
        ] {
            assert!(json.contains(&format!("\"{key}\":0")), "{key} in {json}");
        }
    }

    #[test]
    fn multi_graph_routing_and_per_graph_metrics() {
        // Two tenants with different graphs: answers must come from the
        // right one, and the per-graph metrics must attribute each query.
        let (g_a, ch_a) = fixture(7);
        let el_b = shapes::figure_one();
        let g_b = CsrGraph::from_edge_list(&el_b);
        let ch_b = Arc::new(build_serial(&el_b, ChMode::Collapsed));
        let mut registry = GraphRegistry::new();
        let a = registry.register("alpha", &g_a, ch_a).unwrap();
        let b = registry.register("beta", &g_b, ch_b).unwrap();
        let service = QueryService::builder()
            .workers(2)
            .build_registry(registry)
            .unwrap();
        for s in 0..4u32 {
            assert_eq!(
                service
                    .submit(QueryRequest::on(a, s))
                    .unwrap()
                    .wait()
                    .unwrap(),
                mmt_baselines::dijkstra(&g_a, s)
            );
        }
        assert_eq!(
            service
                .submit(QueryRequest::on(b, 0))
                .unwrap()
                .wait()
                .unwrap(),
            vec![0, 1, 1, 9, 10, 10]
        );
        assert_eq!(
            service.submit((b, 0u32)).unwrap().wait().unwrap()[5],
            10,
            "tuple form routes identically"
        );
        let snap = service.metrics().snapshot();
        assert_eq!(snap.graphs.len(), 2);
        assert_eq!(snap.graphs[0].name, "alpha");
        assert_eq!(snap.graphs[0].served, 4);
        assert_eq!(snap.graphs[1].name, "beta");
        assert_eq!(snap.graphs[1].served, 2);
        assert!(snap.graphs[0].resident_bytes > 0);
        assert!(snap.graphs[1].resident_bytes > 0);
        let json = snap.to_json();
        assert!(json.contains("\"graphs\":[{\"name\":\"alpha\""), "{json}");
        assert!(json.contains("\"name\":\"beta\",\"served\":2"), "{json}");
    }

    #[test]
    fn evict_graph_resolves_queued_and_keeps_other_tenants() {
        let (g_a, ch_a) = fixture(6);
        let (g_b, ch_b) = fixture(7);
        let mut registry = GraphRegistry::new();
        let a = registry.register("alpha", &g_a, ch_a).unwrap();
        let b = registry.register("beta", &g_b, ch_b).unwrap();
        // Zero workers: queued work sits deterministically until eviction.
        let service = QueryService::builder()
            .workers(0)
            .queue_capacity(8)
            .build_registry(registry)
            .unwrap();
        let doomed: Vec<_> = (0..3u32)
            .map(|s| service.submit(QueryRequest::on(a, s)).unwrap())
            .collect();
        let resident_before = service.registry().resident_bytes();
        let before_a = service.registry().graph_resident_bytes(a).unwrap();
        assert!(before_a > 0);
        assert!(service.evict_graph(a).unwrap(), "first evict performs");
        assert!(!service.evict_graph(a).unwrap(), "second is a no-op");
        // Every queued request resolved typed — exact accounting, no loss.
        for h in doomed {
            assert_eq!(h.wait().unwrap_err(), ServiceError::GraphEvicted);
        }
        assert_eq!(service.metrics().rejected_evicted(), 3);
        // Admission for the evicted tenant is closed, typed.
        assert_eq!(
            service.submit(QueryRequest::on(a, 0)).unwrap_err(),
            ServiceError::GraphEvicted
        );
        assert_eq!(service.metrics().rejected_evicted(), 4);
        // The evicted tenant's bytes are gone; the survivor's are not.
        assert_eq!(service.registry().graph_resident_bytes(a).unwrap(), 0);
        assert_eq!(
            service.registry().resident_bytes(),
            resident_before - before_a
        );
        // The other tenant still admits work.
        let survivor = service.try_submit(QueryRequest::on(b, 0)).unwrap();
        drop(survivor);
        drop(service);
    }

    #[test]
    fn memory_limit_refuses_admission_under_pressure() {
        let (g, ch) = fixture(6);
        let service = QueryService::builder()
            .workers(1)
            .memory_limit(1) // resident bytes always exceed one byte
            .build_registry(single_registry(&g, ch))
            .unwrap();
        assert_eq!(service.memory_limit(), Some(1));
        let err = service.submit(0u32).unwrap_err();
        assert!(
            matches!(err, ServiceError::MemoryPressure { resident, limit: 1 } if resident > 1),
            "{err:?}"
        );
        assert_eq!(service.metrics().rejected_memory(), 1);
        let json = service.metrics().snapshot().to_json();
        assert!(json.contains("\"rejected_memory\":1"), "{json}");
    }

    #[test]
    fn coalescing_defaults_are_on_with_zero_budget() {
        let (_g, service) = service(6, 1);
        assert_eq!(service.coalesce_budget(), Some(Duration::ZERO));
        assert_eq!(service.coalesce_batch_cap(), 16);
        let (g, ch) = fixture(6);
        let off = QueryService::builder()
            .workers(1)
            .no_coalescing()
            .build_registry(single_registry(&g, ch))
            .unwrap();
        assert_eq!(off.coalesce_budget(), None);
    }

    #[test]
    fn coalescer_groups_queued_queries_into_one_batch_solver_run() {
        // One worker, a generous window, cap 4: the worker dequeues the
        // first query, waits for the other three (they arrive within the
        // window), hits the cap and solves all four in one BatchSolver
        // run — deterministically one 4-member batch.
        let (g, ch) = fixture(8);
        let service = QueryService::builder()
            .workers(1)
            .coalesce_budget(Duration::from_millis(500))
            .coalesce_batch_cap(4)
            .build_registry(single_registry(&g, Arc::clone(&ch)))
            .unwrap();
        let sources = [3u32, 17, 3, 40];
        let handles: Vec<_> = sources
            .iter()
            .map(|&s| service.submit(s).unwrap())
            .collect();
        let answers: Vec<Vec<Dist>> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
        assert_eq!(service.metrics().coalesced_batches(), 1);
        assert_eq!(service.metrics().coalesced_queries(), 4);
        assert_eq!(service.metrics().served_full(), 4);
        // Byte-identical to the non-coalesced path and the Dijkstra oracle.
        let plain = QueryService::builder()
            .workers(1)
            .no_coalescing()
            .build_registry(single_registry(&g, ch))
            .unwrap();
        for (&s, got) in sources.iter().zip(&answers) {
            assert_eq!(got, &mmt_baselines::dijkstra(&g, s));
            assert_eq!(got, &plain.submit(s).unwrap().wait().unwrap());
        }
        assert_eq!(plain.metrics().coalesced_batches(), 0);
    }

    #[test]
    fn workers_solve_on_one_lane() {
        // Whatever the host's thread count, a worker's Δ-early scratch has
        // one bin lane and a coalesced batch of eight solves its members
        // in turn through a single pooled instance. (With the host's
        // budget, two members' solves would overlap and hold two.)
        let (g, ch) = fixture(12);
        let service = QueryService::builder()
            .workers(1)
            .coalesce_budget(Duration::from_millis(500))
            .coalesce_batch_cap(8)
            .build_registry(single_registry(&g, ch))
            .unwrap();
        let oracle = mmt_baselines::dijkstra(&g, 7);
        let st = QueryRequest::st(7, 200).algo(P2pAlgo::DeltaEarly);
        assert_eq!(service.submit_p2p(st).unwrap().wait(), Ok(oracle[200]));
        let handles: Vec<_> = [3u32, 17, 3, 40, 99, 1000, 2048, 4000]
            .iter()
            .map(|&s| service.submit(s).unwrap())
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let m = service.metrics();
        assert_eq!(m.coalesced_queries(), 8);
        assert_eq!(m.delta_lanes.load(Ordering::Relaxed), 1);
        assert_eq!(m.batch_instances.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn coalescer_respects_the_batch_cap() {
        // Cap 2 with four queries waiting: two batches of two, never one
        // of four.
        let (g, service_cfg) = fixture(7);
        let service = QueryService::builder()
            .workers(1)
            .coalesce_budget(Duration::from_millis(500))
            .coalesce_batch_cap(2)
            .build_registry(single_registry(&g, service_cfg))
            .unwrap();
        let handles: Vec<_> = (0..4u32).map(|s| service.submit(s * 9).unwrap()).collect();
        for (i, h) in handles.into_iter().enumerate() {
            let got = h.wait().unwrap();
            assert_eq!(got, mmt_baselines::dijkstra(&g, (i as u32) * 9));
        }
        let m = service.metrics();
        assert_eq!(m.served_full(), 4);
        assert_eq!(m.coalesced_batches(), 2);
        assert_eq!(m.coalesced_queries(), 4);
    }

    #[test]
    fn coalescing_window_never_outlives_a_member_deadline() {
        // A query with a short deadline opens the batch; the window is
        // clamped to that deadline, so the worker stops waiting and the
        // (by then expired) member is shed loudly — typed, counted, and
        // well before the 500 ms budget.
        let (g, ch) = fixture(6);
        let service = QueryService::builder()
            .workers(1)
            .coalesce_budget(Duration::from_millis(500))
            .build_registry(single_registry(&g, ch))
            .unwrap();
        let started = Instant::now();
        let h = service
            .submit(QueryRequest::new(0).deadline(Duration::from_millis(20)))
            .unwrap();
        // No second query ever arrives; the clamped window expires first.
        let got = h.wait();
        assert!(started.elapsed() < Duration::from_millis(400));
        match got {
            // Usual: the worker dequeued promptly, the clamped window ran
            // out, and the gather-time token check shed the member.
            Err(ServiceError::DeadlineExceeded) => {
                assert_eq!(service.metrics().rejected_deadline(), 1);
            }
            // A fast dequeue can still beat the 20 ms deadline and solve
            // legitimately — correct either way, just not a late answer.
            Ok(d) => assert_eq!(d, mmt_baselines::dijkstra(&g, 0)),
            Err(e) => panic!("unexpected rejection {e:?}"),
        }
    }

    #[test]
    fn backlog_coalesces_even_with_zero_budget() {
        // Default configuration (budget zero): pile queries behind one
        // worker and at least one multi-member batch must form, with
        // every answer still exact and individually counted.
        let (g, service) = service(7, 1);
        let sources: Vec<u32> = (0..24).map(|i| (i * 11) % 64).collect();
        let handles: Vec<_> = sources
            .iter()
            .map(|&s| service.submit(s).unwrap())
            .collect();
        for (&s, h) in sources.iter().zip(handles) {
            assert_eq!(h.wait().unwrap(), mmt_baselines::dijkstra(&g, s));
        }
        let m = service.metrics().snapshot();
        assert_eq!(m.served_full, 24);
        assert_eq!(m.latency_us.total(), 24);
        assert_eq!(m.queue_wait_us.total(), 24);
        assert!(
            m.coalesced_batches >= 1,
            "24 queries behind 1 worker must coalesce at least once"
        );
        assert!(m.coalesced_queries >= 2 * m.coalesced_batches);
    }

    #[test]
    fn snapshot_json_carries_coalesce_counters_and_quantiles() {
        let (_g, service) = service(6, 2);
        for s in 0..6u32 {
            service.submit(s).unwrap().wait().unwrap();
        }
        let snap = service.metrics().snapshot();
        let json = snap.to_json();
        assert!(json.contains(&format!("\"coalesced_batches\":{}", snap.coalesced_batches)));
        assert!(json.contains(&format!("\"coalesced_queries\":{}", snap.coalesced_queries)));
        assert!(json.contains("\"latency_quantiles_us\":{\"total\":6,"));
        assert!(json.contains("\"queue_wait_quantiles_us\":{\"total\":6,"));
        let q = snap.latency_quantiles();
        assert_eq!(q.total, 6);
        assert!(q.p50 <= q.p95 && q.p95 <= q.p99);
    }

    #[test]
    fn trace_sink_records_full_lifecycles() {
        use crate::trace::MemoryTraceSink;
        let (g, ch) = fixture(7);
        let sink = Arc::new(MemoryTraceSink::new());
        let service = QueryService::builder()
            .workers(1)
            .coalesce_budget(Duration::from_millis(500))
            .coalesce_batch_cap(2)
            .trace(Arc::clone(&sink) as Arc<dyn TraceSink>)
            .build_registry(single_registry(&g, ch))
            .unwrap();
        let h0 = service.submit(4u32).unwrap();
        let h1 = service.submit(9u32).unwrap();
        assert_eq!(h0.wait().unwrap(), mmt_baselines::dijkstra(&g, 4));
        assert_eq!(h1.wait().unwrap(), mmt_baselines::dijkstra(&g, 9));
        // A p2p query takes the singleton path and must trace too.
        let d = service
            .submit_p2p(QueryRequest::new(4).target(9))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(d, mmt_baselines::dijkstra(&g, 4)[9]);
        let events = sink.events();
        assert_eq!(events.len(), 3);
        let full: Vec<_> = events.iter().filter(|e| e.kind == "full").collect();
        assert_eq!(full.len(), 2);
        // Both full queries rode one coalesced batch of two.
        assert_eq!(full[0].batch, full[1].batch);
        assert!(full[0].batch.is_some());
        assert_eq!(full[0].batch_size, 2);
        for e in &full {
            assert_eq!(e.outcome, "ok");
            assert_eq!(e.graph, "default");
            assert!(e.enqueue_us <= e.dequeue_us);
            assert!(e.dequeue_us <= e.reply_us);
            let solve = e.solve_us.expect("served queries record a solve time");
            assert!(solve <= e.reply_us);
            assert!(e.relaxations > 0, "tracing attaches work counters");
            assert!(e.arcs_scanned > 0);
        }
        // The opener was dequeued, not gathered; its batchmate was.
        assert!(full.iter().any(|e| e.coalesce_us.is_none()));
        assert!(full.iter().any(|e| e.coalesce_us.is_some()));
        let target = events.iter().find(|e| e.kind == "target").unwrap();
        assert_eq!(target.batch, None);
        assert_eq!(target.batch_size, 1);
        assert_eq!(target.query, "q2");
        // JSON lines render one object per event.
        assert_eq!(sink.lines().len(), 3);
        assert!(sink.lines()[0].contains("\"outcome\":\"ok\""));
    }
}
