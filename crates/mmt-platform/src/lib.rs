//! Platform layer for the massively-multithreaded shortest-paths workspace.
//!
//! The paper this workspace reproduces (Crobak, Berry, Madduri, Bader,
//! *Advanced Shortest Paths Algorithms on a Massively-Multithreaded
//! Architecture*, IPDPS 2007) targets the Cray MTA-2: a flat shared-memory
//! machine with hardware support for fine-grained atomics and automatically
//! parallelised loops. This crate provides the commodity-hardware stand-ins
//! for the MTA-2 facilities that the algorithm crates rely on:
//!
//! * [`pool`] — construction of rayon thread pools that emulate "running on
//!   `p` processors", plus sweep helpers used by the scaling benchmarks;
//! * [`atomic`] — CAS-min primitives (`fetch_min` on shared distance and
//!   `mind` arrays is the workhorse of every parallel algorithm here) and an
//!   atomic bitset for settled-vertex tracking;
//! * [`bins`] — contention-free per-thread bucket bins (thread-local
//!   growable bins, reduce-style next-bucket vote, generation-stamped
//!   merge dedup) backing the Δ-, Δ*- and ρ-stepping loop;
//! * [`counters`] — cache-padded event counters used for instrumentation
//!   (relaxation counts, loop-setup counts for the toVisit study);
//! * [`cancel`] — cooperative cancellation tokens (deadlines, dropped
//!   query handles, service shutdown) polled by long-running solves;
//! * [`timing`] — measurement helpers (`Stopwatch`, repeated-run statistics);
//! * [`table`] — plain-text table rendering for the benchmark harness, which
//!   reprints the paper's tables next to measured values;
//! * [`mem`] — byte-accounting helpers used to reproduce the "memory per
//!   instance" column of the paper's Table 2, plus peak-RSS readout for the
//!   hot-path benchmark;
//! * [`scratch`] — reusable scratch memory (per-worker lane buffers,
//!   recycled vector pools, generation-stamped membership arrays) that keeps
//!   the SSSP inner loops allocation-free after warm-up;
//! * [`fault`] — seeded, deterministic fault injection (worker panics,
//!   stalls, allocation pressure) used by the chaos suite to prove the
//!   serving layer degrades gracefully;
//! * [`queue`] — the bounded MPMC request queue with typed admission
//!   control, load shedding, and close-then-drain shutdown;
//! * [`topology`] — CPU topology discovery (sysfs, no hwloc) and worker
//!   pinning plans, the commodity stand-in for the MTA-2's flat memory
//!   being *uniformly* close to every processor.

// The raw `sched_setaffinity` syscall behind the non-default `pin`
// feature is the single `unsafe` block in the workspace's default
// dependency graph; every other build keeps the blanket forbid.
#![cfg_attr(not(feature = "pin"), forbid(unsafe_code))]
#![warn(missing_docs)]

pub mod atomic;
pub mod bins;
pub mod cancel;
pub mod counters;
pub mod fault;
pub mod histogram;
pub mod mem;
pub mod pool;
pub mod queue;
pub mod scratch;
pub mod table;
pub mod timing;
pub mod topology;

pub use atomic::{AtomicBitSet, AtomicMinU32, AtomicMinU64, MinCell};
pub use bins::{BinLane, FrontierBins};
pub use cancel::CancelToken;
pub use counters::{Counter, CountersSnapshot, EventCounters};
pub use fault::{FaultEffect, FaultKind, FaultPlan, FaultSite, InjectedPanic, SeededFaults};
pub use histogram::{AtomicLog2Histogram, Log2Histogram, QuantileSummary};
pub use mem::{MemFootprint, MemoryGauge};
pub use pool::{available_threads, with_pinned_pool, with_pool, PoolSpec};
pub use queue::{CoalescePop, PushRejected, ShedQueue};
pub use scratch::{BufferPool, GenerationStamps, ShardBuffers};
pub use table::Table;
pub use timing::{RunStats, Stopwatch};
pub use topology::{CpuSlot, CpuTopology, PinPolicy};
