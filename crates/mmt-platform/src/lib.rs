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
//!   growable bins, reduce-style next-bucket vote, per-lane bucket drain)
//!   backing the Δ-, Δ*- and ρ-stepping loop;
//! * [`team`] — one parallel region per solve: `lanes − 1` threads spawned
//!   once, barrier-separated phases posted by the calling thread;
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
//! * [`scratch`] — reusable scratch memory (per-worker lane buffers and
//!   recycled vector pools) that keeps the SSSP inner loops allocation-free
//!   after warm-up;
//! * [`fault`] — seeded, deterministic fault injection (worker panics,
//!   stalls, allocation pressure) used by the chaos suite to prove the
//!   serving layer degrades gracefully;
//! * [`queue`] — the bounded MPMC request queue with typed admission
//!   control, load shedding, and close-then-drain shutdown.
//!
//! The MTA-2's memory is flat — every word is equally far from every
//! processor — so the paper's algorithms never place threads, and neither
//! do these pools: workers are never pinned to CPUs.

#![forbid(unsafe_code)]
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
pub mod team;
pub mod timing;

pub use atomic::{AtomicBitSet, AtomicMinU64};
pub use bins::{BinLane, FrontierBins};
pub use cancel::CancelToken;
pub use counters::{Counter, CountersSnapshot, EventCounters};
pub use fault::{FaultEffect, FaultKind, FaultPlan, FaultSite, InjectedPanic, SeededFaults};
pub use histogram::{AtomicLog2Histogram, Log2Histogram, QuantileSummary};
pub use mem::{MemFootprint, MemoryGauge};
pub use pool::{available_threads, thread_budget, with_pool};
pub use queue::{CoalescePop, PushRejected, ShedQueue};
pub use scratch::{BufferPool, ShardBuffers};
pub use table::Table;
pub use timing::{RunStats, Stopwatch};
