//! Differential + metamorphic correctness harness across every SSSP
//! engine in the workspace.
//!
//! The paper's experiments stand on the claim that all the solvers under
//! comparison compute *the same* distances; this crate is that claim made
//! executable. Four layers:
//!
//! * [`engine`] — one [`SsspEngine`] adapter per
//!   solver (serial/atomic Thorup, Δ-stepping, Bellman-Ford, multi-level
//!   buckets, bidirectional) plus the serial Dijkstra oracle, all
//!   answering in the original vertex space of a prepared
//!   [`GraphCase`];
//! * [`runner`] — the [`DifferentialRunner`]:
//!   certificate-checks the oracle, cross-checks reachability against
//!   connected components, then compares every engine entry for entry,
//!   reporting the first divergent `(engine, case, source, vertex, got,
//!   want)`;
//! * [`metamorphic`] — oracle-free invariants (weight scaling, vertex
//!   relabeling, redundant-edge no-op, s/t symmetry, P2P triangle
//!   inequality, P2P == full-SSSP at the target) that catch bugs an
//!   engine might share with the oracle;
//! * [`p2p`] — the point-to-point layer: a truncated-Dijkstra s–t oracle
//!   and a pair sweep (`s == t`, endpoints, unreachable targets) holding
//!   the served `p2p-bidi` / `p2p-delta-early` solvers to it;
//! * [`stress`] — seeded random schedules against the concurrent
//!   [`QueryService`](mmt_thorup::QueryService), asserting every answer
//!   the service completes matches the oracle no matter how submissions,
//!   cancellations and deadlines interleave.
//!
//! The corpus ([`corpus`]) mixes adversarial families (zero-weight chains
//! and cycles, parallel edges, self loops, disconnected forests, near-max
//! weights) with small instances of the paper's `Rand`/`RMAT` × UWD/PWD
//! workloads. Seeds come from `MMT_VERIFY_SEED` so CI runs are
//! reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod corpus;
pub mod engine;
pub mod metamorphic;
pub mod p2p;
pub mod runner;
pub mod stress;

pub use case::GraphCase;
pub use corpus::{adversarial_corpus, full_corpus, paper_corpus, seed_from_env, SEED_ENV};
pub use engine::{
    all_engines, CoalescedServiceEngine, DeltaStarEngine, DijkstraOracle, P2pBidiEngine,
    P2pDeltaEarlyEngine, RhoSteppingEngine, SsspEngine,
};
pub use p2p::{check_p2p_case, truncated_dijkstra};
pub use runner::{DifferentialRunner, RunReport};
pub use stress::{run_service_schedule, ScheduleOutcome, ScheduleSpec};

// Re-exported so harness callers name divergences without a direct
// mmt-baselines dependency.
pub use mmt_baselines::{Divergence, DivergenceKind};
