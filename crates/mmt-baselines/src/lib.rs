//! Baseline SSSP solvers the paper measures Thorup's algorithm against.
//!
//! * [`dijkstra`](mod@dijkstra) — textbook binary-heap Dijkstra with lazy deletion; the
//!   workspace's correctness oracle;
//! * [`mlb`] — a multilevel-bucket (radix-heap) monotone priority queue for
//!   integer keys;
//! * [`goldberg`] — Dijkstra driven by [`mlb`]: our stand-in for the DIMACS
//!   reference solver ("Goldberg's multilevel bucket shortest path
//!   algorithm, which has an expected running time of O(n) on random graphs
//!   with uniform weight distributions") used in the paper's Table 1;
//! * [`delta_stepping`](mod@delta_stepping) — the parallel Meyer–Sanders Δ-stepping of Madduri
//!   et al., the paper's parallel baseline (Tables 5–6, Figure 5);
//! * [`delta_star`] and [`rho_stepping`] — Δ*- and ρ-stepping
//!   (Dong–Gu–Sun–Zhang): Δ*-stepping drains each bucket to a fixpoint over
//!   all arcs, ρ-stepping extracts the ~ρ closest frontier vertices per step
//!   and relaxes all of their arcs. All three are policies over one private
//!   stepping loop on contention-free per-thread frontier bins, generic over
//!   the distance cell (`u64`, or `u32` on certified compact splits);
//! * [`relax_core`] — the unrolled, read-ahead relax inner loop of that
//!   stepping loop;
//! * [`verify`] — an oracle-free certificate checker for SSSP outputs,
//!   reporting failures as structured [`Divergence`] records;
//! * [`bellman_ford`](mod@bellman_ford) — serial + parallel-frontier Bellman–Ford (the
//!   un-bucketed lower baseline);
//! * [`bidirectional`] — exact point-to-point bidirectional Dijkstra (the
//!   s–t oracle for the road-network/transit examples);
//! * [`bfs`](mod@bfs) — parallel level-synchronous BFS (hop distances,
//!   eccentricity).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bellman_ford;
pub mod bfs;
pub mod bidirectional;
pub mod delta_star;
pub mod delta_stepping;
pub mod dijkstra;
pub mod goldberg;
pub mod mlb;
pub mod relax_core;
pub mod rho_stepping;
#[cfg(test)]
mod road_mix;
mod step;
pub mod verify;

pub use bellman_ford::{bellman_ford, bellman_ford_frontier};
pub use bfs::bfs;
pub use bidirectional::{bidirectional_dijkstra, bidirectional_st, BidiScratch, P2pStats};
pub use delta_star::delta_star_presplit;
pub use delta_stepping::{
    adaptive_delta, default_delta, delta_stepping, delta_stepping_presplit, delta_stepping_st,
    DeltaConfig, DeltaScratch,
};
pub use dijkstra::{dijkstra, dijkstra_with_parents};
pub use goldberg::goldberg_sssp;
pub use relax_core::{relax_arcs, RELAX_AHEAD};
pub use rho_stepping::{default_rho, rho_stepping_presplit};
pub use step::{FitsCell, StepScratch};
pub use verify::{verify_sssp, verify_sssp_engine, Divergence, DivergenceKind};
