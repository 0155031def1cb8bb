//! Shared machinery for the benchmark harness: the paper's workload grid,
//! scaled to the host, plus the reference numbers from the paper so every
//! table prints "paper vs measured" side by side.
//!
//! The paper ran 2^24–2^26-vertex graphs on a 40-processor MTA-2 with
//! 160 GB of RAM; the default scale here is controlled by the `MMT_SCALE`
//! environment variable (log2 of the *base* vertex count, default 15) so
//! the whole suite fits a commodity container. Family shapes relative to
//! the base scale `s` mirror the paper exactly:
//!
//! | paper family          | here                        |
//! |-----------------------|-----------------------------|
//! | Rand-UWD-2^25-2^25    | Rand-UWD-2^s-2^s            |
//! | Rand-PWD-2^25-2^25    | Rand-PWD-2^s-2^s            |
//! | Rand-UWD-2^24-2^2     | Rand-UWD-2^(s-1)-2^2        |
//! | RMAT-UWD-2^26-2^26    | RMAT-UWD-2^(s+1)-2^(s+1)    |
//! | RMAT-PWD-2^25-2^25    | RMAT-PWD-2^s-2^s            |
//! | RMAT-UWD-2^26-2^2     | RMAT-UWD-2^(s+1)-2^2        |

// The counting allocator (behind `count-alloc`) is the one sanctioned use
// of `unsafe` in the whole workspace: a `GlobalAlloc` impl cannot be safe.
// Default builds keep the blanket ban.
#![cfg_attr(not(feature = "count-alloc"), forbid(unsafe_code))]
#![cfg_attr(feature = "count-alloc", deny(unsafe_code))]
#![warn(missing_docs)]

#[cfg(feature = "count-alloc")]
pub mod alloc_count;
pub mod artifact;
pub mod hotpath;
pub mod json;
pub mod layout;
pub mod results;

pub use results::{Measurement, RunRecord};

use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
use mmt_graph::types::{EdgeList, VertexId};
use mmt_graph::CsrGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Reads the base scale (log2 n) from `MMT_SCALE`, defaulting to `default`.
pub fn scale_from_env(default: u32) -> u32 {
    parse_scale(std::env::var("MMT_SCALE").ok().as_deref(), default)
}

/// `MMT_SCALE` as a number clamped to 6..=26; `default` when unset or
/// unparsable.
fn parse_scale(value: Option<&str>, default: u32) -> u32 {
    value
        .and_then(|s| s.parse().ok())
        .map(|s: u32| s.clamp(6, 26))
        .unwrap_or(default)
}

/// Number of timed SSSP runs per measurement, following the paper ("an
/// average of 10 SSSP runs"); override with `MMT_RUNS`.
pub fn runs_from_env() -> usize {
    parse_runs(std::env::var("MMT_RUNS").ok().as_deref())
}

/// `MMT_RUNS` as a number of at least 1 — zero runs would time nothing
/// and report 0 s for every cell; 10 when unset or unparsable.
fn parse_runs(value: Option<&str>) -> usize {
    value.and_then(|s| s.parse().ok()).unwrap_or(10).max(1)
}

/// A workload together with the values the paper reported for it, where
/// applicable (seconds on 40 MTA-2 processors).
///
/// Provenance: `paper_thorup` and `paper_ch` are the exact values of the
/// paper's Tables 4–5. The Δ-stepping and naive-toVisit ("Thorup A")
/// columns are corrupted in the publicly available text, so those fields
/// are **reconstructions** from the paper's qualitative statements
/// (Δ-stepping wins every single-source run by roughly 2–4×; the selective
/// toVisit strategy is "nearly two-fold" faster than naive) and from the
/// companion Madduri et al. ALENEX'07 measurements. They are used only to
/// sanity-check *shape*, never absolute values.
#[derive(Debug, Clone, Copy)]
pub struct Family {
    /// The generator spec (already scaled to the host).
    pub spec: WorkloadSpec,
    /// The paper's name for the corresponding full-scale family.
    pub paper_name: &'static str,
    /// Paper Table 5: Δ-stepping seconds.
    pub paper_delta: f64,
    /// Paper Tables 4–6: Thorup seconds (selective toVisit, "Thorup B").
    pub paper_thorup: f64,
    /// Paper Tables 3/5: CH construction seconds.
    pub paper_ch: f64,
    /// Paper Table 6: naive-toVisit Thorup seconds ("Thorup A").
    pub paper_thorup_naive: f64,
}

/// The six families of the paper's Tables 2–6, scaled so the base family
/// has `2^base_scale` vertices.
pub fn paper_families(base_scale: u32) -> Vec<Family> {
    let s = base_scale;
    use GraphClass::{Random, Rmat};
    use WeightDist::{PolyLog, Uniform};
    let spec = |class, dist, log_n: u32, log_c: u32| WorkloadSpec {
        class,
        dist,
        log_n,
        log_c,
        seed: 0xC0FFEE ^ (log_n as u64) << 8 ^ log_c as u64,
    };
    vec![
        Family {
            spec: spec(Random, Uniform, s, s),
            paper_name: "Rand-UWD-2^25-2^25",
            paper_delta: 2.68,
            paper_thorup: 7.53,
            paper_ch: 23.85,
            paper_thorup_naive: 13.57,
        },
        Family {
            spec: spec(Random, PolyLog, s, s),
            paper_name: "Rand-PWD-2^25-2^25",
            paper_delta: 2.68,
            paper_thorup: 7.54,
            paper_ch: 23.41,
            paper_thorup_naive: 13.70,
        },
        Family {
            spec: spec(Random, Uniform, s.saturating_sub(1), 2),
            paper_name: "Rand-UWD-2^24-2^2",
            paper_delta: 1.83,
            paper_thorup: 5.67,
            paper_ch: 13.87,
            paper_thorup_naive: 9.49,
        },
        Family {
            spec: spec(Rmat, Uniform, s + 1, s + 1),
            paper_name: "RMAT-UWD-2^26-2^26",
            paper_delta: 4.00,
            paper_thorup: 15.86,
            paper_ch: 44.33,
            paper_thorup_naive: 30.36,
        },
        Family {
            spec: spec(Rmat, PolyLog, s, s),
            paper_name: "RMAT-PWD-2^25-2^25",
            paper_delta: 2.37,
            paper_thorup: 8.16,
            paper_ch: 23.58,
            paper_thorup_naive: 15.58,
        },
        Family {
            spec: spec(Rmat, Uniform, s + 1, 2),
            paper_name: "RMAT-UWD-2^26-2^2",
            paper_delta: 2.88,
            paper_thorup: 7.39,
            paper_ch: 18.67,
            paper_thorup_naive: 13.65,
        },
    ]
}

/// A generated, frozen workload ready for solvers.
#[derive(Debug)]
pub struct Workload {
    /// The spec it was generated from.
    pub spec: WorkloadSpec,
    /// Edge-list form (CH builders consume this).
    pub edges: EdgeList,
    /// Adjacency form (solvers consume this).
    pub graph: CsrGraph,
}

impl Workload {
    /// Generates and freezes `spec`.
    pub fn generate(spec: WorkloadSpec) -> Self {
        let edges = spec.generate();
        let graph = CsrGraph::from_edge_list(&edges);
        Self { spec, edges, graph }
    }

    /// `k` deterministic query sources (used by the SSSP benches; sources
    /// are drawn uniformly, seeded by the workload).
    pub fn sources(&self, k: usize) -> Vec<VertexId> {
        let mut rng = SmallRng::seed_from_u64(self.spec.seed ^ 0x5EED);
        (0..k)
            .map(|_| rng.gen_range(0..self.graph.n()) as VertexId)
            .collect()
    }

    /// A single deterministic source.
    pub fn source(&self) -> VertexId {
        self.sources(1)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_families_match_paper_shapes() {
        let fams = paper_families(15);
        assert_eq!(fams.len(), 6);
        assert_eq!(fams[0].spec.name(), "Rand-UWD-2^15-2^15");
        assert_eq!(fams[2].spec.name(), "Rand-UWD-2^14-2^2");
        assert_eq!(fams[3].spec.name(), "RMAT-UWD-2^16-2^16");
        assert_eq!(fams[5].spec.name(), "RMAT-UWD-2^16-2^2");
    }

    #[test]
    fn workload_generation_and_sources() {
        let fams = paper_families(8);
        let w = Workload::generate(fams[0].spec);
        assert_eq!(w.graph.n(), 256);
        assert_eq!(w.graph.m(), 1024);
        let s = w.sources(5);
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|&v| (v as usize) < w.graph.n()));
        assert_eq!(s, w.sources(5), "sources are deterministic");
    }

    #[test]
    fn scale_env_parsing() {
        // The environment can't be mutated safely in tests, so the parse
        // is checked on its own, plus the live read's range.
        assert!((6..=26).contains(&scale_from_env(15)));
        assert_eq!(parse_scale(None, 15), 15);
        assert_eq!(parse_scale(Some("12"), 15), 12);
        assert_eq!(parse_scale(Some("2"), 15), 6);
        assert_eq!(parse_scale(Some("40"), 15), 26);
        assert_eq!(parse_scale(Some("big"), 15), 15);
    }

    #[test]
    fn runs_env_parsing_never_yields_zero_runs() {
        assert!(runs_from_env() >= 1);
        assert_eq!(parse_runs(None), 10);
        assert_eq!(parse_runs(Some("3")), 3);
        assert_eq!(parse_runs(Some("0")), 1);
        assert_eq!(parse_runs(Some("-1")), 10);
        assert_eq!(parse_runs(Some("many")), 10);
    }
}
