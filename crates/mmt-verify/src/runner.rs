//! The differential runner: every engine vs the Dijkstra oracle, with the
//! oracle itself certificate-checked and cross-checked against connected
//! components.
//!
//! Three independent layers of evidence per `(case, source)` query:
//!
//! 1. the oracle's distance array passes the certificate check in
//!    [`mmt_baselines::verify_sssp`] (no violated edge, every settled
//!    vertex has a tight edge, unreachability is real);
//! 2. the oracle's reachable set matches the connected-components oracle
//!    ([`mmt_cc`]) — on an undirected graph `dist[v] < INF` iff `v` is in
//!    the source's component, and the finite count equals the component
//!    size;
//! 3. every engine's distance array equals the oracle's entry for entry.
//!
//! Any failure is reported as the first divergent
//! `(engine, case, source, vertex, got, want)` — a [`Divergence`].

use crate::case::GraphCase;
use crate::engine::{all_engines, DijkstraOracle, SsspEngine};
use mmt_baselines::{verify_sssp_engine, Divergence, DivergenceKind};
use mmt_cc::{connected_components, CcAlgorithm, EdgeSet};
use mmt_graph::types::{VertexId, INF};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Summary counters for a differential run (what was actually covered).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Graph cases exercised.
    pub cases: usize,
    /// `(case, source)` oracle queries.
    pub queries: usize,
    /// Engine solves compared against the oracle.
    pub engine_runs: usize,
    /// Per-vertex distance comparisons performed.
    pub comparisons: usize,
}

/// Drives every engine over a corpus of cases and sources, comparing each
/// result against the Dijkstra oracle. Stops at the first divergence.
pub struct DifferentialRunner {
    engines: Vec<Box<dyn SsspEngine>>,
    /// Extra random sources per case, beyond the fixed `{0, n-1}`.
    pub extra_sources: usize,
    /// Seed for source sampling (fixed in CI via `MMT_VERIFY_SEED`).
    pub seed: u64,
}

impl DifferentialRunner {
    /// A runner over [`all_engines`] with `extra_sources` random sources
    /// per case on top of the fixed `{0, n-1}`.
    pub fn new(seed: u64, extra_sources: usize) -> Self {
        Self {
            engines: all_engines(),
            extra_sources,
            seed,
        }
    }

    /// Replaces the engine list (used by tests to isolate one engine).
    pub fn with_engines(mut self, engines: Vec<Box<dyn SsspEngine>>) -> Self {
        self.engines = engines;
        self
    }

    /// The sources this runner queries for a case of `n` vertices:
    /// always `0` and `n-1`, plus seeded extras (deduplicated, order kept).
    pub fn sources_for(&self, case_name: &str, n: usize) -> Vec<VertexId> {
        let mut sources: Vec<VertexId> = vec![0];
        if n > 1 {
            sources.push((n - 1) as VertexId);
        }
        // Derive the per-case stream from the run seed and the case name so
        // adding a case never shifts another case's sources.
        let name_hash = case_name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        let mut rng = SmallRng::seed_from_u64(self.seed ^ name_hash);
        for _ in 0..self.extra_sources {
            let s = rng.gen_range(0..n) as VertexId;
            if !sources.contains(&s) {
                sources.push(s);
            }
        }
        sources
    }

    /// Runs one case through every engine at every source. Returns coverage
    /// counters, or the first divergence found.
    pub fn run_case(&self, case: &GraphCase) -> Result<RunReport, Divergence> {
        let mut report = RunReport {
            cases: 1,
            ..RunReport::default()
        };
        let comps = connected_components(
            EdgeSet {
                n: case.el.n,
                edges: &case.el.edges,
            },
            CcAlgorithm::SerialDsu,
        );
        for source in self.sources_for(&case.name, case.n()) {
            report.queries += 1;
            let want = DijkstraOracle.solve(case, source);

            // Layer 1: certificate-check the oracle itself.
            verify_sssp_engine("dijkstra", &case.graph, source, &want)
                .map_err(|d| d.for_case(&case.name))?;

            // Layer 2: reachable set == source's connected component.
            let finite = want.iter().filter(|&&d| d < INF).count();
            let component = comps.member_count(source);
            if finite != component {
                return Err(Divergence::new(
                    DivergenceKind::ComponentMismatch,
                    source,
                    format!(
                        "oracle reaches {finite} vertices but the source's \
                         component has {component}"
                    ),
                )
                .for_engine("dijkstra")
                .for_case(&case.name));
            }
            if let Some(v) = (0..case.n() as VertexId)
                .find(|&v| comps.same(source, v) != (want[v as usize] < INF))
            {
                return Err(Divergence::new(
                    DivergenceKind::ComponentMismatch,
                    source,
                    "reachability disagrees with connected components",
                )
                .for_engine("dijkstra")
                .for_case(&case.name)
                .at_vertex(v, want[v as usize]));
            }

            // Layer 3: every engine against the oracle, entry for entry.
            for engine in &self.engines {
                if !engine.supports(case) {
                    continue;
                }
                report.engine_runs += 1;
                let got = engine.solve(case, source);
                if got.len() != want.len() {
                    return Err(Divergence::new(
                        DivergenceKind::LengthMismatch,
                        source,
                        format!(
                            "engine returned {} entries, graph has {}",
                            got.len(),
                            want.len()
                        ),
                    )
                    .for_engine(engine.name())
                    .for_case(&case.name));
                }
                report.comparisons += got.len();
                if let Some(v) = (0..got.len()).find(|&v| got[v] != want[v]) {
                    return Err(Divergence::new(
                        DivergenceKind::OracleMismatch,
                        source,
                        "engine disagrees with the Dijkstra oracle",
                    )
                    .for_engine(engine.name())
                    .for_case(&case.name)
                    .at(v as VertexId, got[v], want[v]));
                }
            }
        }
        Ok(report)
    }

    /// Runs a whole corpus, accumulating coverage. Stops at the first
    /// divergence.
    pub fn run_corpus<'a>(
        &self,
        cases: impl IntoIterator<Item = &'a GraphCase>,
    ) -> Result<RunReport, Divergence> {
        let mut total = RunReport::default();
        for case in cases {
            let r = self.run_case(case)?;
            total.cases += r.cases;
            total.queries += r.queries;
            total.engine_runs += r.engine_runs;
            total.comparisons += r.comparisons;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_graph::gen::{adversarial, shapes};
    use mmt_graph::types::Dist;

    #[test]
    fn sources_always_include_endpoints_and_are_deterministic() {
        let r = DifferentialRunner::new(7, 3);
        let a = r.sources_for("case-a", 50);
        let b = r.sources_for("case-a", 50);
        assert_eq!(a, b);
        assert!(a.contains(&0) && a.contains(&49));
        assert!(a.len() <= 5);
    }

    #[test]
    fn clean_case_passes_with_full_coverage() {
        let case = GraphCase::new("fig1", shapes::figure_one());
        let report = DifferentialRunner::new(1, 2).run_case(&case).unwrap();
        assert_eq!(report.cases, 1);
        assert!(report.queries >= 2);
        assert!(
            report.engine_runs >= 2 * 16,
            "all sixteen engines ran per source"
        );
        assert!(report.comparisons >= report.engine_runs * case.n());
    }

    #[test]
    fn a_lying_engine_is_caught_with_its_name_and_vertex() {
        struct OffByOne;
        impl SsspEngine for OffByOne {
            fn name(&self) -> &'static str {
                "off-by-one"
            }
            fn solve(&self, case: &GraphCase, source: VertexId) -> Vec<Dist> {
                let mut d = DijkstraOracle.solve(case, source);
                if let Some(x) = d.iter_mut().find(|x| **x != 0 && **x < INF) {
                    *x += 1;
                }
                d
            }
        }
        let case = GraphCase::new("fig1", shapes::figure_one());
        let runner = DifferentialRunner::new(1, 0).with_engines(vec![Box::new(OffByOne)]);
        let err = runner.run_case(&case).unwrap_err();
        assert_eq!(err.engine, "off-by-one");
        assert_eq!(err.kind, DivergenceKind::OracleMismatch);
        assert!(err.vertex.is_some());
        let msg = err.to_string();
        assert!(msg.contains("off-by-one") && msg.contains("fig1"), "{msg}");
    }

    #[test]
    fn zero_weight_corpus_member_runs_all_engines() {
        let case = GraphCase::new("zero-cycles", adversarial::zero_cycles(4, 5, 3));
        let report = DifferentialRunner::new(3, 1).run_case(&case).unwrap();
        assert!(report.engine_runs > 0);
    }
}
