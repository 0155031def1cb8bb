//! The CI verification gate: the full differential corpus, metamorphic
//! spot checks, and a seeded QueryService schedule — all reproducible
//! under `MMT_VERIFY_SEED`.

use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
use mmt_verify::metamorphic;
use mmt_verify::{
    all_engines, full_corpus, paper_corpus, run_service_schedule, seed_from_env,
    CoalescedServiceEngine, DifferentialRunner, DijkstraOracle, GraphCase, ScheduleSpec,
    SsspEngine,
};

/// Every engine vs the Dijkstra oracle on every corpus case, with the
/// oracle certificate-checked and cross-checked against connected
/// components. This is the tentpole assertion of the harness.
#[test]
fn all_engines_agree_on_the_full_corpus() {
    let seed = seed_from_env();
    let corpus = full_corpus(seed);
    let runner = DifferentialRunner::new(seed, 2);
    let report = runner.run_corpus(corpus.iter()).unwrap();
    assert_eq!(report.cases, corpus.len());
    assert!(
        report.engine_runs >= corpus.len() * 16,
        "expected all sixteen engines across {} cases, got {} engine runs",
        corpus.len(),
        report.engine_runs
    );
    assert!(
        report.comparisons > 10_000,
        "coverage collapsed: {report:?}"
    );
}

/// Metamorphic invariants (weight scaling, relabeling, redundant-edge
/// no-op, s/t symmetry) hold for every registered engine — including the
/// permuted-layout ones, whose whole job is index gymnastics that the
/// relabeling check is purpose-built to catch — on random, RMAT
/// and zero-weight cases at several sources.
#[test]
fn metamorphic_invariants_hold_for_every_engine() {
    let seed = seed_from_env();
    let cases = [
        GraphCase::new(
            "Rand-UWD-2^6",
            WorkloadSpec {
                seed,
                ..WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 6, 6)
            }
            .generate(),
        ),
        GraphCase::new(
            "Rmat-PWD-2^6",
            WorkloadSpec {
                seed,
                ..WorkloadSpec::new(GraphClass::Rmat, WeightDist::PolyLog, 6, 6)
            }
            .generate(),
        ),
        GraphCase::new(
            "zero-chain-48",
            mmt_graph::gen::adversarial::zero_chain(48, 5),
        ),
    ];
    for case in &cases {
        let n = case.n() as u32;
        for source in [0, n / 2, n - 1] {
            for engine in all_engines() {
                metamorphic::check_all(engine.as_ref(), case, source, seed).unwrap();
            }
        }
    }
}

/// A seeded submit/cancel/deadline interleaving against the QueryService:
/// every query the service completes must match the serial oracle.
#[test]
fn seeded_service_schedule_only_completes_correct_answers() {
    let seed = seed_from_env();
    let el = WorkloadSpec {
        seed,
        ..WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 7, 8)
    }
    .generate();
    let spec = ScheduleSpec {
        seed,
        queries: 128,
        ..ScheduleSpec::default()
    };
    let outcome = run_service_schedule(&el, spec).unwrap();
    assert_eq!(
        outcome.total(),
        spec.queries,
        "every submission accounted for"
    );
    assert!(outcome.completed() > 0, "schedule too hostile: {outcome:?}");
}

/// The coalescing scheduler, differentially: one engine instance swept
/// across the paper corpus so its batch accumulator spans every case.
/// Each solve pushes four copies of the query through a one-worker
/// service with coalescing forced on (tiny window, cap 4), and every
/// answer must match the Dijkstra oracle entry for entry. The final
/// assertion is the one the engine exists for: multi-member batches
/// actually formed — the corpus exercised the coalesced solve path, not
/// just the singleton fallback.
#[test]
fn coalesced_service_answers_match_the_oracle_and_batches_form() {
    let seed = seed_from_env();
    let engine = CoalescedServiceEngine::default();
    let oracle = DijkstraOracle;
    for case in paper_corpus(seed) {
        let n = case.n() as u32;
        for source in [0, n / 2, n - 1] {
            let want = oracle.solve(&case, source);
            let got = engine.solve(&case, source);
            assert_eq!(got, want, "case {} source {source}", case.name);
        }
    }
    assert!(
        engine.batches_formed() > 0,
        "the corpus sweep never formed a multi-member batch — coalescing \
         was exercised only through the singleton path"
    );
}
