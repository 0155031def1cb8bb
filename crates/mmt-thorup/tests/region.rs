//! Race hunting on the multi-lane path. A default-configuration solve in a
//! pool of several threads runs in one parallel region: lane 0 walks the
//! hierarchy and posts visit and scan phases, and every lane writes the
//! shared instance inside a visit phase. These tests solve a graph that
//! posts both kinds of phase, at 2 and 4 lanes, round after round, and
//! check each answer against the Dijkstra oracle: full solves, `s`–`t`
//! solves, and solves cancelled mid-flight and then re-solved. A one-thread
//! pool must open no region and repeat its work exactly.
//!
//! A lost wake-up at the region's barrier hangs rather than fails, so each
//! test runs under a watchdog.

use mmt_baselines::dijkstra;
use mmt_ch::{build_parallel, ComponentHierarchy};
use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
use mmt_graph::types::{Dist, VertexId};
use mmt_graph::CsrGraph;
use mmt_platform::{with_pool, CancelToken, EventCounters};
use mmt_thorup::{RegionStats, ThorupInstance, ThorupSolver};
use std::sync::mpsc;
use std::time::Duration;

const ROUNDS: usize = 20;

/// Runs `f` on its own thread and fails if it has not returned within two
/// minutes.
fn watchdog(f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let body = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => body.join().unwrap(),
        // The body panicked: surface its payload.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(body.join().unwrap_err())
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("a solve hung: a wake-up was lost"),
    }
}

/// Rand-UWD-2^12-2^12: at two lanes a solve posts about 11 visit phases
/// and 47 scan phases. The generator's cycle makes it connected.
fn graph() -> (CsrGraph, ComponentHierarchy) {
    let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 12, 12);
    spec.seed = 1;
    let el = spec.generate();
    (CsrGraph::from_edge_list(&el), build_parallel(&el))
}

fn sources(n: usize) -> Vec<VertexId> {
    (0..ROUNDS).map(|r| (r * 211 % n) as VertexId).collect()
}

/// Solves `s` with `token`, which a second thread cancels once an eighth
/// of the vertices have settled. Returns whether the solve completed.
fn cancelled_mid_flight(solver: &ThorupSolver<'_>, inst: &ThorupInstance, s: VertexId) -> bool {
    let token = CancelToken::new();
    let quorum = inst.distances().len() / 8;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Every vertex settles in a completed solve, so this ends.
            while inst.settled_count() < quorum {
                std::hint::spin_loop();
            }
            token.cancel();
        });
        solver.solve_into_with_cancel(inst, s, &token)
    })
}

#[test]
fn multi_lane_solves_post_phases_and_match_dijkstra_every_round() {
    watchdog(|| {
        let (g, ch) = graph();
        let sources = sources(g.n());
        let oracle: Vec<Vec<Dist>> = sources.iter().map(|&s| dijkstra(&g, s)).collect();
        let mut interrupted = 0;
        for lanes in [2usize, 4] {
            with_pool(lanes, || {
                let solver = ThorupSolver::new(&g, &ch);
                let inst = ThorupInstance::new(&ch);
                for (round, (&s, want)) in sources.iter().zip(&oracle).enumerate() {
                    let at = format!("{lanes} lanes, round {round}, source {s}");
                    let ev = EventCounters::new();
                    inst.reset(&ch);
                    solver.with_counters(&ev).solve_into(&inst, s);
                    assert_eq!(inst.distances(), *want, "{at}: full solve");
                    // Each vertex settles, and relaxes its arcs, once.
                    assert_eq!(ev.settled.get() as usize, g.n(), "{at}");
                    assert_eq!(ev.relaxations.get() as usize, g.num_arcs(), "{at}");

                    let t = sources[(round + 7) % ROUNDS];
                    inst.reset(&ch);
                    let d = solver.solve_target(&inst, s, t);
                    assert_eq!(d, want[t as usize], "{at}: target {t}");

                    inst.reset(&ch);
                    if cancelled_mid_flight(&solver, &inst, s) {
                        assert_eq!(inst.distances(), *want, "{at}: cancel lost the race");
                    } else {
                        interrupted += 1;
                    }
                    inst.reset(&ch);
                    assert!(solver.solve_into_with_cancel(&inst, s, &CancelToken::new()));
                    assert_eq!(inst.distances(), *want, "{at}: re-solve after cancel");
                }
                let stats = inst.region_stats();
                assert_eq!(stats.regions, 4 * ROUNDS as u64, "{lanes} lanes: {stats:?}");
                assert!(
                    stats.visit_phases >= ROUNDS as u64,
                    "{lanes} lanes: {stats:?}"
                );
                assert!(
                    stats.scan_phases >= ROUNDS as u64,
                    "{lanes} lanes: {stats:?}"
                );
            });
        }
        assert!(interrupted >= 1, "no solve was cancelled mid-flight");
    });
}

#[test]
fn a_one_thread_pool_opens_no_region_and_repeats_its_work() {
    watchdog(|| {
        let (g, ch) = graph();
        let s = sources(g.n())[3];
        let want = dijkstra(&g, s);
        with_pool(1, || {
            let solver = ThorupSolver::new(&g, &ch);
            let inst = ThorupInstance::new(&ch);
            let mut first = None;
            for round in 0..ROUNDS {
                let ev = EventCounters::new();
                inst.reset(&ch);
                solver.with_counters(&ev).solve_into(&inst, s);
                assert_eq!(inst.distances(), want, "round {round}");
                let work = ev.snapshot();
                assert_eq!(*first.get_or_insert(work), work, "round {round}");
            }
            assert_eq!(inst.region_stats(), RegionStats::default());
        });
    });
}
