//! `paper-solve`: Thorup against the three stepping kernels, time to
//! solution at the host's thread count.
//!
//! One caller inside a pool of `nproc` threads solves each seeded source
//! with all four engines, rotating their order per source so drift in
//! the host hits every engine alike. An answer is one source solved by
//! all four. The service does no work under this load; the traced run
//! probes it on the same graph.

use crate::adapter::{self, EdgeList, Engine, Engines, Family, Graph, Hierarchy, Split, VertexId};
use crate::layers::{self, Rounds, DIRECT_SAMPLES};
use crate::spans::{span, Tracer};
use crate::{more_setups, push_end_to_end, serve, stats, Report, Rng, Scale};
use std::time::{Duration, Instant};

const STREAM_SALT: u64 = 0x5041_5045_5231;
/// Oracle sources behind the service probe and the serial Thorup timing.
const PROBE_SOURCES: usize = 8;

/// `(engine, arcs_scanned, relaxations)` summed over a few seeded sources
/// of the `paper-solve` input, each solved in a one-thread pool.
pub fn one_thread_counters(seed: u64, scale: &Scale) -> Vec<(&'static str, u64, u64)> {
    let (log_n, log_c) = scale.paper;
    let el = adapter::generate(Family::Rand, log_n, log_c, seed);
    let graph = adapter::csr(&el);
    let ch = adapter::ch_parallel(&el);
    let split = adapter::split(&graph);
    let mut rng = Rng::new(seed ^ STREAM_SALT);
    let sources: Vec<VertexId> = (0..3).map(|_| rng.below(graph.n()) as VertexId).collect();
    layers::one_thread_counters(&graph, &ch, &split, &sources)
}

/// Edge list to ready-to-solve, inside the caller's pool: CSR, parallel
/// hierarchy build and the light/heavy split, timed in seconds. The
/// engines' scratch, the last step, is built and timed by the caller.
fn set_up(el: &EdgeList, tracer: Option<&Tracer>) -> (Graph, Hierarchy, Split, f64) {
    let setup_id = tracer.map_or(0, Tracer::fresh_id);
    let start = Instant::now();
    let graph = span(tracer, "mmt-graph.csr_build", setup_id, |_| {
        adapter::csr(el)
    });
    let ch = span(tracer, "mmt-ch.build", setup_id, |_| {
        adapter::ch_parallel(el)
    });
    let split = span(tracer, "mmt-graph.split", setup_id, |_| {
        adapter::split(&graph)
    });
    let end = Instant::now();
    if let Some(t) = tracer {
        t.record(setup_id, "setup", 0, 0, start, end);
    }
    (graph, ch, split, (end - start).as_secs_f64())
}

/// Times building the four engines' scratch over a set-up's graph.
fn time_scratch<'a>(graph: &'a Graph, ch: &'a Hierarchy, split: &'a Split) -> (Engines<'a>, f64) {
    let start = Instant::now();
    let engines = Engines::new(graph, ch, split);
    (engines, start.elapsed().as_secs_f64())
}

/// Each engine's median solve, as report lines.
fn engine_notes(report: &mut Report, rounds: &Rounds) {
    for engine in Engine::ALL {
        let samples = rounds.engine_ms(engine);
        let median = stats::median(samples).unwrap_or(f64::NAN);
        report.notes.push(format!(
            "{} solve {median:.3} ms (median of {})",
            engine.metric(),
            samples.len()
        ));
    }
}

pub(crate) fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>, scale: &Scale) -> Report {
    let nproc = adapter::nproc();
    let (log_n, log_c) = scale.paper;
    let el = adapter::generate(Family::Rand, log_n, log_c, seed);
    let mut report = Report::default();
    report.notes.push(format!(
        "paper-solve: {} seed={seed} nproc={nproc}, closed loop, 4 engines per source in rotating order",
        adapter::input_name(Family::Rand, log_n, log_c)
    ));
    let mut rng = Rng::new(seed ^ STREAM_SALT);
    let until = |s: f64| Instant::now() + Duration::from_secs_f64(s);
    // Set-up and the measured rounds run inside the pool. The graph comes
    // out of it for the traced run's layers, which need the no-pool
    // context.
    let (setup, peak, graph, ch, split, plain, traced) = adapter::with_pool(nproc, || {
        let (graph, ch, split, first) = set_up(&el, tracer);
        let (mut engines, scratch) = time_scratch(&graph, &ch, &split);
        layers::warm_up(&graph, &mut engines, &mut rng);
        // A traced run first measures a shorter untraced phase: the
        // reference for the tracing overhead.
        let plain_s = if tracer.is_some() {
            seconds / 3.0
        } else {
            seconds
        };
        let plain = layers::rounds(
            &graph,
            &mut engines,
            &mut rng,
            until(plain_s),
            usize::MAX,
            None,
        );
        let traced = tracer.map(|t| {
            layers::rounds(
                &graph,
                &mut engines,
                &mut rng,
                until(seconds),
                usize::MAX,
                Some(t),
            )
        });
        let peak = adapter::peak_rss_bytes();
        drop(engines);
        let setup = more_setups(first + scratch, || {
            let (g, c, s, seconds) = set_up(&el, tracer);
            seconds + time_scratch(&g, &c, &s).1
        });
        (setup, peak, graph, ch, split, plain, traced)
    });
    report.attempted = plain.attempted;
    report.failed = plain.failed;
    engine_notes(&mut report, &plain);
    let (Some(t), Some(traced)) = (tracer, traced) else {
        push_end_to_end(&mut report, &setup, peak, &plain.round_ms, plain.cpu_s);
        return report;
    };
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    let untraced_p50 = stats::median(&plain.round_ms).unwrap_or(f64::NAN);
    layers::push_answers(&mut report, &traced.round_ms, untraced_p50);
    let region_us = layers::fork_join_probe(&mut report, nproc);
    layers::push_engines(
        &mut report,
        &graph,
        &ch,
        &split,
        &traced,
        &mut rng,
        region_us,
    );
    let pairs = serve::st_pairs(&el, &mut rng, DIRECT_SAMPLES);
    layers::push_st_kernels(&mut report, t, &graph, &split, &pairs);
    let sources = layers::oracle_sources(&graph, &mut rng, PROBE_SOURCES);
    layers::push_thorup_serial(&mut report, t, &graph, &ch, &sources);
    let heap = adapter::ch_heap_bytes(&ch);
    let resident = serve::probe(
        &mut report,
        t,
        &graph,
        ch,
        &sources,
        &mut rng,
        seconds / 4.0,
    );
    layers::push_setup(&mut report, t, &el, heap, resident);
    report
}
