//! The per-layer metrics of a traced run.
//!
//! Every workload's traced run reports the same per-layer metrics, each
//! measured on that workload's own graph: a layer its load exercises is
//! measured under that load, and every other layer by calling it directly
//! on the same graph. So `paper-solve` measures the engines under its
//! load and the service with a short probe, and the `serve-*` workloads
//! the other way round.

use crate::adapter::{self, CountersSnapshot, Engine, Engines, Graph, Hierarchy, Split, VertexId};
use crate::spans::{span, Tracer};
use crate::{hash_distances, process_cpu_s, push_median, push_percentile, stats, Report, Rng};
use std::time::{Duration, Instant};

/// Solves behind each directly timed per-layer metric.
pub(crate) const DIRECT_SAMPLES: usize = 15;
/// Sources behind each `<layer>.solve_1t_ms`.
const ONE_THREAD_SOURCES: usize = 5;
pub(crate) const MIB: f64 = (1u64 << 20) as f64;

pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn slot(engine: Engine) -> usize {
    Engine::ALL
        .iter()
        .position(|&e| e == engine)
        .expect("listed engine")
}

/// `(source, oracle hash)` for `k` seeded sources of `g`.
pub(crate) fn oracle_sources(g: &Graph, rng: &mut Rng, k: usize) -> Vec<(VertexId, u64)> {
    (0..k)
        .map(|_| {
            let s = rng.below(g.n()) as VertexId;
            (s, hash_distances(adapter::dijkstra(g, s)))
        })
        .collect()
}

/// Sources solved by all four engines in turn.
#[derive(Default)]
pub(crate) struct Rounds {
    /// Per engine, one wall time per solve.
    pub ms: [Vec<f64>; 4],
    /// Per engine, one counter snapshot per solve (traced only).
    pub counts: [Vec<CountersSnapshot>; 4],
    /// Per source, the four solves' wall times summed.
    pub round_ms: Vec<f64>,
    /// Process CPU time spent inside the timed solves.
    pub cpu_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Rounds {
    pub fn engine_ms(&self, engine: Engine) -> &[f64] {
        &self.ms[slot(engine)]
    }
}

/// Solves seeded sources with all four engines, rotating their order per
/// source so drift in the host hits every engine alike, until `deadline`
/// passes or `max_rounds` sources are done. Every answer is checked
/// against the oracle, which runs outside the timed solves.
pub(crate) fn rounds(
    graph: &Graph,
    engines: &mut Engines<'_>,
    rng: &mut Rng,
    deadline: Instant,
    max_rounds: usize,
    tracer: Option<&Tracer>,
) -> Rounds {
    let n = graph.n();
    let counters = adapter::Counters::new();
    let mut out = Rounds::default();
    for i in 0..max_rounds {
        let source = rng.below(n) as VertexId;
        let want = hash_distances(adapter::dijkstra(graph, source));
        let mut round = 0.0;
        for k in 0..Engine::ALL.len() {
            let engine = Engine::ALL[(i + k) % Engine::ALL.len()];
            counters.reset();
            let cpu = process_cpu_s();
            let start = Instant::now();
            engines.solve(engine, source, tracer.map(|_| &counters));
            let end = Instant::now();
            out.cpu_s += process_cpu_s() - cpu;
            round += ms(end - start);
            out.ms[slot(engine)].push(ms(end - start));
            if let Some(t) = tracer {
                t.record(t.fresh_id(), engine.layer(), 0, i as u64 + 1, start, end);
                out.counts[slot(engine)].push(counters.snapshot());
            }
            let got = hash_distances((0..n as VertexId).map(|v| engines.distance(engine, v)));
            out.attempted += 1;
            out.failed += u64::from(got != want);
        }
        out.round_ms.push(round);
        if Instant::now() >= deadline {
            break;
        }
    }
    out
}

/// The engines on a graph whose load does not run them: the split (timed
/// as `mmt-graph.split`) and [`DIRECT_SAMPLES`] rounds inside a pool of
/// `threads`. Returns the split for the single-thread and s–t passes.
pub(crate) fn engine_pass(
    graph: &Graph,
    ch: &Hierarchy,
    rng: &mut Rng,
    threads: usize,
    t: &Tracer,
) -> (Rounds, Split) {
    adapter::with_pool(threads, || {
        let split = span(Some(t), "mmt-graph.split", 0, |_| adapter::split(graph));
        let mut engines = Engines::new(graph, ch, &split);
        warm_up(graph, &mut engines, rng);
        let far = Instant::now() + Duration::from_secs(3600);
        let out = rounds(graph, &mut engines, rng, far, DIRECT_SAMPLES, Some(t));
        drop(engines);
        (out, split)
    })
}

/// Each engine's first solve sizes its scratch; run it before timing.
pub(crate) fn warm_up(graph: &Graph, engines: &mut Engines<'_>, rng: &mut Rng) {
    let warm = rng.below(graph.n()) as VertexId;
    for engine in Engine::ALL {
        engines.solve(engine, warm, None);
    }
}

/// Times each engine on `sources` inside a one-thread pool: the plain
/// single-thread baseline. Returns per-engine times and summed counters.
pub(crate) fn one_thread(
    graph: &Graph,
    ch: &Hierarchy,
    split: &Split,
    sources: &[VertexId],
) -> ([Vec<f64>; 4], [CountersSnapshot; 4]) {
    adapter::with_pool(1, || {
        let mut engines = Engines::new(graph, ch, split);
        let counters = adapter::Counters::new();
        let mut times: [Vec<f64>; 4] = Default::default();
        for engine in Engine::ALL {
            for &s in sources {
                let start = Instant::now();
                engines.solve(engine, s, Some(&counters));
                times[slot(engine)].push(ms(start.elapsed()));
            }
        }
        let mut sums = [CountersSnapshot::default(); 4];
        for engine in Engine::ALL {
            counters.reset();
            for &s in sources {
                engines.solve(engine, s, Some(&counters));
            }
            sums[slot(engine)] = counters.snapshot();
        }
        (times, sums)
    })
}

/// `(engine, arcs_scanned, relaxations)` summed over `sources`, each
/// solved in a one-thread pool.
pub(crate) fn one_thread_counters(
    graph: &Graph,
    ch: &Hierarchy,
    split: &Split,
    sources: &[VertexId],
) -> Vec<(&'static str, u64, u64)> {
    let (_, sums) = one_thread(graph, ch, split, sources);
    Engine::ALL
        .iter()
        .map(|&e| {
            let c = &sums[slot(e)];
            (e.metric(), c.arcs_scanned, c.relaxations)
        })
        .collect()
}

/// The engine layers: each engine's traced solve time and work per solve
/// from `traced`, its single-thread time on a few fresh sources, and the
/// share of its solve that fork/join costs at `region_us` per region.
/// Must be called with no pool installed.
pub(crate) fn push_engines(
    report: &mut Report,
    graph: &Graph,
    ch: &Hierarchy,
    split: &Split,
    traced: &Rounds,
    rng: &mut Rng,
    region_us: f64,
) {
    let sources: Vec<VertexId> = (0..ONE_THREAD_SOURCES)
        .map(|_| rng.below(graph.n()) as VertexId)
        .collect();
    let (one, _) = one_thread(graph, ch, split, &sources);
    for engine in Engine::ALL {
        let i = slot(engine);
        let layer = engine.layer();
        let counts = &traced.counts[i];
        let mean = |f: fn(&CountersSnapshot) -> u64| {
            counts.iter().map(|c| f(c) as f64).sum::<f64>() / counts.len().max(1) as f64
        };
        let note = format!("mean per solve over {}", counts.len());
        let mut push = |name: &str, value: f64| {
            report.push(format!("{layer}.{name}"), value, "count", note.clone());
        };
        push("arcs_scanned", mean(|c| c.arcs_scanned));
        push("relaxations", mean(|c| c.relaxations));
        push("phases", mean(|c| c.bucket_expansions));
        let regions = if engine == Engine::Thorup {
            push("parallel_loop_setups", mean(|c| c.parallel_loop_setups));
            push("serial_loops", mean(|c| c.serial_loops));
            push("mind_propagation_hops", mean(|c| c.mind_propagation_hops));
            mean(|c| c.parallel_loop_setups)
        } else {
            mean(|c| c.bucket_expansions)
        };
        push_median(report, format!("{layer}.solve_ms"), &traced.ms[i], "ms");
        push_median(report, format!("{layer}.solve_1t_ms"), &one[i], "ms");
        let solve = stats::median(&traced.ms[i]).unwrap_or(f64::NAN);
        report.push(
            format!("{layer}.fork_join_share"),
            regions * region_us / (solve * 1e3),
            "ratio",
            "regions per solve x region_us / median traced solve".into(),
        );
    }
}

/// One `s`–`t` request and the oracle's distance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StPair {
    pub s: VertexId,
    pub t: VertexId,
    pub want: adapter::Dist,
}

/// The s–t kernels called directly, as a service worker calls them (no
/// pool installed), and early-exit Δ-stepping also inside a one-thread
/// pool. Must be called with no pool installed.
pub(crate) fn push_st_kernels(
    report: &mut Report,
    t: &Tracer,
    g: &Graph,
    split: &Split,
    pairs: &[StPair],
) {
    let mut time =
        |name: &'static str, f: &mut dyn FnMut(VertexId, VertexId) -> (adapter::Dist, u64)| {
            let mut samples = Vec::new();
            let mut arcs = Vec::new();
            for p in pairs {
                let start = Instant::now();
                let (got, scanned) = span(Some(t), name, 0, |_| f(p.s, p.t));
                samples.push(ms(start.elapsed()));
                arcs.push(scanned as f64);
                report.attempted += 1;
                report.failed += u64::from(got != p.want);
            }
            (samples, arcs)
        };
    let counters = adapter::Counters::new();
    let mut early = adapter::delta_scratch(split);
    let (early_ms, early_arcs) = time("mmt-baselines.delta_early", &mut |s, tgt| {
        counters.reset();
        let d = adapter::delta_early(split, s, tgt, &mut early, Some(&counters));
        (d, counters.snapshot().arcs_scanned)
    });
    let mut bidi = adapter::BidiScratch::new();
    let (bidi_ms, bidi_arcs) = time("mmt-baselines.bidi", &mut |s, tgt| {
        adapter::bidi(g, s, tgt, &mut bidi)
    });
    let (early_1t_ms, _) = adapter::with_pool(1, || {
        let mut scratch = adapter::delta_scratch(split);
        time("mmt-baselines.delta_early", &mut |s, tgt| {
            (adapter::delta_early(split, s, tgt, &mut scratch, None), 0)
        })
    });
    let early = "mmt-baselines.delta_early";
    push_median(report, format!("{early}.solve_ms"), &early_ms, "ms");
    push_median(report, format!("{early}.solve_1t_ms"), &early_1t_ms, "ms");
    let note = format!("mean per query over {}", pairs.len());
    let mean = |v: &[f64]| stats::mean(v).unwrap_or(f64::NAN);
    report.push(
        format!("{early}.arcs_scanned"),
        mean(&early_arcs),
        "count",
        note.clone(),
    );
    push_median(report, "mmt-baselines.bidi.solve_ms", &bidi_ms, "ms");
    report.push(
        "mmt-baselines.bidi.arcs_scanned",
        mean(&bidi_arcs),
        "count",
        note,
    );
}

/// One service worker's work per full query, timed directly while no
/// query runs: a serial Thorup solve and the reply copy.
pub(crate) fn push_thorup_serial(
    report: &mut Report,
    t: &Tracer,
    g: &Graph,
    ch: &Hierarchy,
    sources: &[(VertexId, u64)],
) {
    let inst = adapter::thorup_instance(ch);
    let mut solve_ms = Vec::new();
    let mut copy_ms = Vec::new();
    for &(s, want) in sources.iter().cycle().take(DIRECT_SAMPLES) {
        let start = Instant::now();
        span(Some(t), "mmt-thorup.solver", 0, |_| {
            adapter::thorup_serial_solve(g, ch, &inst, s)
        });
        solve_ms.push(ms(start.elapsed()));
        let start = Instant::now();
        let dists = span(Some(t), "mmt-thorup.instance.distances", 0, |_| {
            adapter::instance_distances(&inst)
        });
        copy_ms.push(ms(start.elapsed()));
        report.attempted += 1;
        report.failed += u64::from(hash_distances(dists) != want);
    }
    push_median(report, "mmt-thorup.solver.serial_solve_ms", &solve_ms, "ms");
    push_median(report, "mmt-thorup.instance.distances_ms", &copy_ms, "ms");
}

/// The set-up layers, from the set-up spans every workload records, plus
/// the serial hierarchy build on the same edges (a reference for
/// `setup_s`, not part of it) and the hierarchy's and registry's sizes.
pub(crate) fn push_setup(
    report: &mut Report,
    t: &Tracer,
    el: &adapter::EdgeList,
    heap_bytes: usize,
    resident_bytes: usize,
) {
    for name in [
        "mmt-graph.csr_build",
        "mmt-graph.split",
        "mmt-ch.build",
        "mmt-thorup.registry.register",
        "mmt-thorup.service.build",
    ] {
        push_median(report, format!("{name}_s"), &t.seconds(name), "s");
    }
    let serial: Vec<f64> = (0..crate::SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            drop(span(Some(t), "mmt-ch.build_serial", 0, |_| {
                adapter::ch_serial(el)
            }));
            start.elapsed().as_secs_f64()
        })
        .collect();
    push_median(report, "mmt-ch.build_serial_s", &serial, "s");
    report.push(
        "mmt-ch.heap_mb",
        heap_bytes as f64 / MIB,
        "MiB",
        "collapsed parallel-built hierarchy".into(),
    );
    report.push(
        "mmt-thorup.registry.resident_mb",
        resident_bytes as f64 / MIB,
        "MiB",
        "arena + hierarchy".into(),
    );
}

/// The traced run's client-seen tail and the tracing overhead on the
/// median answer, against `untraced_p50` from the same run.
pub(crate) fn push_answers(report: &mut Report, traced: &[f64], untraced_p50: f64) {
    push_percentile(report, "answer_p99_ms", traced, 99.0, "ms");
    let observed = stats::median(traced).unwrap_or(f64::NAN);
    report.push(
        "trace.overhead_pct",
        (observed - untraced_p50) / untraced_p50 * 100.0,
        "%",
        format!("answer_p50_ms traced {observed:.3} vs untraced {untraced_p50:.3}"),
    );
}

/// Medians of an empty-region fork/join inside and outside a pool, and
/// of the no-pool thread-budget lookup, in microseconds; returns the
/// pooled one. Must be called with no pool installed.
pub(crate) fn fork_join_probe(report: &mut Report, threads: usize) -> f64 {
    const REPS: usize = 400;
    let time_us = |f: &dyn Fn()| {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as f64 * 1e-3
            })
            .collect();
        stats::median(&samples).expect("non-empty")
    };
    let pooled = adapter::with_pool(threads, || time_us(&adapter::empty_region));
    let unpooled = time_us(&adapter::empty_region);
    let lookup = time_us(&|| {
        std::hint::black_box(adapter::thread_budget());
    });
    let note = format!("median of {REPS}");
    report.push("mmt-platform.region_us", pooled, "us", note.clone());
    report.push(
        "mmt-platform.region_unpooled_us",
        unpooled,
        "us",
        note.clone(),
    );
    report.push("mmt-platform.budget_lookup_unpooled_us", lookup, "us", note);
    pooled
}
