//! `serve-full` and `serve-road-st`: the query service under two loads.
//!
//! Both start the service the way its documentation does — graph and
//! hierarchy built with no pool installed, registered, then `nproc`
//! workers with the builder's defaults — and time each reply where it
//! arrives: every in-flight request has its own waiter thread asleep in
//! `wait`, so a cheap reply is never stamped late behind an expensive one.
//! Waiters only sleep; the load comes from one generator thread.

use crate::adapter::{
    self, Dist, EdgeList, Family, Graph, GraphId, Hierarchy, MemoryTraceSink, P2pAlgo, QueryHandle,
    QueryService, TargetHandle, TraceEvent, VertexId,
};
use crate::layers::{self, ms, StPair, DIRECT_SAMPLES};
use crate::spans::{span, Tracer};
use crate::stats;
use crate::{
    hash_distances, more_setups, process_cpu_s, push_end_to_end, push_median, push_percentile,
    Report, Rng, Scale,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const FULL_SALT: u64 = 0x4655_4c4c;
const ROAD_SALT: u64 = 0x524f_4144;
/// Distinct sources `serve-full` draws from, each with its oracle.
const FULL_SOURCES: usize = 64;
/// `serve-road-st` requests that share one oracle source.
const ST_TARGETS: usize = 4;
/// Waiter threads of the open loop. A run whose in-flight count reaches
/// this is invalid: a reply could then be stamped late.
const OPEN_WAITERS: usize = 32;
/// `serve-road-st` requests cycle through these, so each algorithm gets
/// an even third.
const ALGOS: [P2pAlgo; 3] = [P2pAlgo::Bidirectional, P2pAlgo::DeltaEarly, P2pAlgo::Thorup];

/// One `serve-road-st` request: its endpoints, its algorithm (an index
/// into [`ALGOS`]) and the oracle's distance.
#[derive(Debug, Clone, Copy)]
struct StRequest {
    s: VertexId,
    t: VertexId,
    algo: usize,
    want: Dist,
}

impl StRequest {
    fn pair(&self) -> StPair {
        StPair {
            s: self.s,
            t: self.t,
            want: self.want,
        }
    }
}

/// A submitted request and what its reply must equal.
enum Pending {
    Full(QueryHandle, u64),
    St(TargetHandle, Dist),
}

struct Job {
    seq: u64,
    qid: String,
    due: Instant,
    sent: Instant,
    span_id: u64,
    pending: Pending,
}

/// One request's client-side record.
struct Done {
    qid: String,
    due: Instant,
    sent: Instant,
    arrived: Instant,
    ok: bool,
}

/// Sleeps in `wait` for each job's reply, stamps its arrival, then checks
/// it. Releases a closed-loop slot per reply when `slots` is given.
fn waiter(
    jobs: &Mutex<Receiver<Job>>,
    slots: Option<Sender<()>>,
    completed: &AtomicU64,
    tracer: Option<&Tracer>,
) -> Vec<Done> {
    let mut done = Vec::new();
    loop {
        let next = jobs.lock().expect("job queue poisoned").recv();
        let Ok(job) = next else {
            return done;
        };
        let (arrived, ok) = match job.pending {
            Pending::Full(h, want) => {
                let reply = adapter::wait_full(h);
                let at = Instant::now();
                (at, reply.is_some_and(|d| hash_distances(d) == want))
            }
            Pending::St(h, want) => {
                let reply = adapter::wait_st(h);
                (Instant::now(), reply == Some(want))
            }
        };
        completed.fetch_add(1, Ordering::Release);
        if let Some(t) = tracer {
            t.record(job.span_id, "request", 0, job.seq, job.sent, arrived);
        }
        done.push(Done {
            qid: job.qid,
            due: job.due,
            sent: job.sent,
            arrived,
            ok,
        });
        if let Some(slots) = &slots {
            let _ = slots.send(());
        }
    }
}

/// Submits through `submit` inside a span, recording a refused request as
/// a failed one.
fn submit<H>(
    tracer: Option<&Tracer>,
    seq: u64,
    submit: impl FnOnce() -> Option<H>,
) -> (Instant, u64, Option<H>) {
    let Some(t) = tracer else {
        return (Instant::now(), 0, submit());
    };
    let request = t.fresh_id();
    let sent = Instant::now();
    let handle = submit();
    t.record(
        t.fresh_id(),
        "mmt-thorup.service.submit",
        request,
        seq,
        sent,
        Instant::now(),
    );
    (sent, request, handle)
}

fn refused(at: Instant) -> Done {
    Done {
        qid: String::new(),
        due: at,
        sent: at,
        arrived: at,
        ok: false,
    }
}

/// What a closed-loop run saw.
struct Served {
    records: Vec<Done>,
    /// Correct replies that arrived inside the window.
    in_window: usize,
    /// Process CPU time from the first send to the last reply.
    cpu_s: f64,
}

/// A closed loop: `outstanding` full queries always in flight until
/// `seconds` pass.
fn closed_loop(
    svc: &QueryService,
    graph: GraphId,
    sources: &[(VertexId, u64)],
    rng: &mut Rng,
    seconds: f64,
    outstanding: usize,
    tracer: Option<&Tracer>,
) -> Served {
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Mutex::new(job_rx);
    let (slot_tx, slot_rx) = mpsc::channel::<()>();
    for _ in 0..outstanding {
        slot_tx.send(()).expect("slot receiver alive");
    }
    let completed = AtomicU64::new(0);
    let cpu = process_cpu_s();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let records = std::thread::scope(|scope| {
        let waiters: Vec<_> = (0..outstanding)
            .map(|_| {
                let slots = slot_tx.clone();
                let (jobs, completed) = (&job_rx, &completed);
                scope.spawn(move || waiter(jobs, Some(slots), completed, tracer))
            })
            .collect();
        let mut records = Vec::new();
        let mut seq = 0;
        while slot_rx.recv().is_ok() && Instant::now() < end {
            seq += 1;
            let (source, want) = sources[rng.below(sources.len())];
            let (sent, span_id, handle) =
                submit(tracer, seq, || adapter::submit_full(svc, graph, source));
            let Some(handle) = handle else {
                records.push(refused(sent));
                slot_tx.send(()).expect("slot receiver alive");
                continue;
            };
            let job = Job {
                seq,
                qid: adapter::full_id(&handle),
                due: sent,
                sent,
                span_id,
                pending: Pending::Full(handle, want),
            };
            job_tx.send(job).expect("waiters alive");
        }
        drop(job_tx);
        for w in waiters {
            records.extend(w.join().expect("waiter thread panicked"));
        }
        records
    });
    let cpu_s = process_cpu_s() - cpu;
    let in_window = records.iter().filter(|d| d.ok && d.arrived <= end).count();
    Served {
        records,
        in_window,
        cpu_s,
    }
}

/// What an open-loop run saw besides its records.
struct OpenLoop {
    records: Vec<Done>,
    lateness_ms: Vec<f64>,
    /// Sent but unanswered when generation stopped.
    outstanding_end: u64,
    /// The service's queue depth when generation stopped.
    queue_depth_end: u64,
    /// Most requests ever in flight at a send.
    max_in_flight: u64,
    /// Process CPU time from the first send to the last reply.
    cpu_s: f64,
}

/// An open loop: the requests of `plan` in order, sent at evenly spaced
/// due times at `rate` per second for `seconds`, whatever the replies do.
fn open_loop(
    svc: &QueryService,
    graph: GraphId,
    plan: &[StRequest],
    seconds: f64,
    rate: f64,
    tracer: Option<&Tracer>,
) -> OpenLoop {
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Mutex::new(job_rx);
    let completed = AtomicU64::new(0);
    let period = Duration::from_secs_f64(1.0 / rate);
    let count = (seconds * rate).floor() as u32;
    let cpu = process_cpu_s();
    std::thread::scope(|scope| {
        let waiters: Vec<_> = (0..OPEN_WAITERS)
            .map(|_| {
                let (jobs, completed) = (&job_rx, &completed);
                scope.spawn(move || waiter(jobs, None, completed, tracer))
            })
            .collect();
        let mut records = Vec::new();
        let mut lateness_ms = Vec::with_capacity(count as usize);
        let mut max_in_flight = 0;
        let mut submitted = 0;
        let start = Instant::now();
        for i in 0..count {
            let due = start + period * i;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let StRequest { s, t, algo, want } = plan[i as usize % plan.len()];
            let (sent, span_id, handle) = submit(tracer, u64::from(i) + 1, || {
                adapter::submit_st(svc, graph, s, t, ALGOS[algo])
            });
            lateness_ms.push(ms(sent.saturating_duration_since(due)));
            let Some(handle) = handle else {
                records.push(refused(sent));
                continue;
            };
            let job = Job {
                seq: u64::from(i) + 1,
                qid: adapter::st_id(&handle),
                due,
                sent,
                span_id,
                pending: Pending::St(handle, want),
            };
            job_tx.send(job).expect("waiters alive");
            submitted += 1;
            let in_flight = submitted - completed.load(Ordering::Acquire);
            max_in_flight = max_in_flight.max(in_flight);
        }
        let outstanding_end = submitted - completed.load(Ordering::Acquire);
        let queue_depth_end = adapter::queue_depth(svc);
        drop(job_tx);
        for w in waiters {
            records.extend(w.join().expect("waiter thread panicked"));
        }
        OpenLoop {
            records,
            lateness_ms,
            outstanding_end,
            queue_depth_end,
            max_in_flight,
            cpu_s: process_cpu_s() - cpu,
        }
    })
}

/// Everything set-up produced besides the running service.
struct Built {
    svc: QueryService,
    graph: GraphId,
    seconds: f64,
    resident_bytes: usize,
    heap_bytes: usize,
}

/// Edge list to ready-to-answer: CSR, parallel hierarchy build, registry,
/// service start — with no pool installed, as the service's own example
/// does.
fn build_service(
    el: &EdgeList,
    name: &str,
    workers: usize,
    tracer: Option<&Tracer>,
    sink: Option<Arc<MemoryTraceSink>>,
) -> Built {
    let setup_id = tracer.map_or(0, Tracer::fresh_id);
    let start = Instant::now();
    let csr = span(tracer, "mmt-graph.csr_build", setup_id, |_| {
        adapter::csr(el)
    });
    let ch = span(tracer, "mmt-ch.build", setup_id, |_| {
        adapter::ch_parallel(el)
    });
    let heap_bytes = adapter::ch_heap_bytes(&ch);
    let mut registry = adapter::registry();
    let graph = span(tracer, "mmt-thorup.registry.register", setup_id, |_| {
        adapter::register(&mut registry, name, &csr, ch)
    });
    let resident_bytes = adapter::resident_bytes(&registry);
    let svc = span(tracer, "mmt-thorup.service.build", setup_id, |_| {
        adapter::start_service(registry, workers, sink)
    });
    let end = Instant::now();
    if let Some(t) = tracer {
        t.record(setup_id, "setup", 0, 0, start, end);
    }
    drop(csr);
    Built {
        svc,
        graph,
        seconds: (end - start).as_secs_f64(),
        resident_bytes,
        heap_bytes,
    }
}

/// The service a run measures. A traced run first hands an untraced
/// service to `untraced`, for the overhead reference, and shuts it down;
/// the service it returns then records into a trace sink.
fn measured_service(
    el: &EdgeList,
    name: &str,
    workers: usize,
    tracer: Option<&Tracer>,
    untraced: impl FnOnce(&QueryService, GraphId),
) -> (Built, Option<Arc<MemoryTraceSink>>) {
    if tracer.is_some() {
        let plain = build_service(el, name, workers, None, None);
        untraced(&plain.svc, plain.graph);
    }
    let sink = tracer.map(|_| Arc::new(MemoryTraceSink::new()));
    (build_service(el, name, workers, tracer, sink.clone()), sink)
}

/// Service trace events of answered requests, joined to the client
/// records by query id: `(event, record)`.
fn joined<'a>(events: &'a [TraceEvent], records: &'a [Done]) -> Vec<(&'a TraceEvent, &'a Done)> {
    let by_id: HashMap<&str, &Done> = records.iter().map(|d| (d.qid.as_str(), d)).collect();
    events
        .iter()
        .filter(|e| e.outcome == "ok")
        .filter_map(|e| by_id.get(e.query.as_str()).map(|d| (e, *d)))
        .collect()
}

fn us_ms(a: u64, b: u64) -> f64 {
    b.saturating_sub(a) as f64 * 1e-3
}

/// Correct answers' client-seen latency: from the due time (the send
/// time, in a closed loop) to the reply's arrival.
fn latencies(records: &[Done]) -> Vec<f64> {
    records
        .iter()
        .filter(|d| d.ok)
        .map(|d| ms(d.arrived - d.due))
        .collect()
}

/// The service layers of a traced run: the submit call, and the queue,
/// coalescing, solve and delivery split of every answered request, from
/// the service's trace joined to the client records.
fn push_service(
    report: &mut Report,
    t: &Tracer,
    svc: &QueryService,
    sink: &MemoryTraceSink,
    records: &[Done],
) {
    let events = adapter::trace_events(sink);
    let pairs = joined(&events, records);
    let split = |from: fn(&TraceEvent) -> Option<(u64, u64)>| -> Vec<f64> {
        pairs
            .iter()
            .filter_map(|(e, _)| from(e).map(|(a, b)| us_ms(a, b)))
            .collect()
    };
    let queue = split(|e| Some((e.enqueue_us, e.dequeue_us)));
    let coalesce = split(|e| e.solve_us.map(|s| (e.dequeue_us, s)));
    let solve = split(|e| e.solve_us.map(|s| (s, e.reply_us)));
    // Client-seen latency minus the service's own enqueue-to-reply time:
    // what handing the reply over costs.
    let delivery: Vec<f64> = pairs
        .iter()
        .map(|(e, d)| ms(d.arrived - d.sent) - us_ms(e.enqueue_us, e.reply_us))
        .collect();
    let batch: Vec<f64> = pairs.iter().map(|(e, _)| f64::from(e.batch_size)).collect();
    let svc_layer = "mmt-thorup.service";
    let submits: Vec<f64> = t
        .seconds("mmt-thorup.service.submit")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    push_median(report, format!("{svc_layer}.submit_us"), &submits, "us");
    for (name, samples, p) in [
        ("queue_wait_p50_ms", &queue, 50.0),
        ("queue_wait_p99_ms", &queue, 99.0),
        ("coalesce_wait_p50_ms", &coalesce, 50.0),
        ("solve_p50_ms", &solve, 50.0),
        ("solve_p99_ms", &solve, 99.0),
        ("delivery_p50_ms", &delivery, 50.0),
    ] {
        push_percentile(report, format!("{svc_layer}.{name}"), samples, p, "ms");
    }
    report.push(
        format!("{svc_layer}.batch_size_mean"),
        stats::mean(&batch).unwrap_or(f64::NAN),
        "count",
        format!("mean over {} answers", batch.len()),
    );
    let (coalesced, served_full) = adapter::coalescing(svc);
    report.push(
        format!("{svc_layer}.coalesced_share"),
        coalesced as f64 / served_full.max(1) as f64,
        "ratio",
        format!("{coalesced} of {served_full} served full queries rode a coalesced batch"),
    );
}

/// Workers size their pooled reply buffers on their first queries: `n`
/// full queries, waited out, before timing.
fn warm_up_full(svc: &QueryService, graph: GraphId, sources: &[(VertexId, u64)], n: usize) {
    let handles: Vec<_> = sources
        .iter()
        .cycle()
        .take(n)
        .filter_map(|&(s, _)| adapter::submit_full(svc, graph, s))
        .collect();
    for h in handles {
        adapter::wait_full(h);
    }
}

/// The service layers on a graph its workload does not serve: registers
/// `graph` with `ch`, starts `nproc` workers with a trace sink, and runs
/// the `serve-full` closed loop over `sources` for `seconds`. Returns the
/// registry's resident bytes.
pub(crate) fn probe(
    report: &mut Report,
    t: &Tracer,
    graph: &Graph,
    ch: Hierarchy,
    sources: &[(VertexId, u64)],
    rng: &mut Rng,
    seconds: f64,
) -> usize {
    let nproc = adapter::nproc();
    let mut registry = adapter::registry();
    let id = span(Some(t), "mmt-thorup.registry.register", 0, |_| {
        adapter::register(&mut registry, "probe", graph, ch)
    });
    let resident = adapter::resident_bytes(&registry);
    let sink = Arc::new(MemoryTraceSink::new());
    let svc = span(Some(t), "mmt-thorup.service.build", 0, |_| {
        adapter::start_service(registry, nproc, Some(sink.clone()))
    });
    warm_up_full(&svc, id, sources, 4 * nproc);
    let served = closed_loop(&svc, id, sources, rng, seconds, 2 * nproc, Some(t));
    report.attempted += served.records.len() as u64;
    report.failed += served.records.iter().filter(|d| !d.ok).count() as u64;
    push_service(report, t, &svc, &sink, &served.records);
    resident
}

/// The layers a `serve-*` traced run measures directly on the served
/// graph once its load is over: the engines, the s–t kernels on `pairs`,
/// a worker's serial Thorup solve, fork/join and set-up.
fn push_direct(
    report: &mut Report,
    t: &Tracer,
    el: &EdgeList,
    built: &Built,
    pairs: &[StPair],
    sources: &[(VertexId, u64)],
    rng: &mut Rng,
) {
    let nproc = adapter::nproc();
    let (g, ch) = adapter::served(&built.svc, built.graph);
    let (rounds, split) = layers::engine_pass(&g, &ch, rng, nproc, t);
    report.attempted += rounds.attempted;
    report.failed += rounds.failed;
    let region_us = layers::fork_join_probe(report, nproc);
    layers::push_engines(report, &g, &ch, &split, &rounds, rng, region_us);
    layers::push_st_kernels(report, t, &g, &split, pairs);
    layers::push_thorup_serial(report, t, &g, &ch, sources);
    layers::push_setup(report, t, el, built.heap_bytes, built.resident_bytes);
}

pub(crate) fn run_full(seed: u64, seconds: f64, tracer: Option<&Tracer>, scale: &Scale) -> Report {
    let nproc = adapter::nproc();
    let outstanding = 2 * nproc;
    let (log_n, log_c) = scale.full;
    let el = adapter::generate(Family::Rand, log_n, log_c, seed);
    let mut rng = Rng::new(seed ^ FULL_SALT);
    let mut report = Report::default();
    report.notes.push(format!(
        "serve-full: {} seed={seed} nproc={nproc}, closed loop of {outstanding} outstanding full queries, {nproc} workers",
        adapter::input_name(Family::Rand, log_n, log_c)
    ));
    // The oracle: one distance hash per source of the request pool.
    let sources = layers::oracle_sources(&adapter::csr(&el), &mut rng, FULL_SOURCES);
    let mut untraced_p50 = f64::NAN;
    let (built, sink) = measured_service(&el, "serve-full", nproc, tracer, |svc, graph| {
        warm_up_full(svc, graph, &sources, 2 * outstanding);
        let served = closed_loop(
            svc,
            graph,
            &sources,
            &mut rng.clone(),
            seconds / 3.0,
            outstanding,
            None,
        );
        untraced_p50 = stats::median(&latencies(&served.records)).unwrap_or(f64::NAN);
    });
    warm_up_full(&built.svc, built.graph, &sources, 2 * outstanding);
    let served = closed_loop(
        &built.svc,
        built.graph,
        &sources,
        &mut rng,
        seconds,
        outstanding,
        tracer,
    );
    let peak = adapter::peak_rss_bytes();
    let setup = more_setups(built.seconds, || {
        build_service(&el, "serve-full", nproc, tracer, None).seconds
    });
    report.attempted = served.records.len() as u64;
    report.failed = served.records.iter().filter(|d| !d.ok).count() as u64;
    let latency = latencies(&served.records);
    let p99 = stats::percentile(&latency, 99.0).unwrap_or(f64::NAN);
    report.notes.push(format!(
        "served {:.3}/s ({} answers in {seconds} s); p99 {p99:.3} ms over {} answers",
        served.in_window as f64 / seconds,
        served.in_window,
        latency.len()
    ));
    let Some(t) = tracer else {
        push_end_to_end(&mut report, &setup, peak, &latency, served.cpu_s);
        return report;
    };
    layers::push_answers(&mut report, &latency, untraced_p50);
    let sink = sink.expect("traced service has a sink");
    push_service(&mut report, t, &built.svc, &sink, &served.records);
    let pairs = st_pairs(&el, &mut rng, DIRECT_SAMPLES);
    push_direct(&mut report, t, &el, &built, &pairs, &sources, &mut rng);
    report
}

pub(crate) fn run_road_st(
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    scale: &Scale,
) -> Report {
    let nproc = adapter::nproc();
    let (log_n, log_c) = scale.road;
    let rate = scale.st_rate;
    let el = adapter::generate(Family::Road, log_n, log_c, seed);
    let mut rng = Rng::new(seed ^ ROAD_SALT);
    let mut report = Report::default();
    report.notes.push(format!(
        "serve-road-st: {} seed={seed} nproc={nproc}, open loop at {rate}/s evenly spaced, bidi/delta_early/thorup_st in turn, {nproc} workers",
        adapter::input_name(Family::Road, log_n, log_c)
    ));
    let plan = st_plan(&el, &mut rng, (seconds * rate).ceil() as usize);
    // Every worker builds its early-exit split on first use; a burst of
    // each algorithm, waited out, reaches every worker before timing.
    let warm_up = |svc: &QueryService, graph: GraphId| {
        for algo in ALGOS {
            let handles: Vec<_> = plan
                .iter()
                .take(2 * nproc)
                .filter_map(|r| adapter::submit_st(svc, graph, r.s, r.t, algo))
                .collect();
            for h in handles {
                adapter::wait_st(h);
            }
        }
    };
    let mut untraced_p50 = f64::NAN;
    let (built, sink) = measured_service(&el, "serve-road-st", nproc, tracer, |svc, graph| {
        warm_up(svc, graph);
        let run = open_loop(svc, graph, &plan, seconds / 3.0, rate, None);
        untraced_p50 = stats::median(&latencies(&run.records)).unwrap_or(f64::NAN);
    });
    warm_up(&built.svc, built.graph);
    let run = open_loop(&built.svc, built.graph, &plan, seconds, rate, tracer);
    let peak = adapter::peak_rss_bytes();
    let setup = more_setups(built.seconds, || {
        build_service(&el, "serve-road-st", nproc, tracer, None).seconds
    });
    report.attempted = run.records.len() as u64;
    report.failed = run.records.iter().filter(|d| !d.ok).count() as u64;
    let latency = latencies(&run.records);
    let late = stats::percentile(&run.lateness_ms, 99.0).unwrap_or(0.0);
    let p99 = stats::percentile(&latency, 99.0).unwrap_or(f64::NAN);
    report.notes.push(format!(
        "generator lateness p99 {late:.3} ms; at end of generation {} outstanding, queue depth {}; max in flight {}; p99 {p99:.3} ms over {} answers",
        run.outstanding_end, run.queue_depth_end, run.max_in_flight, latency.len()
    ));
    report.invalid = open_loop_invalid(&run, rate, late);
    let Some(t) = tracer else {
        push_end_to_end(&mut report, &setup, peak, &latency, run.cpu_s);
        return report;
    };
    layers::push_answers(&mut report, &latency, untraced_p50);
    let sink = sink.expect("traced service has a sink");
    push_service(&mut report, t, &built.svc, &sink, &run.records);
    let pairs: Vec<StPair> = plan
        .iter()
        .step_by(plan.len().div_ceil(DIRECT_SAMPLES).max(1))
        .map(StRequest::pair)
        .collect();
    let (g, _) = adapter::served(&built.svc, built.graph);
    let sources = layers::oracle_sources(&g, &mut rng, DIRECT_SAMPLES);
    push_direct(&mut report, t, &el, &built, &pairs, &sources, &mut rng);
    report
}

/// `k` seeded s–t pairs of the graph `el`, drawn as [`st_plan`] draws the
/// `serve-road-st` stream, with the oracle's distances.
pub(crate) fn st_pairs(el: &EdgeList, rng: &mut Rng, k: usize) -> Vec<StPair> {
    st_plan(el, rng, k).iter().map(StRequest::pair).collect()
}

/// The `serve-road-st` request stream and its oracle, `requests` long.
/// Request `i` uses algorithm `i % 3`. Each algorithm's targets are
/// stratified in Dijkstra rank: its `k`-th of `r` strata draws the
/// target's rank from `[k·n/r, (k+1)·n/r)`. A target is still uniform over
/// the vertices, but every run sees the same spread of trip lengths, and
/// the trip length is what sets an early-exit solve's work and so the
/// latency tail. Every [`ST_TARGETS`] requests share one oracle source,
/// scattered through the stream.
fn st_plan(el: &EdgeList, rng: &mut Rng, requests: usize) -> Vec<StRequest> {
    let g = adapter::csr(el);
    let n = g.n();
    let shuffle = |v: &mut Vec<usize>, rng: &mut Rng| {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i + 1));
        }
    };
    let mut rank = vec![0; requests];
    for algo in 0..ALGOS.len() {
        let mine: Vec<usize> = (algo..requests).step_by(ALGOS.len()).collect();
        let mut strata: Vec<usize> = (0..mine.len()).collect();
        shuffle(&mut strata, rng);
        for (&i, &k) in mine.iter().zip(&strata) {
            let lo = k * n / mine.len();
            let hi = ((k + 1) * n / mine.len()).max(lo + 1);
            rank[i] = (lo + rng.below(hi - lo)).min(n - 1);
        }
    }
    let mut order: Vec<usize> = (0..requests).collect();
    shuffle(&mut order, rng);
    let mut plan = vec![
        StRequest {
            s: 0,
            t: 0,
            algo: 0,
            want: 0
        };
        requests
    ];
    for group in order.chunks(ST_TARGETS) {
        let s = rng.below(n) as VertexId;
        let d = adapter::dijkstra(&g, s);
        let mut by_rank: Vec<VertexId> = (0..n as VertexId).collect();
        by_rank.sort_unstable_by_key(|&v| (d[v as usize], v));
        for &i in group {
            let t = by_rank[rank[i]];
            plan[i] = StRequest {
                s,
                t,
                algo: i % ALGOS.len(),
                want: d[t as usize],
            };
        }
    }
    plan
}

/// Why an open-loop run is not a data point: its generator fell behind
/// the schedule, its backlog grew, or a reply could have waited for a
/// free waiter.
fn open_loop_invalid(run: &OpenLoop, rate: f64, late_p99_ms: f64) -> Option<String> {
    // A send a whole period late merges into the next one: the evenly
    // spaced schedule has become a burst.
    let period_ms = 1e3 / rate;
    if late_p99_ms > period_ms {
        return Some(format!(
            "generator fell behind: lateness p99 {late_p99_ms:.3} ms exceeds the {period_ms:.3} ms period"
        ));
    }
    // More than a second of arrivals unanswered means the queue grew.
    if run.outstanding_end as f64 > rate {
        return Some(format!(
            "backlog grew: {} outstanding at end",
            run.outstanding_end
        ));
    }
    if run.max_in_flight >= OPEN_WAITERS as u64 {
        return Some(format!(
            "{} in flight exceeded the waiters",
            run.max_in_flight
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_gets_one_target_per_rank_stratum() {
        let el = adapter::generate(Family::Road, 8, 6, 5);
        let g = adapter::csr(&el);
        let n = g.n();
        let per_algo = 20;
        let plan = st_plan(&el, &mut Rng::new(9), per_algo * ALGOS.len());
        for algo in 0..ALGOS.len() {
            let mut strata: Vec<usize> = plan
                .iter()
                .filter(|r| r.algo == algo)
                .map(|r| {
                    let d = adapter::dijkstra(&g, r.s);
                    assert_eq!(r.want, d[r.t as usize]);
                    let rank = (0..n)
                        .filter(|&v| (d[v], v) < (d[r.t as usize], r.t as usize))
                        .count();
                    (0..per_algo)
                        .rev()
                        .find(|&k| k * n / per_algo <= rank)
                        .expect("stratum 0 starts at rank 0")
                })
                .collect();
            strata.sort_unstable();
            assert_eq!(strata, (0..per_algo).collect::<Vec<_>>());
        }
    }
}
