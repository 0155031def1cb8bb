use perfbench::spans::Tracer;
use perfbench::stats::highest_tail;
use perfbench::{one_thread_counters, run, Report, Scale, Workload};
use std::collections::BTreeSet;

const WORKLOADS: [(&str, Workload); 3] = [
    ("paper-solve", Workload::PaperSolve),
    ("serve-full", Workload::ServeFull),
    ("serve-road-st", Workload::ServeRoadSt),
];

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let samples = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
    assert_eq!(highest_tail(&samples(19)), None);
    let t = highest_tail(&samples(20)).expect("p50 has ten beyond");
    assert_eq!((t.percentile, t.value, t.samples), (50.0, 10.0, 20));
    let t = highest_tail(&samples(999)).expect("supported");
    assert_eq!((t.percentile, t.samples), (95.0, 999));
    let t = highest_tail(&samples(1000)).expect("supported");
    assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
    let t = highest_tail(&samples(10_000)).expect("supported");
    assert_eq!((t.percentile, t.value, t.samples), (99.9, 9990.0, 10_000));
}

#[test]
fn one_thread_work_counters_repeat_exactly() {
    let scale = Scale::tiny();
    let first = one_thread_counters(7, &scale);
    assert_eq!(first.len(), 4);
    assert!(first.iter().all(|&(_, arcs, relax)| arcs > 0 && relax > 0));
    assert_eq!(first, one_thread_counters(7, &scale));
}

fn check(name: &str, report: &Report) {
    assert!(report.attempted > 0, "{name}: nothing attempted");
    assert_eq!(
        report.failed, 0,
        "{name}: {} wrong or missing answers",
        report.failed
    );
    assert!(report.correct(), "{name}");
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{name}: {} has no value", m.name);
    }
}

/// Metric names BENCHMARK.json declares under `section` (`end_to_end` or
/// `per_layer`).
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let from = text
        .find(&format!("\"{section}\""))
        .expect("section declared");
    let list = &text[from..from + text[from..].find(']').expect("closed list")];
    let key = "\"name\": \"";
    list.match_indices(key)
        .map(|(at, _)| {
            let rest = &list[at + key.len()..];
            rest[..rest.find('"').expect("closed string")].to_string()
        })
        .collect()
}

fn names(report: &Report) -> BTreeSet<String> {
    report.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn tiny_runs_pass_their_answer_checks_and_each_report_every_declared_metric() {
    let scale = Scale::tiny();
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for (name, workload) in WORKLOADS {
        let plain = run(workload, 3, 0.3, None, &scale);
        check(name, &plain);
        assert_eq!(names(&plain), end_to_end, "{name}: untraced metrics");
        let tracer = Tracer::default();
        let traced = run(workload, 3, 0.3, Some(&tracer), &scale);
        check(name, &traced);
        assert!(
            !tracer.spans().is_empty(),
            "{name}: traced run recorded no spans"
        );
        // The drift probe's metric is added by the runner script.
        let mut reported = names(&traced);
        reported.insert("host.chase_ns".to_string());
        assert_eq!(reported, per_layer, "{name}: traced metrics");
    }
}
