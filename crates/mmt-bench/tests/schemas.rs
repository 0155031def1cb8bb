//! Cross-crate schema contracts: the JSON the serving layer emits — the
//! metrics snapshot and the per-query trace lines — parsed and validated
//! with the same hand-rolled checker that gates the bench artifacts. The
//! emitters live in `mmt-thorup` and the schemas here, so these tests are
//! what keeps the two from drifting apart.

use mmt_bench::json::{self, Json};
use mmt_ch::build_serial;
use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
use mmt_graph::CsrGraph;
use mmt_thorup::{
    GraphRegistry, MemoryTraceSink, QueryRequest, QueryService, TraceEvent, TraceSink,
};
use std::sync::Arc;
use std::time::Duration;

const METRICS_SCHEMA: &str = include_str!("../schema/metrics.schema.json");

fn traced_service() -> (QueryService, Arc<MemoryTraceSink>) {
    let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 7, 6);
    spec.seed = 9;
    let el = spec.generate();
    let graph = Arc::new(CsrGraph::from_edge_list(&el));
    let ch = Arc::new(build_serial(&el, mmt_ch::ChMode::Collapsed));
    let mut registry = GraphRegistry::new();
    registry.register("default", &graph, ch).unwrap();
    let sink = Arc::new(MemoryTraceSink::new());
    let service = QueryService::builder()
        .workers(1)
        .coalesce_budget(Duration::from_millis(200))
        .coalesce_batch_cap(4)
        .trace(Arc::clone(&sink) as Arc<dyn TraceSink>)
        .build_registry(registry)
        .unwrap();
    (service, sink)
}

/// A live metrics snapshot — counters, per-graph sections, quantile
/// exports, raw histograms — must satisfy the checked-in schema, so
/// dashboards can rely on the shape without reading Rust.
#[test]
fn metrics_snapshot_json_satisfies_the_checked_in_schema() {
    let (service, _sink) = traced_service();
    let handles: Vec<_> = (0..8u32).map(|s| service.submit(s * 5).unwrap()).collect();
    for h in handles {
        h.wait().unwrap();
    }
    // Exercise a rejection row too: an unknown graph id is typed input.
    let snap = service.metrics().snapshot();
    let text = snap.to_json();
    let schema = json::parse(METRICS_SCHEMA).expect("schema is valid JSON");
    let value = json::parse(&text).expect("snapshot renders valid JSON");
    json::validate(&value, &schema)
        .unwrap_or_else(|e| panic!("snapshot violates schema: {e}\n{text}"));
    // Spot-check the values survived the round trip numerically.
    assert_eq!(
        value.get("served_full").and_then(Json::as_num),
        Some(snap.served_full as f64)
    );
    assert_eq!(
        value.get("coalesced_batches").and_then(Json::as_num),
        Some(snap.coalesced_batches as f64)
    );
    let q = value.get("latency_quantiles_us").expect("quantile export");
    assert_eq!(
        q.get("p95").and_then(Json::as_num),
        Some(snap.latency_quantiles().p95 as f64)
    );
    let graphs = value.get("graphs").and_then(Json::as_arr).unwrap();
    assert_eq!(graphs.len(), 1);
    assert_eq!(
        graphs[0].get("name").and_then(Json::as_str),
        Some("default")
    );
}

/// Every field of a trace line must survive a parse round trip — numbers
/// as numbers, absent stages as real JSON nulls — for a coalesced event, a
/// bare singleton one, and one whose graph name holds quotes and a newline.
#[test]
fn trace_lines_round_trip_through_the_json_parser() {
    let coalesced = TraceEvent {
        query: "q7".into(),
        graph: "usa-east".into(),
        kind: "full".into(),
        source: 42,
        enqueue_us: 10,
        dequeue_us: 25,
        coalesce_us: Some(31),
        solve_us: Some(40),
        reply_us: 900,
        batch: Some(3),
        batch_size: 4,
        relaxations: 12_345,
        arcs_scanned: 23_456,
        outcome: "ok".into(),
    };
    let v = json::parse(&coalesced.to_json_line()).expect("trace lines are valid JSON");
    let num = |key: &str| v.get(key).and_then(Json::as_num).unwrap();
    assert_eq!(v.get("query").and_then(Json::as_str), Some("q7"));
    assert_eq!(v.get("graph").and_then(Json::as_str), Some("usa-east"));
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("full"));
    assert_eq!(v.get("outcome").and_then(Json::as_str), Some("ok"));
    assert_eq!(num("source"), 42.0);
    assert_eq!(num("enqueue_us"), 10.0);
    assert_eq!(num("dequeue_us"), 25.0);
    assert_eq!(num("coalesce_us"), 31.0);
    assert_eq!(num("solve_us"), 40.0);
    assert_eq!(num("reply_us"), 900.0);
    assert_eq!(num("batch"), 3.0);
    assert_eq!(num("batch_size"), 4.0);
    assert_eq!(num("relaxations"), 12_345.0);
    assert_eq!(num("arcs_scanned"), 23_456.0);

    let singleton = TraceEvent {
        coalesce_us: None,
        solve_us: None,
        batch: None,
        batch_size: 1,
        outcome: "deadline".into(),
        ..coalesced
    };
    let v = json::parse(&singleton.to_json_line()).expect("null stages stay valid JSON");
    assert_eq!(v.get("coalesce_us"), Some(&Json::Null));
    assert_eq!(v.get("solve_us"), Some(&Json::Null));
    assert_eq!(v.get("batch"), Some(&Json::Null));
    assert_eq!(v.get("batch_size").and_then(Json::as_num), Some(1.0));
    assert_eq!(v.get("outcome").and_then(Json::as_str), Some("deadline"));

    // The graph name is whatever the caller registered: it must stay one
    // line and come back exactly.
    let name = "usa \"east\"\nwest";
    let awkward = TraceEvent {
        graph: name.into(),
        ..singleton
    };
    let line = awkward.to_json_line();
    assert!(!line.contains('\n'), "one event, one line: {line}");
    let v = json::parse(&line).expect("an escaped graph name stays valid JSON");
    assert_eq!(v.get("graph").and_then(Json::as_str), Some(name));
}

/// The traces a real coalesced service emits parse as JSON lines too —
/// the end-to-end spelling of the synthetic round trip above.
#[test]
fn live_service_trace_lines_parse_and_cover_the_lifecycle() {
    let (service, sink) = traced_service();
    let handles: Vec<_> = (0..4u32)
        .map(|s| service.submit(QueryRequest::new(s * 9)).unwrap())
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    let lines = sink.lines();
    assert_eq!(lines.len(), 4);
    for line in &lines {
        let v = json::parse(line).expect("live trace line parses");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("full"));
        assert_eq!(v.get("outcome").and_then(Json::as_str), Some("ok"));
        let enq = v.get("enqueue_us").and_then(Json::as_num).unwrap();
        let rep = v.get("reply_us").and_then(Json::as_num).unwrap();
        assert!(enq <= rep, "{line}");
    }
}
