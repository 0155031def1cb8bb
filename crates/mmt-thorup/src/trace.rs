//! Opt-in per-query lifecycle traces for the serving layer.
//!
//! The latency histograms in [`ServiceMetrics`](crate::service::ServiceMetrics)
//! answer "how slow" but not "why": was a slow query queued behind a burst,
//! held in a coalescing window, or simply expensive to solve? A
//! [`TraceEvent`] records one served query's full lifecycle — enqueue,
//! dequeue, coalesce, solve and reply timestamps, the work counters the
//! solve charged, and which coalesced batch (if any) carried it — and a
//! [`TraceSink`] receives one event per resolved query.
//!
//! Tracing is strictly opt-in via
//! [`QueryServiceBuilder::trace`](crate::service::QueryServiceBuilder::trace).
//! When no sink is installed the workers take one `Option` branch per
//! request and read no extra clocks or counters — the trace apparatus
//! costs nothing in production.
//!
//! Timestamps are microseconds relative to the service's construction
//! instant (its *epoch*), so events from one service are mutually
//! comparable without wall-clock plumbing. Counter fields on coalesced
//! members report the *batch totals* (members solve concurrently on
//! shared counters); singleton events report exact per-query work.

use mmt_graph::types::VertexId;
use parking_lot::Mutex;
use std::io::Write;

/// One query's lifecycle record, serialisable as a JSON line.
///
/// Every field is present in the JSON encoding; optional stages encode as
/// `null` (a query served outside a coalescing window has no
/// `coalesce_us`, and one rejected before solving has no `solve_us`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The admitted query's typed id, rendered (e.g. `"q7"`).
    pub query: String,
    /// The registered name of the graph the query ran on.
    pub graph: String,
    /// Request shape: `"full"`, `"target"` or `"batch"`.
    pub kind: String,
    /// The query's source vertex (original ids).
    pub source: VertexId,
    /// When the request was admitted to its shard queue.
    pub enqueue_us: u64,
    /// When a worker took the request off the queue.
    pub dequeue_us: u64,
    /// When a coalescing worker gathered this member into its forming
    /// batch; `None` for batch openers and non-coalesced requests.
    pub coalesce_us: Option<u64>,
    /// When the solve began; `None` when the request was resolved
    /// without solving (expired, cancelled, evicted).
    pub solve_us: Option<u64>,
    /// When the answer (or typed rejection) was handed to the reply
    /// channel.
    pub reply_us: u64,
    /// The coalesced batch this query was solved in, when it shared a
    /// [`BatchSolver`](crate::batch::BatchSolver) run with at least one
    /// other query.
    pub batch: Option<u64>,
    /// Members in the solving batch (1 when not coalesced).
    pub batch_size: u32,
    /// Edge relaxations charged to the solve (batch total for coalesced
    /// members; zero when counters were unavailable).
    pub relaxations: u64,
    /// CSR arcs scanned by the solve (batch total for coalesced members).
    pub arcs_scanned: u64,
    /// `"ok"` or the typed rejection's label (`"deadline"`,
    /// `"cancelled"`, `"worker-lost"`, ...).
    pub outcome: String,
}

/// Minimal string escaping for the hand-rolled JSON this crate emits
/// (trace lines and the metrics snapshot): quotes, backslashes and control
/// characters, so a caller-chosen graph name can never break a line.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn opt(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

impl TraceEvent {
    /// Renders the event as one JSON object on one line (no trailing
    /// newline). Field order is fixed; absent stages are `null`; string
    /// fields are escaped.
    pub fn to_json_line(&self) -> String {
        format!(
            concat!(
                "{{\"query\":\"{}\",\"graph\":\"{}\",\"kind\":\"{}\",",
                "\"source\":{},\"enqueue_us\":{},\"dequeue_us\":{},",
                "\"coalesce_us\":{},\"solve_us\":{},\"reply_us\":{},",
                "\"batch\":{},\"batch_size\":{},",
                "\"relaxations\":{},\"arcs_scanned\":{},\"outcome\":\"{}\"}}"
            ),
            escape_json(&self.query),
            escape_json(&self.graph),
            escape_json(&self.kind),
            self.source,
            self.enqueue_us,
            self.dequeue_us,
            opt(self.coalesce_us),
            opt(self.solve_us),
            self.reply_us,
            opt(self.batch),
            self.batch_size,
            self.relaxations,
            self.arcs_scanned,
            escape_json(&self.outcome),
        )
    }
}

/// Receives one [`TraceEvent`] per resolved query, on the worker thread
/// that resolved it. Implementations must be cheap and must not panic:
/// a sink runs inside the serving hot path (only when installed).
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Called once per resolved query.
    fn record(&self, event: &TraceEvent);
}

/// A [`TraceSink`] that buffers events in memory — the test- and
/// diagnosis-friendly default.
#[derive(Debug, Default)]
pub struct MemoryTraceSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemoryTraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every event recorded so far, in arrival order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Every recorded event rendered as JSON lines.
    pub fn lines(&self) -> Vec<String> {
        self.events
            .lock()
            .iter()
            .map(TraceEvent::to_json_line)
            .collect()
    }
}

impl TraceSink for MemoryTraceSink {
    fn record(&self, event: &TraceEvent) {
        self.events.lock().push(event.clone());
    }
}

/// A [`TraceSink`] that writes each event as a JSON line to a writer
/// (file, stderr, pipe). Write errors are swallowed: tracing must never
/// take the serving path down.
pub struct JsonLinesSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> std::fmt::Debug for JsonLinesSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps a writer; each recorded event appends one line.
    pub fn new(out: W) -> Self {
        Self {
            out: Mutex::new(out),
        }
    }

    /// Unwraps the writer (flushing is the caller's business).
    pub fn into_inner(self) -> W {
        self.out.into_inner()
    }
}

impl<W: Write + Send> TraceSink for JsonLinesSink<W> {
    fn record(&self, event: &TraceEvent) {
        let mut out = self.out.lock();
        let _ = writeln!(out, "{}", event.to_json_line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEvent {
        TraceEvent {
            query: "q3".into(),
            graph: "usa-east".into(),
            kind: "full".into(),
            source: 17,
            enqueue_us: 100,
            dequeue_us: 150,
            coalesce_us: Some(160),
            solve_us: Some(170),
            reply_us: 900,
            batch: Some(2),
            batch_size: 4,
            relaxations: 12_345,
            arcs_scanned: 23_456,
            outcome: "ok".into(),
        }
    }

    #[test]
    fn json_line_has_every_field_and_encodes_nulls() {
        let line = sample().to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        for key in [
            "query",
            "graph",
            "kind",
            "source",
            "enqueue_us",
            "dequeue_us",
            "coalesce_us",
            "solve_us",
            "reply_us",
            "batch",
            "batch_size",
            "relaxations",
            "arcs_scanned",
            "outcome",
        ] {
            assert!(line.contains(&format!("\"{key}\":")), "missing {key}");
        }
        let mut bare = sample();
        bare.coalesce_us = None;
        bare.solve_us = None;
        bare.batch = None;
        let line = bare.to_json_line();
        assert!(line.contains("\"coalesce_us\":null"));
        assert!(line.contains("\"solve_us\":null"));
        assert!(line.contains("\"batch\":null"));
    }

    #[test]
    fn memory_sink_buffers_in_order() {
        let sink = MemoryTraceSink::new();
        let mut second = sample();
        second.query = "q4".into();
        sink.record(&sample());
        sink.record(&second);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].query, "q3");
        assert_eq!(events[1].query, "q4");
        assert_eq!(sink.lines()[1], second.to_json_line());
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let sink = JsonLinesSink::new(Vec::new());
        sink.record(&sample());
        sink.record(&sample());
        let buf = sink.into_inner();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert_eq!(text.lines().next().unwrap(), sample().to_json_line());
    }
}
