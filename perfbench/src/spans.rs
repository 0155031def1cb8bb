//! In-memory spans for the traced run.
//!
//! A span is a name, a start and end on one clock, the span that caused
//! it, and the id of the request it belongs to. Spans are recorded only
//! from the benchmark's own code, around its calls into the library, and
//! are kept in memory until the run ends. A span's self time is its
//! duration minus the part of it its children cover.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    /// The request this span serves; `0` outside requests.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A span id not used before, for a span whose children end first.
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records span `id`, which ran from `start` to `end`.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            name,
            id,
            parent,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Durations in seconds of every span named `name`.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one JSON line with its self time.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let spans = self.spans();
        for s in &spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.id,
                s.parent,
                s.request,
                s.start_ns,
                s.end_ns,
                self_time_ns(s, &spans)
            )?;
        }
        Ok(())
    }
}

/// Runs `f`, recording a span around it when tracing. `f` receives the
/// span's id (to parent its children) — `0` when not tracing, and then no
/// clock is read.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    f: impl FnOnce(u64) -> R,
) -> R {
    let Some(t) = tracer else {
        return f(0);
    };
    let id = t.fresh_id();
    let start = Instant::now();
    let out = f(id);
    t.record(id, name, parent, 0, start, Instant::now());
    out
}

/// `span`'s duration minus the union of its children's intervals.
pub fn self_time_ns(span: &Span, all: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == span.id)
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    span.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            id,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let all = vec![
            s(1, 0, 0, 100),
            s(2, 1, 10, 40),
            s(3, 1, 30, 50),
            s(4, 2, 10, 20),
        ];
        assert_eq!(self_time_ns(&all[0], &all), 60);
        assert_eq!(self_time_ns(&all[1], &all), 20);
        assert_eq!(self_time_ns(&all[3], &all), 10);
    }
}
