//! What the two bench artifacts share: the run shape, the header each
//! artifact opens with, and the schema check. `hotpath` and `layout` own
//! their rows; everything above the rows is written here, once.

use crate::json::{self, Json};

/// Run shape: scale, repetitions and sources per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunShape {
    /// log2 of the vertex count per workload.
    pub scale: u32,
    /// Timed repetitions of the whole source sweep, per row.
    pub iterations: usize,
    /// Query sources per workload.
    pub sources: usize,
    /// True for the CI smoke shape.
    pub smoke: bool,
}

impl RunShape {
    /// The CI smoke shape: tiny scale, two iterations — seconds, not
    /// minutes, but every code path and every artifact field exercised.
    pub fn smoke() -> Self {
        Self {
            scale: 8,
            iterations: 2,
            sources: 3,
            smoke: true,
        }
    }

    /// The measurement shape: scale from `MMT_SCALE` (default
    /// `default_scale`), iterations from `MMT_RUNS` capped at
    /// `max_iterations`, four sources per workload.
    pub fn full(default_scale: u32, max_iterations: usize) -> Self {
        Self {
            scale: crate::scale_from_env(default_scale),
            iterations: crate::runs_from_env().min(max_iterations),
            sources: 4,
            smoke: false,
        }
    }
}

/// The header every artifact opens with: its run shape and the host it
/// ran on.
#[derive(Debug, Clone)]
pub struct Header {
    /// Run shape.
    pub shape: RunShape,
    /// Thread budget the measurement ran under (the installed rayon
    /// budget — equal to `host_logical_cores` outside a forced pool).
    pub threads: usize,
    /// Logical cores on the measuring host.
    pub host_logical_cores: usize,
    /// For artifacts with allocation columns: whether the counting
    /// allocator was built in. `None` omits the key.
    pub alloc_counting: Option<bool>,
    /// For artifacts with multi-lane rows: the [`capacity_probe`] just
    /// before and just after the run. `None` omits the keys.
    pub capacity: Option<(f64, f64)>,
    /// Peak RSS when the header was captured (0 where unavailable).
    pub peak_rss_bytes: u64,
}

impl Header {
    /// Captures the host's state at the end of a run of `shape`.
    pub fn capture(shape: RunShape, alloc_counting: Option<bool>) -> Self {
        Self {
            shape,
            threads: rayon::current_num_threads(),
            host_logical_cores: mmt_platform::available_threads(),
            alloc_counting,
            capacity: None,
            peak_rss_bytes: mmt_platform::mem::peak_rss_bytes().unwrap_or(0),
        }
    }

    /// Writes the header's keys, each on its own two-space-indented line
    /// with a trailing comma, after an opening `{` line: the artifact's
    /// rows follow.
    pub fn write_json(&self, version: u64, out: &mut String) {
        let s = &self.shape;
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {version},\n"));
        out.push_str(&format!("  \"smoke\": {},\n", s.smoke));
        out.push_str(&format!("  \"scale\": {},\n", s.scale));
        out.push_str(&format!("  \"iterations\": {},\n", s.iterations));
        out.push_str(&format!("  \"sources_per_workload\": {},\n", s.sources));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!(
            "  \"host_logical_cores\": {},\n",
            self.host_logical_cores
        ));
        if let Some(counting) = self.alloc_counting {
            out.push_str(&format!("  \"alloc_counting\": {counting},\n"));
        }
        if let Some((before, after)) = self.capacity {
            out.push_str(&format!("  \"capacity_before\": {before},\n"));
            out.push_str(&format!("  \"capacity_after\": {after},\n"));
        }
        out.push_str(&format!("  \"peak_rss_bytes\": {},\n", self.peak_rss_bytes));
    }
}

/// The host's capacity for two threads: the 2-thread/1-thread throughput
/// ratio of a fixed compute loop, each side timed at its best of three.
/// About 2 when two cores are free and about 1 when the host has dropped
/// to one, which a 2-lane row cannot tell from a regression without it.
pub fn capacity_probe() -> f64 {
    const STEPS: u64 = 20_000_000;
    fn spin() -> f64 {
        let start = std::time::Instant::now();
        let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x);
        start.elapsed().as_secs_f64()
    }
    let (mut one, mut two) = (f64::MAX, f64::MAX);
    for _ in 0..3 {
        one = one.min(spin());
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            s.spawn(spin);
            spin();
        });
        two = two.min(start.elapsed().as_secs_f64());
    }
    2.0 * one / two
}

/// Parses `text`, validates it against `schema`, the checked-in JSON
/// schema of its family, and requires its `version` to be `version`, the
/// family's current format: an artifact recorded by an older format fails
/// even where its keys still satisfy the schema. This is what
/// `bench <family> --check` runs.
pub fn check_artifact(schema: &str, version: u64, text: &str) -> Result<Json, String> {
    let schema = json::parse(schema).map_err(|e| format!("schema is invalid JSON: {e}"))?;
    let value = json::parse(text).map_err(|e| format!("artifact does not parse: {e}"))?;
    json::validate(&value, &schema).map_err(|e| format!("artifact violates schema: {e}"))?;
    match value.get("version").and_then(Json::as_num) {
        Some(v) if v == version as f64 => Ok(value),
        found => Err(format!(
            "artifact is format version {}, expected {version}: re-record it",
            found.map_or_else(|| "(none)".to_string(), |v| v.to_string())
        )),
    }
}

/// `count` per second of `secs` (0 when nothing was measured).
pub fn per_sec(count: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// The separator after item `i` of `len` in a JSON list.
pub(crate) fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_artifact_one_version_behind_fails_the_check() {
        let schema = r#"{"type": "object", "required": ["version"],
            "properties": {"version": {"type": "integer", "minimum": 1}}}"#;
        assert!(check_artifact(schema, 8, r#"{"version": 8}"#).is_ok());
        let err = check_artifact(schema, 8, r#"{"version": 7}"#).unwrap_err();
        assert!(err.contains("version 7, expected 8"), "{err}");
    }
}
