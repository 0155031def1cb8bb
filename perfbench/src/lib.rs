//! End-to-end and per-layer benchmark of the shortest-paths workspace.
//!
//! Three workloads, each built from one seed:
//!
//! * `paper-solve` — the paper's comparison: Thorup against the stepping
//!   kernels, time to solution at the host's thread count;
//! * `serve-full` — many simultaneous full queries over one shared
//!   Component Hierarchy (the paper's Fig. 5), as a closed loop;
//! * `serve-road-st` — independent routing clients sending s–t queries
//!   on a fixed schedule (an open loop).
//!
//! Every workload reports the same metrics. An untraced run reports the
//! end-to-end ones — set-up time, peak RSS, and the median time and CPU
//! cost of one answer, where an answer is what the workload's caller
//! waits for: one source solved by all four engines, one full query, one
//! s–t query. A separate traced run reports the per-layer ones
//! ([`layers`]). Every answer is checked against the Dijkstra oracle,
//! computed outside every timing.

pub mod adapter;
mod layers;
mod paper;
pub mod probe;
mod serve;
pub mod spans;
pub mod stats;

use spans::Tracer;
use std::fmt::Write as _;

pub use paper::one_thread_counters;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSolve,
    ServeFull,
    ServeRoadSt,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper-solve" => Some(Self::PaperSolve),
            "serve-full" => Some(Self::ServeFull),
            "serve-road-st" => Some(Self::ServeRoadSt),
            _ => None,
        }
    }
}

/// Set-ups per run: at least this many, and as many as fill
/// [`SETUP_SECONDS`] at the first one's pace, up to [`MAX_SETUP_REPS`].
/// `setup_s` is their median.
pub(crate) const SETUP_REPS: usize = 7;
const SETUP_SECONDS: f64 = 2.5;
const MAX_SETUP_REPS: usize = 40;

/// How many set-ups a run makes, given the time the first one took.
fn setup_reps(first_s: f64) -> usize {
    let fill = (SETUP_SECONDS / first_s.max(1e-6)).ceil() as usize;
    fill.clamp(SETUP_REPS, MAX_SETUP_REPS)
}

/// A run's set-up times: `first_s`, the set-up its measured phase used,
/// then as many more as [`setup_reps`] asks for, each made by `again`.
/// Call it after the phase and after reading the peak RSS, so repeated
/// set-ups add nothing to the peak a single set-up and its run reach.
pub(crate) fn more_setups(first_s: f64, mut again: impl FnMut() -> f64) -> Vec<f64> {
    let mut seconds = vec![first_s];
    seconds.extend((1..setup_reps(first_s)).map(|_| again()));
    seconds
}

/// Input sizes and offered load. [`Scale::full`] is what the benchmark
/// runs; [`Scale::tiny`] exercises the same code in the tests.
#[derive(Debug, Clone)]
pub struct Scale {
    /// `(log2 n, log2 C)` of Rand-UWD for `paper-solve`.
    pub paper: (u32, u32),
    /// `(log2 n, log2 C)` of Rand-UWD for `serve-full`.
    pub full: (u32, u32),
    /// `(log2 n, log2 C)` of Road-UWD for `serve-road-st`.
    pub road: (u32, u32),
    /// The fixed `serve-road-st` offered rate, requests per second.
    pub st_rate: f64,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            paper: (17, 17),
            full: (16, 16),
            road: (14, 14),
            st_rate: 60.0,
        }
    }

    pub fn tiny() -> Self {
        Self {
            paper: (10, 10),
            full: (10, 10),
            road: (10, 8),
            st_rate: 200.0,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and tail support, for the human-readable report.
    pub note: String,
}

/// One run's outcome: operation counts, metrics, and diagnostics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines printed above the result (sizes, sample counts).
    pub notes: Vec<String>,
    /// Why the run is not a data point, when it is not.
    pub invalid: Option<String>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// SplitMix64: the benchmark's own seeded stream of sources and targets.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over a distance vector: the oracle kept per source, so checking
/// a full answer holds 8 bytes instead of `8n`.
pub fn hash_distances(dists: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for d in dists {
        h = (h ^ d).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs one workload for `seconds` of measurement. With a tracer the run
/// is the traced one and reports per-layer metrics; without, it reports
/// the end-to-end metrics.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    scale: &Scale,
) -> Report {
    match workload {
        Workload::PaperSolve => paper::run(seed, seconds, tracer, scale),
        Workload::ServeFull => serve::run_full(seed, seconds, tracer, scale),
        Workload::ServeRoadSt => serve::run_road_st(seed, seconds, tracer, scale),
    }
}

/// User plus system CPU time of this whole process so far, in seconds,
/// from `/proc/self/stat` (clock ticks of 1/100 s); NaN where unreadable.
pub(crate) fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').map_or(0, |i| i + 1)..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) as f64 / 100.0,
        _ => f64::NAN,
    }
}

/// The end-to-end metrics: the median set-up, the process's peak RSS
/// (`VmHWM`, read once the measured phase is over), the median answer,
/// and the CPU time per answer.
pub(crate) fn push_end_to_end(
    report: &mut Report,
    setup: &[f64],
    peak_rss_bytes: u64,
    answers_ms: &[f64],
    cpu_s: f64,
) {
    push_median(report, "setup_s", setup, "s");
    report.push(
        "peak_rss_mb",
        peak_rss_bytes as f64 / (1u64 << 20) as f64,
        "MiB",
        "VmHWM after one set-up and the measured phase".into(),
    );
    push_percentile(report, "answer_p50_ms", answers_ms, 50.0, "ms");
    report.push(
        "cpu_ms_per_answer",
        cpu_s * 1e3 / answers_ms.len() as f64,
        "ms",
        format!("{:.3} CPU-s over {} answers", cpu_s, answers_ms.len()),
    );
}

/// Pushes the median of `samples` as a metric, noting the sample count.
pub(crate) fn push_median(
    report: &mut Report,
    name: impl Into<String>,
    samples: &[f64],
    unit: &'static str,
) {
    let value = stats::median(samples).unwrap_or(f64::NAN);
    report.push(name, value, unit, format!("median of {}", samples.len()));
}

/// Pushes nearest-rank percentile `p` of `samples`, noting the sample
/// count and the highest percentile the count supports.
pub(crate) fn push_percentile(
    report: &mut Report,
    name: impl Into<String>,
    samples: &[f64],
    p: f64,
    unit: &'static str,
) {
    let value = stats::percentile(samples, p).unwrap_or(f64::NAN);
    let tail = stats::highest_tail(samples)
        .map(|t| format!("highest supported tail p{} = {:.3}", t.percentile, t.value))
        .unwrap_or_else(|| "no tail supported".into());
    report.push(
        name,
        value,
        unit,
        format!("p{p} of {} samples; {tail}", samples.len()),
    );
}
