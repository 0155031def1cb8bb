//! Measurement helpers: a stopwatch and repeated-run statistics.
//!
//! The paper averages 10 SSSP runs per timing but measures Component
//! Hierarchy construction once; [`RunStats`] supports both styles.

use std::time::{Duration, Instant};

/// A simple monotonic stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed seconds as `f64`.
    pub fn seconds(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Statistics over a set of timed runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    samples: Vec<f64>,
}

impl RunStats {
    /// Measures `f` once, returning both its result and the elapsed seconds.
    pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, f64) {
        let sw = Stopwatch::start();
        let r = f();
        (r, sw.seconds())
    }

    /// Runs `f` `runs` times and collects per-run wall times.
    pub fn measure(runs: usize, mut f: impl FnMut()) -> Self {
        let mut samples = Vec::with_capacity(runs);
        for _ in 0..runs {
            let sw = Stopwatch::start();
            f();
            samples.push(sw.seconds());
        }
        Self { samples }
    }

    /// Builds stats from existing samples (seconds).
    pub fn from_samples(samples: Vec<f64>) -> Self {
        Self { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean (0.0 for an empty set).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Minimum sample (0.0 for an empty set).
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Maximum sample (0.0 for an empty set).
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(0.0, f64::max)
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .samples
            .iter()
            .map(|s| (s - mean) * (s - mean))
            .sum::<f64>()
            / self.samples.len() as f64;
        var.sqrt()
    }

    /// The first quartile, the median and the third quartile, each the
    /// nearest-rank sample (all 0.0 for an empty set).
    pub fn quartiles(&self) -> (f64, f64, f64) {
        if self.samples.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        (at(0.25), at(0.5), at(0.75))
    }

    /// The raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Formats seconds the way the paper's tables do (`7.53s`, `0.0042s`).
pub fn fmt_seconds(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 0.001 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.2}us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.seconds() > 0.0);
    }

    #[test]
    fn stats_basic() {
        let s = RunStats::from_samples(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert!((s.stddev() - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stats_empty_and_single() {
        let e = RunStats::from_samples(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.min(), 0.0);
        assert_eq!(e.max(), 0.0);
        assert_eq!(e.stddev(), 0.0);
        let one = RunStats::from_samples(vec![5.0]);
        assert_eq!(one.mean(), 5.0);
        assert_eq!(one.stddev(), 0.0);
    }

    #[test]
    fn quartiles_are_nearest_rank_samples() {
        let s = RunStats::from_samples(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.quartiles(), (2.0, 3.0, 4.0));
        assert_eq!(
            RunStats::from_samples(vec![7.0]).quartiles(),
            (7.0, 7.0, 7.0)
        );
        assert_eq!(RunStats::from_samples(vec![]).quartiles(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn measure_collects_runs() {
        let mut calls = 0;
        let s = RunStats::measure(4, || calls += 1);
        assert_eq!(calls, 4);
        assert_eq!(s.len(), 4);
        assert!(s.samples().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn time_once_returns_value() {
        let (v, secs) = RunStats::time_once(|| 42);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_seconds(123.4), "123s");
        assert_eq!(fmt_seconds(7.531), "7.53s");
        assert_eq!(fmt_seconds(0.00423), "4.23ms");
        assert_eq!(fmt_seconds(0.0000005), "0.50us");
    }
}
