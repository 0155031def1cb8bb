//! Cache-padded event counters for algorithm instrumentation.
//!
//! The paper's analysis leans on *why* numbers come out the way they do:
//! how many loop setups the toVisit construction pays for, how far `mind`
//! updates propagate, how many relaxations each algorithm performs. These
//! counters make those quantities observable without distorting the hot
//! paths (relaxed atomics, one cache line each).

use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// A single cache-padded relaxed counter.
#[derive(Debug, Default)]
pub struct Counter(CachePadded<AtomicU64>);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (relaxed; counters are statistics, not synchronisation).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn bump(&self) {
        self.add(1);
    }

    /// Subtracts `n` (wrapping; used for gauge-style counters such as
    /// queue depth, where increments and decrements are paired).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// The standard set of events the solvers report.
///
/// Every SSSP engine in the workspace fills in the subset that makes sense
/// for it; the benchmark harness prints them alongside timings.
#[derive(Debug, Default)]
pub struct EventCounters {
    /// Edge relaxations attempted (one per directed edge scan).
    pub relaxations: Counter,
    /// Relaxations that strictly lowered a tentative distance.
    pub improvements: Counter,
    /// Vertices settled.
    pub settled: Counter,
    /// Parallel-loop setups performed (the cost Table 6 is about).
    pub parallel_loop_setups: Counter,
    /// Serial-loop fallbacks chosen by the selective toVisit strategy.
    pub serial_loops: Counter,
    /// Total hops `mind` updates travelled up the Component Hierarchy.
    pub mind_propagation_hops: Counter,
    /// Bucket expansions (Thorup visit-loop iterations / delta-stepping phases).
    pub bucket_expansions: Counter,
    /// Directed arcs read out of the CSR adjacency arrays. A relaxation
    /// implies an arc scan but not vice versa (a kernel may read an arc and
    /// decide not to relax), so this is the cache-traffic proxy the layout
    /// experiments report: permutations change *where* these reads land,
    /// not how many there are.
    pub arcs_scanned: Counter,
}

/// A plain-value copy of an [`EventCounters`] at one instant — what the
/// benchmark emitters serialise, so both bench binaries share one counters
/// story instead of each reading atomics ad hoc.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// See [`EventCounters::relaxations`].
    pub relaxations: u64,
    /// See [`EventCounters::improvements`].
    pub improvements: u64,
    /// See [`EventCounters::settled`].
    pub settled: u64,
    /// See [`EventCounters::parallel_loop_setups`].
    pub parallel_loop_setups: u64,
    /// See [`EventCounters::serial_loops`].
    pub serial_loops: u64,
    /// See [`EventCounters::mind_propagation_hops`].
    pub mind_propagation_hops: u64,
    /// See [`EventCounters::bucket_expansions`].
    pub bucket_expansions: u64,
    /// See [`EventCounters::arcs_scanned`].
    pub arcs_scanned: u64,
}

impl EventCounters {
    /// A zeroed set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets every counter.
    pub fn reset(&self) {
        self.relaxations.reset();
        self.improvements.reset();
        self.settled.reset();
        self.parallel_loop_setups.reset();
        self.serial_loops.reset();
        self.mind_propagation_hops.reset();
        self.bucket_expansions.reset();
        self.arcs_scanned.reset();
    }

    /// Adds every counter of `other` into this set and zeroes `other`. A
    /// worker that counts into its own set and is absorbed once at the end
    /// never shares a counter's cache line with another worker.
    pub fn absorb(&self, other: &EventCounters) {
        let c = other.snapshot();
        other.reset();
        self.relaxations.add(c.relaxations);
        self.improvements.add(c.improvements);
        self.settled.add(c.settled);
        self.parallel_loop_setups.add(c.parallel_loop_setups);
        self.serial_loops.add(c.serial_loops);
        self.mind_propagation_hops.add(c.mind_propagation_hops);
        self.bucket_expansions.add(c.bucket_expansions);
        self.arcs_scanned.add(c.arcs_scanned);
    }

    /// Captures every counter as plain values (relaxed loads).
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            relaxations: self.relaxations.get(),
            improvements: self.improvements.get(),
            settled: self.settled.get(),
            parallel_loop_setups: self.parallel_loop_setups.get(),
            serial_loops: self.serial_loops.get(),
            mind_propagation_hops: self.mind_propagation_hops.get(),
            bucket_expansions: self.bucket_expansions.get(),
            arcs_scanned: self.arcs_scanned.get(),
        }
    }

    /// Renders the non-zero counters as a compact `key=value` line.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        for (name, c) in [
            ("relax", &self.relaxations),
            ("improve", &self.improvements),
            ("settled", &self.settled),
            ("par_loops", &self.parallel_loop_setups),
            ("ser_loops", &self.serial_loops),
            ("mind_hops", &self.mind_propagation_hops),
            ("buckets", &self.bucket_expansions),
            ("arcs", &self.arcs_scanned),
        ] {
            let v = c.get();
            if v != 0 {
                parts.push(format!("{name}={v}"));
            }
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let c = Counter::new();
        c.bump();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn concurrent_counts_sum() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.bump();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn snapshot_matches_counters_and_reset_zeroes_everything() {
        let ev = EventCounters::new();
        ev.relaxations.add(7);
        ev.arcs_scanned.add(9);
        ev.bucket_expansions.bump();
        let snap = ev.snapshot();
        assert_eq!(snap.relaxations, 7);
        assert_eq!(snap.arcs_scanned, 9);
        assert_eq!(snap.bucket_expansions, 1);
        assert_eq!(snap.settled, 0);
        ev.reset();
        assert_eq!(ev.snapshot(), CountersSnapshot::default());
    }

    #[test]
    fn absorb_adds_every_counter_and_zeroes_the_source() {
        let (total, lane) = (EventCounters::new(), EventCounters::new());
        total.settled.add(2);
        for (i, c) in [
            &lane.relaxations,
            &lane.improvements,
            &lane.settled,
            &lane.parallel_loop_setups,
            &lane.serial_loops,
            &lane.mind_propagation_hops,
            &lane.bucket_expansions,
            &lane.arcs_scanned,
        ]
        .into_iter()
        .enumerate()
        {
            c.add(i as u64 + 1);
        }
        total.absorb(&lane);
        let want = CountersSnapshot {
            relaxations: 1,
            improvements: 2,
            settled: 5,
            parallel_loop_setups: 4,
            serial_loops: 5,
            mind_propagation_hops: 6,
            bucket_expansions: 7,
            arcs_scanned: 8,
        };
        assert_eq!(total.snapshot(), want);
        assert_eq!(lane.snapshot(), CountersSnapshot::default());
    }

    #[test]
    fn summary_skips_zeroes() {
        let ev = EventCounters::new();
        ev.relaxations.add(3);
        ev.settled.add(2);
        let s = ev.summary();
        assert!(s.contains("relax=3"));
        assert!(s.contains("settled=2"));
        assert!(!s.contains("buckets"));
        ev.reset();
        assert!(ev.summary().is_empty());
    }
}
