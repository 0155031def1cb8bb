//! The one stepping loop behind Δ-, Δ*- and ρ-stepping.
//!
//! Dong, Gu, Sun and Zhang (arXiv:2105.06145) show that the bucketed
//! stepping algorithms are one loop that differs only in how each step
//! picks what to extract: find the lowest non-empty bucket, extract some
//! vertices at or above it, relax their arcs, repeat. A vertex whose
//! tentative distance improves is pushed back into the frontier, so the
//! relax loop is a monotone `fetch_min` fixpoint that converges to the
//! exact distances under any extraction policy and any thread count.
//!
//! [`step`] writes that loop once, on the contention-free frontier bins of
//! GARDENIA's OpenMP Δ-stepping ([`FrontierBins`]): each worker owns a full
//! ring of bucket bins and pushes improved vertices only into its own
//! bins, keyed by `dist / Δ`. Between relax phases the bins vote the next
//! bucket (the minimum over per-lane minima) and drain it from every lane
//! with generation-stamped dedup. The loop owns every part the policies
//! share: the extraction filter, the relax scatter, the counter
//! accounting, the cancel poll and the s–t early exit. A [`StepPolicy`]
//! chooses only the ring length and what one step extracts and relaxes.
//!
//! Buckets live in a cyclic window of `C/Δ + 2` bins: a relaxation out of
//! bucket `b` lands in `[b, b + C/Δ + 1]`, so live entries never alias
//! across cycles. Entries are never removed when a vertex migrates to a
//! lower bucket; the extraction filter skips the stale copy.
//!
//! The loop runs on one adjacency and one distance cell: a [`SplitCsr`]
//! (light arcs first, heavy arcs after, per vertex) and [`AtomicMinU64`]
//! tentative distances. [`StepScratch`] carries everything across
//! queries, so after the first (warm-up) query a solve performs zero heap
//! allocations.

use crate::relax_core::{relax_arcs, RELAX_AHEAD};
use mmt_graph::types::{Dist, VertexId, Weight, INF};
use mmt_graph::SplitCsr;
use mmt_platform::bins::FrontierBins;
use mmt_platform::{AtomicMinU64, CancelToken, EventCounters};

/// Reusable per-query state for every stepping function: the tentative
/// distances, the `relaxed_at` re-relax guard, the per-thread frontier
/// bins, and the extraction buffers. Everything retains capacity across
/// queries; after the first (warm-up) query a solve allocates nothing.
/// A service can run Δ-, Δ*- and ρ-queries off one warm scratch.
#[derive(Debug)]
pub struct StepScratch {
    dist: Vec<AtomicMinU64>,
    /// Distance at which each vertex was last relaxed this query (`INF` =
    /// never): a vertex re-relaxes only after a strict improvement.
    relaxed_at: Vec<Dist>,
    bins: FrontierBins,
    /// The vertices one step relaxes.
    frontier: Vec<VertexId>,
    /// One bucket's deduplicated drain, before the extraction filter.
    staging: Vec<VertexId>,
    /// The vertices first extracted in this step (Δ's heavy pass).
    settled: Vec<VertexId>,
}

impl StepScratch {
    /// Scratch sized for `split`. Lane count follows the *installed*
    /// thread budget (`rayon::current_num_threads()`), so a scratch built
    /// inside [`mmt_platform::with_pool`] gets one lane per pool worker,
    /// and a one-lane scratch never forks.
    pub fn new(split: &SplitCsr) -> Self {
        let n = split.n();
        Self {
            dist: (0..n).map(|_| AtomicMinU64::new(INF)).collect(),
            relaxed_at: vec![INF; n],
            bins: FrontierBins::new(rayon::current_num_threads(), window(split) as usize, n),
            frontier: Vec::new(),
            staging: Vec::new(),
            settled: Vec::new(),
        }
    }

    /// Bin lanes (the thread budget when the scratch was built).
    pub fn lane_count(&self) -> usize {
        self.bins.lane_count()
    }

    /// Grows to `n` vertices if needed (retaining capacity otherwise) and
    /// resets per-query state, with `ring` bins per lane.
    fn reset(&mut self, n: usize, ring: usize) {
        if self.dist.len() != n {
            self.dist.resize_with(n, || AtomicMinU64::new(INF));
            self.relaxed_at.resize(n, INF);
        }
        for d in &self.dist {
            d.store(INF);
        }
        self.relaxed_at.fill(INF);
        self.bins.reset(ring, n);
    }

    /// The distance to `v` computed by the last query (`INF` = unreached).
    #[inline]
    pub fn distance(&self, v: VertexId) -> Dist {
        self.dist[v as usize].load()
    }

    /// Copies the last query's distances into `out` (cleared first). Does
    /// not allocate when `out` already has the capacity.
    pub fn copy_distances_into(&self, out: &mut Vec<Dist>) {
        out.clear();
        out.extend(self.dist.iter().map(|d| d.load()));
    }

    /// The last query's distances as a fresh vector.
    pub fn to_distances(&self) -> Vec<Dist> {
        self.dist.iter().map(|d| d.load()).collect()
    }

    /// Heap bytes currently held (distances, guard, bins, buffers).
    pub fn heap_bytes(&self) -> usize {
        use mmt_platform::MemFootprint;
        let buffers = self.frontier.capacity() + self.staging.capacity() + self.settled.capacity();
        self.dist.capacity() * std::mem::size_of::<AtomicMinU64>()
            + self.relaxed_at.heap_bytes()
            + self.bins.heap_bytes()
            + buffers * std::mem::size_of::<VertexId>()
    }
}

/// The cyclic window one bucket's pushes can reach: `C/Δ + 2` buckets.
fn window(split: &SplitCsr) -> u64 {
    split.max_weight() as u64 / split.delta().max(1) as u64 + 2
}

/// One query's inputs besides the split and the scratch. `target` turns
/// on the s–t early exit; `cancel` is polled between relax phases.
#[derive(Default)]
pub(crate) struct StepQuery<'a> {
    pub(crate) source: VertexId,
    pub(crate) target: Option<VertexId>,
    pub(crate) cancel: Option<&'a CancelToken>,
    pub(crate) counters: Option<&'a EventCounters>,
}

/// Which arcs of each extracted vertex a relax phase walks.
#[derive(Clone, Copy)]
pub(crate) enum Arcs {
    /// `w ≤ Δ`.
    Light,
    /// `w > Δ`.
    Heavy,
    /// Light, then heavy.
    All,
}

/// How one step extracts and relaxes. The loop hands the policy the lowest
/// non-empty bucket `first`, with the frontier and the settled list empty.
pub(crate) trait StepPolicy {
    /// Bins per lane, given the window of `C/Δ + 2` buckets one bucket's
    /// pushes can reach.
    fn ring_len(&self, window: u64) -> u64 {
        window
    }

    /// Runs one step from bucket `first`. Returns `false` if the query's
    /// cancel token fired mid-step.
    fn step(&self, st: &mut Step<'_>, first: u64) -> bool;
}

/// What a relax phase reads: the split, the distances and the counters.
#[derive(Clone, Copy)]
struct Relaxer<'a> {
    split: &'a SplitCsr,
    width: u64,
    dist: &'a [AtomicMinU64],
    counters: Option<&'a EventCounters>,
}

impl<'a> Relaxer<'a> {
    /// Relaxes `arcs` out of every vertex in `list` in one parallel phase.
    fn relax(self, bins: &mut FrontierBins, list: &[VertexId], arcs: Arcs) {
        let split = self.split;
        match arcs {
            Arcs::Light => self.relax_slices(bins, list, |v| [split.light(v)]),
            Arcs::Heavy => self.relax_slices(bins, list, |v| [split.heavy(v)]),
            Arcs::All => self.relax_slices(bins, list, |v| [split.light(v), split.heavy(v)]),
        }
    }

    /// Relaxes the arcs `slices(v)` of every vertex `v` in `list`. Improved
    /// targets go into the relaxing worker's own bins. The slice choice is
    /// a closure, not a per-vertex branch, so each arc class compiles to
    /// its own tight loop.
    fn relax_slices<const K: usize>(
        self,
        bins: &mut FrontierBins,
        list: &[VertexId],
        slices: impl Fn(VertexId) -> [(&'a [VertexId], &'a [Weight]); K] + Sync,
    ) {
        if list.is_empty() {
            return;
        }
        let Relaxer {
            width,
            dist,
            counters,
            ..
        } = self;
        if let Some(ev) = counters {
            let walked = list
                .iter()
                .flat_map(|&v| slices(v))
                .map(|(ts, _)| ts.len() as u64)
                .sum::<u64>();
            ev.bucket_expansions.bump();
            ev.arcs_scanned.add(walked);
            ev.relaxations.add(walked);
        }
        let before = bins.pending();
        bins.scatter(list, |&u, lane| {
            let du = dist[u as usize].load();
            for &(ts, ws) in &slices(u) {
                relax_arcs::<RELAX_AHEAD>(dist, du, ts, ws, |v, nd| lane.push(nd / width, v));
            }
        });
        if let Some(ev) = counters {
            ev.improvements.add((bins.pending() - before) as u64);
        }
    }
}

/// A policy's handle on the running query.
pub(crate) struct Step<'a> {
    g: Relaxer<'a>,
    window: u64,
    relaxed_at: &'a mut [Dist],
    bins: &'a mut FrontierBins,
    frontier: &'a mut Vec<VertexId>,
    staging: &'a mut Vec<VertexId>,
    settled: &'a mut Vec<VertexId>,
    cancel: Option<&'a CancelToken>,
}

impl Step<'_> {
    /// The cyclic window of `C/Δ + 2` buckets.
    pub(crate) fn window(&self) -> u64 {
        self.window
    }

    /// Vertices extracted so far in this step.
    pub(crate) fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// The lowest non-empty bucket at or above `from`.
    pub(crate) fn vote(&mut self, from: u64) -> Option<u64> {
        self.bins.vote(from)
    }

    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|c| c.is_cancelled())
    }

    /// Drains `bucket` from every lane and appends to the frontier each
    /// vertex whose distance still lies in `bucket` and improved since its
    /// last relaxation; first extractions also join the settled list.
    /// Returns the raw entries drained (0 = the bucket was empty).
    pub(crate) fn extract(&mut self, bucket: u64) -> usize {
        self.staging.clear();
        let raw = self.bins.drain_bucket(bucket, self.staging);
        for &v in self.staging.iter() {
            let vi = v as usize;
            let d = self.g.dist[vi].load();
            if d / self.g.width == bucket && d < self.relaxed_at[vi] {
                if self.relaxed_at[vi] == INF {
                    self.settled.push(v);
                }
                self.relaxed_at[vi] = d;
                self.frontier.push(v);
            }
        }
        raw
    }

    /// Drains `bucket` to a fixpoint: extract, relax `arcs` of what was
    /// extracted, until the bucket stays empty. Returns `false` if the
    /// query was cancelled (polled every round: with a huge Δ the whole
    /// query is one bucket).
    pub(crate) fn fixpoint(&mut self, bucket: u64, arcs: Arcs) -> bool {
        loop {
            if self.cancelled() {
                return false;
            }
            self.frontier.clear();
            if self.extract(bucket) == 0 {
                return true;
            }
            self.relax_frontier(arcs);
        }
    }

    /// Relaxes `arcs` out of every vertex extracted in this round.
    pub(crate) fn relax_frontier(&mut self, arcs: Arcs) {
        self.g.relax(self.bins, self.frontier, arcs);
    }

    /// Relaxes `arcs` out of every vertex first extracted in this step.
    pub(crate) fn relax_settled(&mut self, arcs: Arcs) {
        self.g.relax(self.bins, self.settled, arcs);
    }
}

/// The stepping loop: solves `query` over `split` into `scratch` under
/// `policy`. Returns `false` iff the cancel token fired first; the scratch
/// stays reusable on every exit path.
pub(crate) fn step<P: StepPolicy>(
    policy: &P,
    split: &SplitCsr,
    scratch: &mut StepScratch,
    query: &StepQuery<'_>,
) -> bool {
    let n = split.n();
    assert!((query.source as usize) < n, "source out of range");
    if let Some(t) = query.target {
        assert!((t as usize) < n, "target out of range");
    }
    let window = window(split);
    scratch.reset(n, policy.ring_len(window) as usize);
    let StepScratch {
        dist,
        relaxed_at,
        bins,
        frontier,
        staging,
        settled,
    } = scratch;
    dist[query.source as usize].store(0);
    bins.seed(0, query.source);
    let mut st = Step {
        g: Relaxer {
            split,
            width: split.delta().max(1) as u64,
            dist,
            counters: query.counters,
        },
        window,
        relaxed_at,
        bins,
        frontier,
        staging,
        settled,
        cancel: query.cancel,
    };
    let mut floor = 0u64;
    while let Some(first) = st.bins.vote(floor) {
        // Early exit: nothing is queued below `first`, so every vertex
        // whose label lies below it is settled and the label is final.
        if let Some(t) = query.target {
            let dt = st.g.dist[t as usize].load();
            if dt != INF && dt / st.g.width < first {
                break;
            }
        }
        st.frontier.clear();
        st.settled.clear();
        if st.cancelled() || !policy.step(&mut st, first) {
            st.bins.clear();
            return false;
        }
        if let Some(ev) = query.counters {
            ev.settled.add(st.settled.len() as u64);
        }
        floor = first;
    }
    true
}
