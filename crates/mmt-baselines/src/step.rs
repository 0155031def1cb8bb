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
//! [`step`] writes that loop once, in the shape of GARDENIA's OpenMP
//! Δ-stepping: one parallel region per solve ([`team::run`]), whose lanes
//! are spawned once and meet at a barrier, and contention-free frontier
//! bins ([`FrontierBins`]), where each lane owns a full ring of bucket bins
//! and pushes improved vertices only into its own bins, keyed by
//! `dist / Δ`. Lane 0 runs the whole loop: it votes the next bucket (the
//! minimum over per-lane minima), drains it from every lane with
//! generation-stamped dedup, applies the extraction filter, keeps the
//! counters, polls the cancel token and takes the s–t early exit. Each
//! relax phase it posts as a (list, arc class) pair, and every lane
//! relaxes its contiguous chunk of the list into its own bins, between two
//! barrier crossings; a list too short to pay for the crossings it relaxes
//! alone. A [`StepPolicy`] chooses only the ring length and what one step
//! extracts and relaxes. With one lane, in a one-lane scratch or a
//! one-thread pool, the region spawns nothing and every phase runs inline.
//!
//! Buckets live in a cyclic window of `C/Δ + 2` bins: a relaxation out of
//! bucket `b` lands in `[b, b + C/Δ + 1]`, so live entries never alias
//! across cycles. Entries are never removed when a vertex migrates to a
//! lower bucket; the extraction filter skips the stale copy.
//!
//! The loop runs on one adjacency and one distance cell: a [`SplitCsr`]
//! (light arcs first, heavy arcs after, per vertex) and [`AtomicMinU64`]
//! tentative distances. [`StepScratch`] carries everything across
//! queries, so after the first (warm-up) query a one-lane solve performs
//! zero heap allocations, and a multi-lane solve only those of its one
//! scoped spawn.

use crate::relax_core::{relax_arcs, RELAX_AHEAD};
use mmt_graph::types::{Dist, VertexId, Weight, INF};
use mmt_graph::SplitCsr;
use mmt_platform::bins::{BinLane, FrontierBins};
use mmt_platform::team::{self, Team};
use mmt_platform::{AtomicMinU64, CancelToken, EventCounters};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Reusable per-query state for every stepping function: the tentative
/// distances, the `relaxed_at` re-relax guard, the per-lane frontier
/// bins, and the extraction buffers. Everything retains capacity across
/// queries; after the first (warm-up) query a solve allocates nothing
/// beyond its region's spawn. A service can run Δ-, Δ*- and ρ-queries off
/// one warm scratch.
#[derive(Debug)]
pub struct StepScratch {
    dist: Vec<AtomicMinU64>,
    /// Distance at which each vertex was last relaxed this query (`INF` =
    /// never): a vertex re-relaxes only after a strict improvement.
    relaxed_at: Vec<Dist>,
    bins: FrontierBins,
    /// The vertices one step relaxes.
    frontier: List,
    /// One bucket's deduplicated drain, before the extraction filter.
    staging: Vec<VertexId>,
    /// The vertices first extracted in this step (Δ's heavy pass).
    settled: List,
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
            frontier: List::default(),
            staging: Vec::new(),
            settled: List::default(),
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
}

/// A vertex list that lane 0 writes between relax phases and every lane
/// reads during one. Every write is a push or a clear and each step
/// clears the list first, so a lock poisoned by a panicked query still
/// guards a valid list and is recovered.
#[derive(Debug, Default)]
struct List(RwLock<Vec<VertexId>>);

impl List {
    fn read(&self) -> RwLockReadGuard<'_, Vec<VertexId>> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Vec<VertexId>> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
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

/// Relax phases over fewer vertices than this run on lane 0 alone, with
/// no barrier crossing. Two crossings cost a few microseconds even with
/// every lane spinning, more when a lane has parked, and shorter lists
/// hold less work than that. On the paper's Rand-UWD-2^17 input more than
/// half of the phases fall below it, taking under 5% of the time spent in
/// relax phases.
const INLINE_BELOW: usize = 256;

/// Which of the step's lists a relax phase walks.
#[derive(Clone, Copy)]
enum Which {
    Frontier,
    Settled,
}

/// One relax phase as lane 0 posts it to the region.
#[derive(Clone, Copy)]
struct Phase {
    list: Which,
    arcs: Arcs,
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
    /// Relaxes `arcs` out of every vertex in `list` into `lane`.
    fn relax(self, lane: &mut BinLane, list: &[VertexId], arcs: Arcs) {
        let split = self.split;
        match arcs {
            Arcs::Light => self.relax_slices(lane, list, |v| [split.light(v)]),
            Arcs::Heavy => self.relax_slices(lane, list, |v| [split.heavy(v)]),
            Arcs::All => self.relax_slices(lane, list, |v| [split.light(v), split.heavy(v)]),
        }
    }

    /// Relaxes the arcs `slices(v)` of every vertex `v` in `list`. Improved
    /// targets go into `lane`, the relaxing worker's own bins. The slice
    /// choice is a closure, not a per-vertex branch, so each arc class
    /// compiles to its own tight loop.
    fn relax_slices<const K: usize>(
        self,
        lane: &mut BinLane,
        list: &[VertexId],
        slices: impl Fn(VertexId) -> [(&'a [VertexId], &'a [Weight]); K],
    ) {
        let Relaxer { width, dist, .. } = self;
        for &u in list {
            let du = dist[u as usize].load();
            for &(ts, ws) in &slices(u) {
                relax_arcs::<RELAX_AHEAD>(dist, du, ts, ws, |v, nd| lane.push(nd / width, v));
            }
        }
    }

    /// Arcs of class `arcs` out of the vertices in `list`.
    fn arcs_out(self, list: &[VertexId], arcs: Arcs) -> u64 {
        let split = self.split;
        let walked = |v| match arcs {
            Arcs::Light => split.light(v).0.len(),
            Arcs::Heavy => split.heavy(v).0.len(),
            Arcs::All => split.degree(v),
        };
        list.iter().map(|&v| walked(v) as u64).sum()
    }
}

/// A policy's handle on the running query. It lives on lane 0.
pub(crate) struct Step<'a> {
    g: Relaxer<'a>,
    window: u64,
    relaxed_at: &'a mut [Dist],
    bins: &'a FrontierBins,
    frontier: &'a List,
    staging: &'a mut Vec<VertexId>,
    settled: &'a List,
    cancel: Option<&'a CancelToken>,
    team: &'a Team<'a, Phase>,
}

impl Step<'_> {
    /// The cyclic window of `C/Δ + 2` buckets.
    pub(crate) fn window(&self) -> u64 {
        self.window
    }

    /// Vertices extracted so far in this step.
    pub(crate) fn frontier_len(&self) -> usize {
        self.frontier.read().len()
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
        let (mut frontier, mut settled) = (self.frontier.write(), self.settled.write());
        for &v in self.staging.iter() {
            let vi = v as usize;
            let d = self.g.dist[vi].load();
            if d / self.g.width == bucket && d < self.relaxed_at[vi] {
                if self.relaxed_at[vi] == INF {
                    settled.push(v);
                }
                self.relaxed_at[vi] = d;
                frontier.push(v);
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
            self.frontier.write().clear();
            if self.extract(bucket) == 0 {
                return true;
            }
            self.relax_frontier(arcs);
        }
    }

    /// Relaxes `arcs` out of every vertex extracted in this round.
    pub(crate) fn relax_frontier(&mut self, arcs: Arcs) {
        self.relax(Which::Frontier, arcs);
    }

    /// Relaxes `arcs` out of every vertex first extracted in this step.
    pub(crate) fn relax_settled(&mut self, arcs: Arcs) {
        self.relax(Which::Settled, arcs);
    }

    /// One relax phase over `list`: on every lane of the region, or on
    /// lane 0 alone when the list is too short to pay for the barrier.
    fn relax(&mut self, list: Which, arcs: Arcs) {
        let (g, bins) = (self.g, self.bins);
        let items = match list {
            Which::Frontier => self.frontier.read(),
            Which::Settled => self.settled.read(),
        };
        if items.is_empty() {
            return;
        }
        let counted = g
            .counters
            .map(|ev| (ev, g.arcs_out(&items, arcs), bins.pending()));
        if items.len() < INLINE_BELOW {
            g.relax(&mut bins.lane(0), &items, arcs);
        } else {
            drop(items);
            self.team.phase(Phase { list, arcs });
        }
        if let Some((ev, walked, pending)) = counted {
            ev.bucket_expansions.bump();
            ev.arcs_scanned.add(walked);
            ev.relaxations.add(walked);
            ev.improvements.add((self.bins.pending() - pending) as u64);
        }
    }

    /// Steps from bucket to bucket until the bins are empty or the
    /// target's label is final. Returns `false` iff the cancel token fired
    /// first.
    fn solve<P: StepPolicy>(&mut self, policy: &P, query: &StepQuery<'_>) -> bool {
        let mut floor = 0u64;
        while let Some(first) = self.bins.vote(floor) {
            // Early exit: nothing is queued below `first`, so every vertex
            // whose label lies below it is settled and the label is final.
            if let Some(t) = query.target {
                let dt = self.g.dist[t as usize].load();
                if dt != INF && dt / self.g.width < first {
                    break;
                }
            }
            self.frontier.write().clear();
            self.settled.write().clear();
            if self.cancelled() || !policy.step(self, first) {
                return false;
            }
            if let Some(ev) = query.counters {
                ev.settled.add(self.settled.read().len() as u64);
            }
            floor = first;
        }
        true
    }
}

/// The stepping loop: solves `query` over `split` into `scratch` under
/// `policy`, in one region of `min(scratch lanes, installed budget)`
/// lanes. A multi-lane solve counts its region in `parallel_loop_setups`;
/// a one-lane solve opens none. Returns `false` iff the cancel token fired
/// first; the scratch stays reusable on every exit path.
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
    let lanes = match scratch.lane_count() {
        1 => 1,
        lanes => lanes.min(rayon::current_num_threads()),
    };
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
    let g = Relaxer {
        split,
        width: split.delta().max(1) as u64,
        dist,
        counters: query.counters,
    };
    let (shared, frontier, settled) = (&*bins, &*frontier, &*settled);
    let done = team::run(
        lanes,
        |team| {
            if let Some(ev) = query.counters.filter(|_| lanes > 1) {
                ev.parallel_loop_setups.bump();
            }
            Step {
                g,
                window,
                relaxed_at,
                bins: shared,
                frontier,
                staging,
                settled,
                cancel: query.cancel,
                team,
            }
            .solve(policy, query)
        },
        |lane, phase: Phase| {
            let list = match phase.list {
                Which::Frontier => frontier.read(),
                Which::Settled => settled.read(),
            };
            let part = &list[list.len() * lane / lanes..list.len() * (lane + 1) / lanes];
            g.relax(&mut shared.lane(lane), part, phase.arcs);
        },
    );
    if !done {
        bins.clear();
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{delta_star_presplit, delta_stepping_presplit, dijkstra};
    use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
    use mmt_graph::CsrGraph;
    use mmt_platform::with_pool;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn graph() -> (CsrGraph, SplitCsr) {
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 10, 10);
        spec.seed = 21;
        let g = CsrGraph::from_edge_list(&spec.generate());
        let split = SplitCsr::new(&g, crate::adaptive_delta(&g) as u32);
        (g, split)
    }

    /// Δ*'s step that runs `hook` on lane 0 before each step.
    struct Hooked<F: Fn(usize)> {
        steps: Cell<usize>,
        hook: F,
    }

    impl<F: Fn(usize)> StepPolicy for Hooked<F> {
        fn step(&self, st: &mut Step<'_>, first: u64) -> bool {
            self.steps.set(self.steps.get() + 1);
            (self.hook)(self.steps.get());
            st.fixpoint(first, Arcs::All)
        }
    }

    fn hooked<F: Fn(usize)>(hook: F) -> Hooked<F> {
        Hooked {
            steps: Cell::new(0),
            hook,
        }
    }

    #[test]
    fn a_solve_opens_one_region_whatever_its_phase_count() {
        let (_, split) = graph();
        for lanes in [1usize, 2, 4] {
            let ev = EventCounters::new();
            with_pool(lanes, || {
                let mut scratch = StepScratch::new(&split);
                delta_stepping_presplit(&split, 0, &mut scratch, Some(&ev));
            });
            let c = ev.snapshot();
            assert!(c.bucket_expansions > 50, "{} phases", c.bucket_expansions);
            let regions = u64::from(lanes > 1);
            assert_eq!(c.parallel_loop_setups, regions, "{lanes} lanes");
        }
    }

    #[test]
    fn a_one_lane_scratch_stays_inline_in_a_wider_pool_and_vice_versa() {
        let (g, split) = graph();
        let want = dijkstra(&g, 3);
        let mut one = with_pool(1, || StepScratch::new(&split));
        let mut four = with_pool(4, || StepScratch::new(&split));
        for (scratch, pool) in [(&mut one, 4), (&mut four, 1)] {
            let ev = EventCounters::new();
            with_pool(pool, || delta_star_presplit(&split, 3, scratch, Some(&ev)));
            assert_eq!(ev.parallel_loop_setups.get(), 0);
            assert_eq!(scratch.to_distances(), want);
        }
    }

    #[test]
    fn a_multi_lane_solve_cancelled_mid_flight_leaves_its_scratch_reusable() {
        let (g, split) = graph();
        with_pool(4, || {
            let mut scratch = StepScratch::new(&split);
            let token = CancelToken::new();
            let policy = hooked(|step| {
                if step == 5 {
                    token.cancel();
                }
            });
            let query = StepQuery {
                source: 9,
                cancel: Some(&token),
                ..StepQuery::default()
            };
            assert!(!step(&policy, &split, &mut scratch, &query));
            assert!(policy.steps.get() >= 5);
            delta_star_presplit(&split, 9, &mut scratch, None);
            assert_eq!(scratch.to_distances(), dijkstra(&g, 9));
        });
    }

    #[test]
    fn a_panic_on_lane_zero_surfaces_and_leaves_the_scratch_reusable() {
        let (g, split) = graph();
        with_pool(4, || {
            let mut scratch = StepScratch::new(&split);
            let policy = hooked(|step| assert!(step < 4, "policy panic"));
            let query = StepQuery {
                source: 5,
                ..StepQuery::default()
            };
            let payload = catch_unwind(AssertUnwindSafe(|| {
                step(&policy, &split, &mut scratch, &query)
            }))
            .expect_err("the panic surfaces on the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"policy panic"));
            delta_star_presplit(&split, 5, &mut scratch, None);
            assert_eq!(scratch.to_distances(), dijkstra(&g, 5));
        });
    }
}
