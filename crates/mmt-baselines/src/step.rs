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
//! `dist / Δ`. Lane 0 drives the loop: it votes the next bucket (the
//! minimum over per-lane minima), keeps the counters, polls the cancel
//! token and takes the s–t early exit. Every lane works in the two kinds
//! of phase it posts:
//! - an *extract phase*: each lane drains its own bin of the bucket and
//!   filters it into its own frontier and settled lists. A vertex is
//!   claimed by the one lane whose `fetch_min` lowers its `relaxed_at`
//!   cell, so each copy of a vertex held in several bins is extracted
//!   once;
//! - a *relax phase*: each lane relaxes an equal, contiguous share of the
//!   lanes' lists, concatenated in lane order, into its own bins.
//!
//! A bucket holding fewer than [`INLINE_BELOW`] entries, or a list that
//! short, is drained or relaxed by lane 0 alone, in lane order, with no
//! barrier crossing. A [`StepPolicy`] chooses only the ring length and
//! what one step extracts and relaxes. With one lane, in a one-lane
//! scratch or a one-thread pool, the region spawns nothing and every phase
//! runs inline.
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
use mmt_platform::{thread_budget, AtomicMinU64, CancelToken, EventCounters};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Reusable per-query state for every stepping function: the tentative
/// distances, the `relaxed_at` claim cells, the per-lane frontier bins,
/// and the per-lane extraction lists. Everything retains capacity across
/// queries; after the first (warm-up) query a solve allocates nothing
/// beyond its region's spawn. A service can run Δ-, Δ*- and ρ-queries off
/// one warm scratch.
#[derive(Debug)]
pub struct StepScratch {
    dist: Vec<AtomicMinU64>,
    /// Distance at which each vertex was last extracted this query (`INF`
    /// = never): a vertex is extracted again only after a strict
    /// improvement, by the lane whose `fetch_min` lowers the cell.
    relaxed_at: Vec<AtomicMinU64>,
    bins: FrontierBins,
    /// One pair of extraction lists per bin lane.
    lists: Vec<LaneLists>,
    /// Extract phases the last query posted: buckets whose entries every
    /// lane drained at once. A one-lane query posts none.
    extract_phases: u64,
}

impl StepScratch {
    /// Scratch sized for `split`. Lane count follows the *installed*
    /// thread budget ([`thread_budget`]), so a scratch built inside
    /// [`mmt_platform::with_pool`] gets one lane per pool worker, and a
    /// one-lane scratch never forks.
    pub fn new(split: &SplitCsr) -> Self {
        let n = split.n();
        let lanes = thread_budget().max(1);
        Self {
            dist: (0..n).map(|_| AtomicMinU64::new(INF)).collect(),
            relaxed_at: (0..n).map(|_| AtomicMinU64::new(INF)).collect(),
            bins: FrontierBins::new(lanes, window(split) as usize),
            lists: (0..lanes).map(|_| LaneLists::default()).collect(),
            extract_phases: 0,
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
            self.relaxed_at.resize_with(n, || AtomicMinU64::new(INF));
        }
        for cell in self.dist.iter().chain(&self.relaxed_at) {
            cell.store(INF);
        }
        self.bins.reset(ring);
        self.extract_phases = 0;
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

/// One lane's extraction lists. A lane writes its own in an extract
/// phase, lane 0 writes or clears any of them between phases, and every
/// lane reads all of them in a relax phase. Every write is a push or a
/// clear and each step clears the lists first, so a lock poisoned by a
/// panicked query still guards valid lists and is recovered. Padded to
/// 128 bytes so that two lanes filling their own lists never write one
/// cache line (or an adjacent-line prefetch pair).
#[derive(Debug, Default)]
#[repr(align(128))]
struct LaneLists(RwLock<Lists>);

#[derive(Debug, Default)]
struct Lists {
    /// The vertices this lane extracted in this round.
    frontier: Vec<VertexId>,
    /// The vertices this lane first extracted in this step (Δ's heavy
    /// pass).
    settled: Vec<VertexId>,
}

impl Lists {
    fn get(&self, list: Which) -> &[VertexId] {
        match list {
            Which::Frontier => &self.frontier,
            Which::Settled => &self.settled,
        }
    }
}

impl LaneLists {
    fn read(&self) -> RwLockReadGuard<'_, Lists> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Lists> {
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
/// non-empty bucket `first`, with every frontier and settled list empty.
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

/// Buckets holding fewer entries than this, and relax phases over fewer
/// vertices, run on lane 0 alone, with no barrier crossing. Two crossings
/// cost a few microseconds even with every lane spinning, more when a
/// lane has parked, and shorter lists hold less work than that. On the
/// paper's Rand-UWD-2^17 input at 2 lanes, 68–74% of a solve's drains and
/// 37–69% of its relax phases fall below it, taking under 10% of the
/// drain time and under 5% of the relax time.
const INLINE_BELOW: usize = 256;

/// Which of each lane's lists a relax phase walks.
#[derive(Clone, Copy)]
enum Which {
    Frontier,
    Settled,
}

/// One phase as lane 0 posts it to the region.
#[derive(Clone, Copy)]
enum Phase {
    /// Every lane drains its own bin of this bucket into its own lists.
    Extract(u64),
    /// Every lane relaxes these arcs out of its share of the lanes' lists.
    Relax(Which, Arcs),
}

/// What every lane of a solve shares: the split, the distances and claim
/// cells, the bins, the region's lists and the counters.
#[derive(Clone, Copy)]
struct Kernel<'a> {
    split: &'a SplitCsr,
    width: u64,
    dist: &'a [AtomicMinU64],
    relaxed_at: &'a [AtomicMinU64],
    bins: &'a FrontierBins,
    /// One pair per lane of the region.
    lists: &'a [LaneLists],
    counters: Option<&'a EventCounters>,
}

impl<'a> Kernel<'a> {
    /// Runs `phase` as lane `lane` of the region.
    fn work(self, lane: usize, phase: Phase) {
        match phase {
            Phase::Extract(bucket) => self.drain(lane, bucket, &mut self.lists[lane].write()),
            Phase::Relax(list, arcs) => self.relax_share(lane, list, arcs),
        }
    }

    /// Drains `bucket` out of bin lane `from` into `into`: each vertex
    /// whose distance still lies in `bucket` and improved since its last
    /// extraction joins the frontier, and a first extraction also joins
    /// the settled list. The `relaxed_at` claim, a `fetch_min` that only
    /// one racing lane wins, admits one copy of a vertex per label,
    /// whichever lane's bin holds it.
    fn drain(self, from: usize, bucket: u64, into: &mut Lists) {
        for v in self.bins.lane(from).drain(bucket) {
            let d = self.dist[v as usize].load();
            if d / self.width != bucket {
                continue;
            }
            if let Some(last) = self.relaxed_at[v as usize].lower(d) {
                if last == INF {
                    into.settled.push(v);
                }
                into.frontier.push(v);
            }
        }
    }

    /// Vertices in `list` across the region's lanes.
    fn len(self, list: Which) -> usize {
        self.lists.iter().map(|l| l.read().get(list).len()).sum()
    }

    /// Relaxes `arcs` out of lane `lane`'s share of `list`: the lanes'
    /// lists concatenated in lane order and cut into equal, contiguous
    /// shares, one per lane.
    fn relax_share(self, lane: usize, list: Which, arcs: Arcs) {
        let lanes = self.lists.len();
        let total = self.len(list);
        let (lo, hi) = (total * lane / lanes, total * (lane + 1) / lanes);
        let mut bin = self.bins.lane(lane);
        let mut start = 0;
        for lists in self.lists {
            if start >= hi {
                break;
            }
            let lists = lists.read();
            let items = lists.get(list);
            let end = start + items.len();
            if lo < end {
                let part = &items[lo.max(start) - start..hi.min(end) - start];
                self.relax(&mut bin, part, arcs);
            }
            start = end;
        }
    }

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
        let Kernel { width, dist, .. } = self;
        for &u in list {
            let du = dist[u as usize].load();
            for &(ts, ws) in &slices(u) {
                relax_arcs::<RELAX_AHEAD>(dist, du, ts, ws, |v, nd| lane.push(nd / width, v));
            }
        }
    }

    /// Arcs of class `arcs` out of the vertices in every lane's `list`.
    fn arcs_out(self, list: Which, arcs: Arcs) -> u64 {
        let split = self.split;
        let walked = |&v: &VertexId| match arcs {
            Arcs::Light => split.light(v).0.len() as u64,
            Arcs::Heavy => split.heavy(v).0.len() as u64,
            Arcs::All => split.degree(v) as u64,
        };
        self.lists
            .iter()
            .map(|l| l.read().get(list).iter().map(walked).sum::<u64>())
            .sum()
    }
}

/// A policy's handle on the running query. It lives on lane 0.
pub(crate) struct Step<'a> {
    k: Kernel<'a>,
    window: u64,
    cancel: Option<&'a CancelToken>,
    team: &'a Team<'a, Phase>,
    extract_phases: u64,
}

impl Step<'_> {
    /// The cyclic window of `C/Δ + 2` buckets.
    pub(crate) fn window(&self) -> u64 {
        self.window
    }

    /// Vertices extracted so far in this step, on every lane.
    pub(crate) fn frontier_len(&self) -> usize {
        self.k.len(Which::Frontier)
    }

    /// The lowest non-empty bucket at or above `from`.
    pub(crate) fn vote(&mut self, from: u64) -> Option<u64> {
        self.k.bins.vote(from)
    }

    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|c| c.is_cancelled())
    }

    /// Empties `list` on every lane.
    fn clear(&self, list: Which) {
        for lists in self.k.lists {
            let mut lists = lists.write();
            match list {
                Which::Frontier => lists.frontier.clear(),
                Which::Settled => lists.settled.clear(),
            }
        }
    }

    /// Drains `bucket` from every lane's bins, appending to the lanes'
    /// frontiers each vertex whose distance still lies in `bucket` and
    /// improved since its last extraction; first extractions also join the
    /// settled lists. A bucket of at least [`INLINE_BELOW`] entries is an
    /// extract phase; a smaller one lane 0 drains alone, in lane order,
    /// into its own lists. Returns the raw entries drained (0 = the bucket
    /// was empty).
    pub(crate) fn extract(&mut self, bucket: u64) -> usize {
        let k = self.k;
        let raw = k.bins.held(bucket);
        if self.inline(raw) {
            let mut lists = k.lists[0].write();
            for from in 0..k.lists.len() {
                k.drain(from, bucket, &mut lists);
            }
        } else {
            self.extract_phases += 1;
            self.team.phase(Phase::Extract(bucket));
        }
        raw
    }

    /// Whether a phase over `items` entries runs on lane 0 alone.
    fn inline(&self, items: usize) -> bool {
        items < INLINE_BELOW || self.k.lists.len() == 1
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
            self.clear(Which::Frontier);
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

    /// One relax phase over every lane's `list`: on every lane of the
    /// region, or on lane 0 alone, in lane order, when the lists are too
    /// short to pay for the barrier.
    fn relax(&mut self, list: Which, arcs: Arcs) {
        let k = self.k;
        let total = k.len(list);
        if total == 0 {
            return;
        }
        let counted = k
            .counters
            .map(|ev| (ev, k.arcs_out(list, arcs), k.bins.pending()));
        if self.inline(total) {
            let mut bin = k.bins.lane(0);
            for lists in k.lists {
                k.relax(&mut bin, lists.read().get(list), arcs);
            }
        } else {
            self.team.phase(Phase::Relax(list, arcs));
        }
        if let Some((ev, walked, pending)) = counted {
            ev.bucket_expansions.bump();
            ev.arcs_scanned.add(walked);
            ev.relaxations.add(walked);
            ev.improvements.add((k.bins.pending() - pending) as u64);
        }
    }

    /// Steps from bucket to bucket until the bins are empty or the
    /// target's label is final. Returns `false` iff the cancel token fired
    /// first.
    fn solve<P: StepPolicy>(&mut self, policy: &P, query: &StepQuery<'_>) -> bool {
        let mut floor = 0u64;
        while let Some(first) = self.k.bins.vote(floor) {
            // Early exit: nothing is queued below `first`, so every vertex
            // whose label lies below it is settled and the label is final.
            if let Some(t) = query.target {
                let dt = self.k.dist[t as usize].load();
                if dt != INF && dt / self.k.width < first {
                    break;
                }
            }
            self.clear(Which::Frontier);
            self.clear(Which::Settled);
            if self.cancelled() || !policy.step(self, first) {
                return false;
            }
            if let Some(ev) = query.counters {
                ev.settled.add(self.k.len(Which::Settled) as u64);
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
        lanes => lanes.min(thread_budget()),
    };
    let StepScratch {
        dist,
        relaxed_at,
        bins,
        lists,
        extract_phases,
    } = scratch;
    dist[query.source as usize].store(0);
    bins.seed(0, query.source);
    let k = Kernel {
        split,
        width: split.delta().max(1) as u64,
        dist,
        relaxed_at,
        bins,
        lists: &lists[..lanes],
        counters: query.counters,
    };
    let (done, phases) = team::run(
        lanes,
        |team| {
            if let Some(ev) = query.counters.filter(|_| lanes > 1) {
                ev.parallel_loop_setups.bump();
            }
            let mut st = Step {
                k,
                window,
                cancel: query.cancel,
                team,
                extract_phases: 0,
            };
            (st.solve(policy, query), st.extract_phases)
        },
        |lane, phase| k.work(lane, phase),
    );
    *extract_phases = phases;
    if !done {
        bins.clear();
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        default_rho, delta_star_presplit, delta_stepping_presplit, delta_stepping_st, dijkstra,
        rho_stepping_presplit,
    };
    use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
    use mmt_graph::CsrGraph;
    use mmt_platform::with_pool;
    use std::cell::{Cell, RefCell};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `f` on its own thread and fails the test if it has not
    /// returned within a minute: a lost wake-up in a phase shows as a
    /// failure, not as a hung test binary.
    fn within_a_minute(f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("a multi-lane solve hung or panicked");
    }

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

    /// A step that puts a copy of each of the vertices `1..=copies`, at
    /// label `first × Δ`, into every lane's bin of bucket `first`, extracts
    /// the bucket once, records every lane's lists and stops the query.
    struct Twins {
        copies: u32,
        seen: RefCell<(Vec<VertexId>, Vec<VertexId>)>,
    }

    impl StepPolicy for Twins {
        fn step(&self, st: &mut Step<'_>, first: u64) -> bool {
            let k = st.k;
            for v in 1..=self.copies {
                k.dist[v as usize].fetch_min(first * k.width);
                for lane in 0..k.lists.len() {
                    k.bins.lane(lane).push(first, v);
                }
            }
            st.extract(first);
            let mut seen = self.seen.borrow_mut();
            for lists in k.lists {
                let lists = lists.read();
                seen.0.extend_from_slice(&lists.frontier);
                seen.1.extend_from_slice(&lists.settled);
            }
            false
        }
    }

    #[test]
    fn a_vertex_held_in_several_lanes_bins_is_extracted_once() {
        let (_, split) = graph();
        within_a_minute(move || {
            for lanes in [2usize, 4] {
                // 3 copies stay under `INLINE_BELOW` (lane 0 drains every
                // lane); 300 make an extract phase (each lane drains its own).
                for (copies, phases) in [(3u32, 0u64), (300, 1)] {
                    let (mut frontier, mut settled) = with_pool(lanes, || {
                        let policy = Twins {
                            copies,
                            seen: RefCell::default(),
                        };
                        let mut scratch = StepScratch::new(&split);
                        assert!(!step(&policy, &split, &mut scratch, &StepQuery::default()));
                        let at = format!("{lanes} lanes, {copies} copies");
                        assert_eq!(scratch.extract_phases, phases, "{at}");
                        policy.seen.into_inner()
                    });
                    frontier.sort_unstable();
                    settled.sort_unstable();
                    // The source, 0, and each copied vertex, once.
                    let want: Vec<VertexId> = (0..=copies).collect();
                    assert_eq!(frontier, want, "{lanes} lanes, {copies} copies");
                    assert_eq!(settled, want, "{lanes} lanes, {copies} copies");
                }
            }
        });
    }

    #[test]
    fn multi_lane_solves_match_dijkstra_and_settle_each_vertex_once() {
        within_a_minute(|| {
            for class in [GraphClass::Random, GraphClass::Road] {
                let g = CsrGraph::from_edge_list(
                    &WorkloadSpec::new(class, WeightDist::Uniform, 12, 12).generate(),
                );
                let split = SplitCsr::new(&g, crate::adaptive_delta(&g) as u32);
                let rho = default_rho(g.n());
                let n = g.n() as VertexId;
                for lanes in [2usize, 4] {
                    with_pool(lanes, || {
                        let mut scratch = StepScratch::new(&split);
                        assert_eq!(scratch.lane_count(), lanes);
                        for s in [0, n / 3, 2 * n / 3] {
                            let want = dijkstra(&g, s);
                            let reachable = want.iter().filter(|&&d| d != INF).count() as u64;
                            let at = format!("{class:?}, {lanes} lanes, source {s}");
                            // Rand-UWD-2^12 at 2 lanes holds buckets of at
                            // least `INLINE_BELOW` entries: each solve must
                            // take the extract phase, not only the inline path.
                            let phased = class == GraphClass::Random && lanes == 2;
                            for kernel in ["delta", "rho", "delta-star"] {
                                let ev = EventCounters::new();
                                match kernel {
                                    "delta" => {
                                        delta_stepping_presplit(&split, s, &mut scratch, Some(&ev))
                                    }
                                    "rho" => rho_stepping_presplit(
                                        &split,
                                        s,
                                        rho,
                                        &mut scratch,
                                        Some(&ev),
                                    ),
                                    _ => delta_star_presplit(&split, s, &mut scratch, Some(&ev)),
                                }
                                assert_eq!(scratch.to_distances(), want, "{kernel}, {at}");
                                assert_eq!(ev.settled.get(), reachable, "{kernel}, {at}");
                                assert!(
                                    !phased || scratch.extract_phases > 0,
                                    "{kernel}, {at}: no extract phase"
                                );
                            }
                            // Δ-early to the farthest vertex and to a middle one.
                            let far = (0..n).filter(|&v| want[v as usize] != INF);
                            let far = far.max_by_key(|&v| want[v as usize]).unwrap();
                            for t in [far, (s + n / 2) % n] {
                                let got = delta_stepping_st(&split, s, t, &mut scratch, None, None);
                                assert_eq!(got, Some(want[t as usize]), "delta-early to {t}, {at}");
                                assert!(
                                    !phased || scratch.extract_phases > 0,
                                    "delta-early to {t}, {at}: no extract phase"
                                );
                            }
                        }
                    });
                }
            }
        });
    }
}
