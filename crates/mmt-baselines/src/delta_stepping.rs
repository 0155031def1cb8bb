//! Parallel Δ-stepping (Meyer & Sanders), the paper's parallel baseline.
//!
//! Vertices are kept in buckets of width Δ by tentative distance. The
//! current bucket is expanded in *light phases* (edges of weight ≤ Δ, which
//! may re-insert into the same bucket) until stable, then the accumulated
//! removed set relaxes its *heavy* edges (weight > Δ) in one parallel pass.
//! Request generation and relaxation (`fetch_min`) run on the rayon pool;
//! bucket maintenance is serial, with stale entries discarded lazily — the
//! same engineering shape as the MTA-2 implementation of Madduri et al.
//! that the paper benchmarks against.
//!
//! Buckets are a cyclic array of `C/Δ + 2` slots: every queued tentative
//! distance lies within `C + Δ` of the current bucket's base, so live
//! entries never collide across cycles.
//!
//! Two kernels live here:
//!
//! * [`delta_stepping_presplit`] — the hot path. It runs over a
//!   [`SplitCsr`] (light/heavy edges pre-partitioned per vertex, so phases
//!   walk exactly the slice they need) with all per-round state owned by a
//!   reusable [`DeltaScratch`]: recycled bucket vectors, lane-indexed relax
//!   buffers instead of per-phase `collect()`, and generation-stamped
//!   duplicate suppression instead of `sort + dedup`. After the first query
//!   warms the scratch, a query allocates nothing.
//! * [`delta_stepping_reference`] — the original kernel, kept verbatim as
//!   the before-side of the `bench_hotpath` allocation comparison and as a
//!   second implementation for differential testing.
//!
//! [`delta_stepping`] / [`delta_stepping_counted`] keep their historical
//! signatures but now route through the pre-split kernel.

use crate::relax_core::relax_arcs;
use mmt_graph::types::{Dist, VertexId, Weight, INF};
use mmt_graph::{CsrGraph, SplitAdjacency, SplitCsr};
use mmt_platform::scratch::{GenerationStamps, ShardBuffers};
use mmt_platform::{AtomicMinU64, CancelToken, EventCounters};
use rayon::prelude::*;

/// Δ-stepping parameters. Construct with [`DeltaConfig::new`],
/// [`DeltaConfig::auto`], or [`DeltaConfig::adaptive`] and adjust via the
/// chainable [`with_delta`](DeltaConfig::with_delta):
///
/// ```
/// use mmt_baselines::DeltaConfig;
/// let cfg = DeltaConfig::new(8).with_delta(16);
/// assert_eq!(cfg.delta(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaConfig {
    /// Bucket width Δ ≥ 1.
    #[deprecated(since = "0.2.0", note = "use DeltaConfig::new/with_delta and delta()")]
    pub delta: u64,
}

#[allow(deprecated)]
impl DeltaConfig {
    /// A config with the given bucket width Δ (clamped to ≥ 1).
    pub fn new(delta: u64) -> Self {
        Self {
            delta: delta.max(1),
        }
    }

    /// Uses the standard heuristic Δ = C / average-degree (see
    /// [`default_delta`]).
    pub fn auto(g: &CsrGraph) -> Self {
        Self::new(default_delta(g))
    }

    /// Uses the adaptive heuristic Δ = 2·avg-weight / average-degree (see
    /// [`adaptive_delta`]), which tracks the actual weight mass instead of
    /// the maximum weight `C`.
    pub fn adaptive(g: &CsrGraph) -> Self {
        Self::new(adaptive_delta(g))
    }

    /// Returns a copy with the bucket width replaced (clamped to ≥ 1).
    pub fn with_delta(mut self, delta: u64) -> Self {
        self.delta = delta.max(1);
        self
    }

    /// The bucket width Δ.
    pub fn delta(&self) -> u64 {
        self.delta
    }
}

/// The Meyer–Sanders heuristic bucket width: `max(1, C / avg_degree)`,
/// which bounds the expected number of re-relaxations per light phase.
pub fn default_delta(g: &CsrGraph) -> u64 {
    if g.n() == 0 || g.num_arcs() == 0 {
        return 1;
    }
    let avg_degree = (g.num_arcs() as u64 / g.n() as u64).max(1);
    (g.max_weight() as u64 / avg_degree).max(1)
}

/// Adaptive bucket width: `max(1, 2·avg_weight / avg_degree)`.
///
/// For a uniform weight distribution (UWD) the average weight is `C/2`, so
/// this reduces to the classic `C / avg_degree` of [`default_delta`]. For
/// heavy-tailed distributions like the paper's poly-log PWD — where most
/// weights are tiny but `C` is huge — `C / avg_degree` produces a bucket so
/// wide the algorithm degenerates towards Bellman–Ford; seeding from the
/// *average* weight keeps the bucket matched to where the weight mass
/// actually is.
pub fn adaptive_delta(g: &CsrGraph) -> u64 {
    if g.n() == 0 || g.num_arcs() == 0 {
        return 1;
    }
    let avg_weight = (g.total_arc_weight() / g.num_arcs() as u64).max(1);
    let avg_degree = (g.num_arcs() as u64 / g.n() as u64).max(1);
    (2 * avg_weight / avg_degree).max(1)
}

/// Single-source shortest paths by parallel Δ-stepping.
///
/// ```
/// use mmt_baselines::{delta_stepping, DeltaConfig};
/// use mmt_graph::{types::EdgeList, CsrGraph};
///
/// let g = CsrGraph::from_edge_list(&EdgeList::from_triples(
///     3,
///     [(0, 1, 4), (1, 2, 4), (0, 2, 9)],
/// ));
/// let dist = delta_stepping(&g, 0, DeltaConfig::auto(&g));
/// assert_eq!(dist, vec![0, 4, 8]);
/// ```
pub fn delta_stepping(g: &CsrGraph, source: VertexId, cfg: DeltaConfig) -> Vec<Dist> {
    delta_stepping_counted(g, source, cfg, None)
}

/// As [`delta_stepping`], optionally filling in [`EventCounters`] (bucket
/// expansions = light phases + heavy phases; relaxations = edges actually
/// walked; improvements = strict `fetch_min` wins; settled = vertices
/// removed from buckets) so Δ-stepping runs can be compared against
/// instrumented Thorup runs on equal terms.
///
/// One-shot convenience: builds the [`SplitCsr`] and a fresh
/// [`DeltaScratch`] per call. Repeated queries over one graph should build
/// those once and call [`delta_stepping_presplit`] directly.
pub fn delta_stepping_counted(
    g: &CsrGraph,
    source: VertexId,
    cfg: DeltaConfig,
    counters: Option<&EventCounters>,
) -> Vec<Dist> {
    assert!((source as usize) < g.n(), "source out of range");
    let delta = cfg.delta().min(u32::MAX as u64) as Weight;
    let split = SplitCsr::new(g, delta);
    let mut scratch = DeltaScratch::new(&split);
    delta_stepping_presplit(&split, source, &mut scratch, counters);
    scratch.to_distances()
}

/// Reusable per-query state for [`delta_stepping_presplit`].
///
/// Everything a query touches lives here: the tentative-distance array, the
/// cyclic bucket ring, the batch/active/removed staging vectors, the
/// lane-indexed parallel relax buffers, and the two duplicate-suppression
/// stamp arrays. All of it retains capacity across queries, so after the
/// first (warm-up) query a solve performs zero heap allocations.
#[derive(Debug)]
pub struct DeltaScratch {
    dist: Vec<AtomicMinU64>,
    /// Distance at which each vertex was last relaxed this query (`INF` =
    /// never). Guards against re-relaxing a re-scanned vertex whose
    /// distance did not improve, and doubles as the `removed` dedup.
    relaxed_at: Vec<Dist>,
    /// "Queued in bucket b" stamps: `stamp_base + b` marks membership, so
    /// a vertex enters each bucket at most once per queueing epoch.
    queued: GenerationStamps,
    /// Start of this query's stamp range; advanced past every stamp used so
    /// queries never need an `O(n)` stamp clear.
    stamp_base: u64,
    buckets: Vec<Vec<VertexId>>,
    batch: Vec<VertexId>,
    active: Vec<VertexId>,
    removed: Vec<VertexId>,
    relax: ShardBuffers<(VertexId, Dist)>,
}

impl DeltaScratch {
    /// Scratch sized for `split` (its vertex count and bucket-ring width).
    /// Accepts any [`SplitAdjacency`] representation — the duplicating
    /// [`SplitCsr`] or an arena-backed offset view. Lane count follows the
    /// *installed* rayon budget, so a scratch built inside
    /// [`mmt_platform::with_pool`] gets one relax lane per pool worker
    /// (outside a pool the budget equals [`available_threads`]).
    pub fn new(split: &impl SplitAdjacency) -> Self {
        let n = split.n();
        Self {
            dist: (0..n).map(|_| AtomicMinU64::new(INF)).collect(),
            relaxed_at: vec![INF; n],
            queued: GenerationStamps::new(n),
            stamp_base: 1,
            buckets: vec![Vec::new(); Self::ring_len(split)],
            batch: Vec::new(),
            active: Vec::new(),
            removed: Vec::new(),
            relax: ShardBuffers::new(rayon::current_num_threads()),
        }
    }

    /// Relax lanes (the thread budget when the scratch was built).
    pub fn lane_count(&self) -> usize {
        self.relax.lane_count()
    }

    /// Cyclic ring length for `split`: `C/Δ + 2` slots.
    fn ring_len(split: &impl SplitAdjacency) -> usize {
        (split.max_weight() as u64 / split.delta().max(1) as u64 + 2) as usize
    }

    /// Prepares for a query over `split`: grows to its dimensions if needed
    /// (retaining capacity otherwise) and resets per-query state.
    fn reset(&mut self, split: &impl SplitAdjacency) {
        let n = split.n();
        if self.dist.len() != n {
            self.dist.resize_with(n, || AtomicMinU64::new(INF));
            self.relaxed_at.resize(n, INF);
        }
        let ring = Self::ring_len(split);
        if self.buckets.len() != ring {
            self.buckets.resize_with(ring, Vec::new);
        }
        if self.queued.len() < n {
            self.queued.reset(n);
        }
        for d in &self.dist {
            d.store(INF);
        }
        self.relaxed_at.fill(INF);
        // All buckets drain before a query returns; clear anyway so a
        // panicked query can't poison the next one.
        for b in &mut self.buckets {
            b.clear();
        }
    }

    /// The distance to `v` computed by the last query.
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

    /// Heap bytes currently held (distances, buckets, stamps, lanes).
    pub fn heap_bytes(&self) -> usize {
        use mmt_platform::MemFootprint;
        self.dist.capacity() * std::mem::size_of::<AtomicMinU64>()
            + self.relaxed_at.heap_bytes()
            + self.queued.heap_bytes()
            + self
                .buckets
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<VertexId>())
                .sum::<usize>()
            + self.relax.heap_bytes()
    }
}

/// The allocation-free Δ-stepping hot path over a pre-split CSR.
///
/// Light phases walk only each active vertex's light slice; the heavy phase
/// walks only the removed set's heavy slices. Parallel relaxations scatter
/// their improvements into `scratch`'s lane buffers; the serial drain
/// deduplicates with bucket stamps (a vertex sits in a bucket at most once)
/// and the `relaxed_at` guard skips any re-scanned vertex whose distance
/// did not improve since its last relaxation.
///
/// Distances are left in `scratch` (see [`DeltaScratch::distance`] /
/// [`DeltaScratch::copy_distances_into`]) so steady-state callers decide
/// where the output goes without a forced allocation.
///
/// Generic over [`SplitAdjacency`]: the same monomorphised kernel serves
/// the duplicating [`SplitCsr`] and the arena-backed
/// [`SplitView`](mmt_graph::SplitView) (whose light/heavy *order* differs
/// — weight-sorted vs source order — which this kernel never depends on).
pub fn delta_stepping_presplit<S: SplitAdjacency + Sync>(
    split: &S,
    source: VertexId,
    scratch: &mut DeltaScratch,
    counters: Option<&EventCounters>,
) {
    presplit_kernel::<S, 0>(split, source, None, None, scratch, counters);
}

/// Early-exit Δ-stepping for a single s–t query over a pre-split CSR.
///
/// Runs the identical kernel as [`delta_stepping_presplit`], but stops as
/// soon as the target's bucket settles instead of draining every bucket.
/// The exit test is sound because of the bucket invariant: when the kernel
/// finishes bucket `cur` (light fixpoint plus heavy phase) and advances,
/// every vertex whose final distance lies below `(cur + 1)·Δ` has been
/// settled — so once `dist(t)/Δ < cur` the tentative label at `t` can no
/// longer improve and equals the true distance. Unreachable targets are
/// still proven exactly: the bucket ring drains s's whole component and the
/// kernel returns with `dist(t) == INF`.
///
/// Returns `None` if `cancel` fired mid-query (the scratch stays reusable),
/// otherwise `Some(dist)` with [`INF`] meaning proven unreachable.
/// `counters` accounting is identical to the full-SSSP kernel, so
/// `arcs_scanned` directly measures the work the early exit avoided.
pub fn delta_stepping_st<S: SplitAdjacency + Sync>(
    split: &S,
    source: VertexId,
    target: VertexId,
    scratch: &mut DeltaScratch,
    counters: Option<&EventCounters>,
    cancel: Option<&CancelToken>,
) -> Option<Dist> {
    assert!((target as usize) < split.n(), "target out of range");
    let completed = presplit_kernel::<S, 0>(split, source, Some(target), cancel, scratch, counters);
    completed.then(|| scratch.distance(target))
}

/// [`delta_stepping_presplit`] with an unrolled read-ahead on the bucket
/// scan: each relaxation first loads the distance slot the loop will
/// `fetch_min` `8` iterations later, pulling its cache line while the
/// current relaxation's latency is in flight. The workspace forbids
/// `unsafe`, so this is a real (relaxed) load through
/// [`std::hint::black_box`] rather than a prefetch intrinsic — the
/// closest portable spelling. Same distances, same counter accounting
/// (`arcs_scanned` counts arcs, not read-ahead touches); `bench_layout`
/// measures the win/loss as the `delta-u64-ra` engine rows.
pub fn delta_stepping_presplit_readahead<S: SplitAdjacency + Sync>(
    split: &S,
    source: VertexId,
    scratch: &mut DeltaScratch,
    counters: Option<&EventCounters>,
) {
    presplit_kernel::<S, 8>(split, source, None, None, scratch, counters);
}

/// The shared kernel. With `target == None` it drains every bucket (full
/// SSSP); with a target it breaks once the target's bucket has settled.
/// Returns `false` iff `cancel` fired before the query finished; the stamp
/// epoch is advanced on *every* exit path so the scratch is always safe to
/// reuse.
fn presplit_kernel<S: SplitAdjacency + Sync, const AHEAD: usize>(
    split: &S,
    source: VertexId,
    target: Option<VertexId>,
    cancel: Option<&CancelToken>,
    scratch: &mut DeltaScratch,
    counters: Option<&EventCounters>,
) -> bool {
    assert!((source as usize) < split.n(), "source out of range");
    scratch.reset(split);
    let delta = split.delta().max(1) as u64;
    let DeltaScratch {
        dist,
        relaxed_at,
        queued,
        stamp_base,
        buckets,
        batch,
        active,
        removed,
        relax,
    } = scratch;
    let dist: &[AtomicMinU64] = dist;
    let nb = buckets.len() as u64;
    let slot_of = |b: u64| (b % nb) as usize;

    dist[source as usize].store(0);
    buckets[0].push(source);
    queued.mark_with(source as usize, *stamp_base);
    let mut pending = 1usize;
    let mut cur: u64 = 0; // absolute bucket index
    let mut completed = true;

    'outer: while pending > 0 {
        if cancel.is_some_and(|c| c.is_cancelled()) {
            completed = false;
            break 'outer;
        }
        // Advance to the next non-empty slot; all entries (live or stale)
        // sit within the cyclic window [cur, cur + nb - 1].
        let mut scanned = 0u64;
        while buckets[slot_of(cur)].is_empty() {
            cur += 1;
            scanned += 1;
            assert!(scanned <= nb, "pending entries outside the cyclic window");
        }
        let slot = slot_of(cur);
        let cur_stamp = *stamp_base + cur;
        removed.clear();

        // Light phases: expand the current bucket to a fixpoint. Cancellation
        // is also polled per phase: with a huge Δ the whole query is one
        // bucket and the outer-loop poll alone would never fire.
        while !buckets[slot].is_empty() {
            if cancel.is_some_and(|c| c.is_cancelled()) {
                completed = false;
                break 'outer;
            }
            std::mem::swap(batch, &mut buckets[slot]);
            pending -= batch.len();
            active.clear();
            for &v in batch.iter() {
                let vi = v as usize;
                if queued.stamp_of(vi) == cur_stamp {
                    queued.unmark(vi);
                }
                let d = dist[vi].load();
                // Stale (migrated to an earlier bucket) or unimproved since
                // its last relaxation: skip without touching any edges.
                if d / delta == cur && d < relaxed_at[vi] {
                    if relaxed_at[vi] == INF {
                        removed.push(v);
                    }
                    relaxed_at[vi] = d;
                    active.push(v);
                }
            }
            batch.clear();
            if active.is_empty() {
                continue;
            }
            if let Some(ev) = counters {
                ev.bucket_expansions.bump();
                let arcs = active
                    .iter()
                    .map(|&v| split.light(v).0.len() as u64)
                    .sum::<u64>();
                ev.arcs_scanned.add(arcs);
                ev.relaxations.add(arcs);
            }
            relax.scatter(active, |&u, lane| {
                let du = dist[u as usize].load();
                let (ts, ws) = split.light(u);
                relax_arcs::<AHEAD>(dist, du, ts, ws, |v, nd| lane.push((v, nd)));
            });
            let mut drained = 0u64;
            relax.drain(|(v, nd)| {
                drained += 1;
                let b = nd / delta;
                debug_assert!(b >= cur);
                if queued.mark_with(v as usize, *stamp_base + b) {
                    buckets[slot_of(b)].push(v);
                    pending += 1;
                }
            });
            if let Some(ev) = counters {
                ev.improvements.add(drained);
            }
        }

        // Heavy phase: each settled vertex relaxes its heavy edges once.
        if !removed.is_empty() {
            if let Some(ev) = counters {
                ev.bucket_expansions.bump();
                ev.settled.add(removed.len() as u64);
                let arcs = removed
                    .iter()
                    .map(|&v| split.heavy(v).0.len() as u64)
                    .sum::<u64>();
                ev.arcs_scanned.add(arcs);
                ev.relaxations.add(arcs);
            }
            relax.scatter(removed, |&u, lane| {
                let du = dist[u as usize].load();
                let (ts, ws) = split.heavy(u);
                relax_arcs::<AHEAD>(dist, du, ts, ws, |v, nd| lane.push((v, nd)));
            });
            let mut drained = 0u64;
            relax.drain(|(v, nd)| {
                drained += 1;
                let b = nd / delta;
                debug_assert!(b > cur);
                if queued.mark_with(v as usize, *stamp_base + b) {
                    buckets[slot_of(b)].push(v);
                    pending += 1;
                }
            });
            if let Some(ev) = counters {
                ev.improvements.add(drained);
            }
        }
        cur += 1;
        // Early exit: bucket `cur - 1` has settled, so any vertex with a
        // tentative distance in an earlier bucket is final.
        if let Some(t) = target {
            let dt = dist[t as usize].load();
            if dt != INF && dt / delta < cur {
                break;
            }
        }
    }
    // Every pop unmarks its live stamp, but advance past this query's stamp
    // range anyway so a future query can never collide with a stale stamp.
    // Every stamp this query marked is at most `stamp_base + cur + nb - 1`
    // on every exit path (normal, early-exit, cancelled), so this advance
    // keeps the scratch reusable even when buckets were left undrained.
    *stamp_base += cur + nb + 1;
    completed
}

/// The seed Δ-stepping kernel, kept verbatim as the *before* side of the
/// hot-path comparison: it re-filters light/heavy per relaxation, rebuilds
/// request vectors with `collect()` every phase, and deduplicates the
/// removed set with `sort + dedup`. `bench_hotpath` measures it against
/// [`delta_stepping_presplit`] with the counting allocator; the verify
/// harness runs it as one more differential engine.
pub fn delta_stepping_reference(g: &CsrGraph, source: VertexId, cfg: DeltaConfig) -> Vec<Dist> {
    delta_stepping_reference_counted(g, source, cfg, None)
}

/// As [`delta_stepping_reference`], with optional [`EventCounters`]
/// (relaxations = full degree of every expanded bucket entry, the seed
/// accounting — duplicate entries count double, which is exactly the
/// re-scan waste the regression tests pin down).
pub fn delta_stepping_reference_counted(
    g: &CsrGraph,
    source: VertexId,
    cfg: DeltaConfig,
    counters: Option<&EventCounters>,
) -> Vec<Dist> {
    assert!((source as usize) < g.n(), "source out of range");
    let delta = cfg.delta().max(1);
    let nb = (g.max_weight() as u64 / delta + 2) as usize;
    let dist: Vec<AtomicMinU64> = (0..g.n()).map(|_| AtomicMinU64::new(INF)).collect();
    dist[source as usize].store(0);

    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); nb];
    buckets[0].push(source);
    let mut pending = 1usize;
    let mut cur: u64 = 0; // absolute bucket index

    let bucket_of = |d: Dist| d / delta;
    let slot_of = |b: u64| (b % nb as u64) as usize;

    while pending > 0 {
        let mut scanned = 0;
        while buckets[slot_of(cur)].is_empty() {
            cur += 1;
            scanned += 1;
            assert!(scanned <= nb, "pending entries outside the cyclic window");
        }
        let slot = slot_of(cur);
        let mut removed: Vec<VertexId> = Vec::new();

        // Light phases: expand the current bucket to a fixpoint.
        while !buckets[slot].is_empty() {
            let batch = std::mem::take(&mut buckets[slot]);
            pending -= batch.len();
            let active: Vec<VertexId> = batch
                .into_iter()
                .filter(|&v| bucket_of(dist[v as usize].load()) == cur)
                .collect();
            if active.is_empty() {
                continue;
            }
            if let Some(ev) = counters {
                ev.bucket_expansions.bump();
            }
            let improved = relax_batch(g, &dist, &active, |w| w as u64 <= delta);
            if let Some(ev) = counters {
                let arcs: u64 = active.iter().map(|&v| g.degree(v) as u64).sum();
                ev.arcs_scanned.add(arcs);
                ev.relaxations.add(arcs);
                ev.improvements.add(improved.len() as u64);
            }
            removed.extend(active);
            for (v, nd) in improved {
                buckets[slot_of(bucket_of(nd))].push(v);
                pending += 1;
            }
        }

        // Heavy phase: each removed vertex relaxes its heavy edges once.
        removed.sort_unstable();
        removed.dedup();
        if let Some(ev) = counters {
            ev.bucket_expansions.bump();
            ev.settled.add(removed.len() as u64);
        }
        let improved = relax_batch(g, &dist, &removed, |w| w as u64 > delta);
        for (v, nd) in improved {
            debug_assert!(bucket_of(nd) > cur);
            buckets[slot_of(bucket_of(nd))].push(v);
            pending += 1;
        }
        cur += 1;
    }
    dist.into_iter().map(|d| d.load()).collect()
}

/// Generates relaxation requests for `batch` over edges passing `keep`, and
/// applies them with `fetch_min`. Returns the `(vertex, new_dist)` pairs
/// that strictly improved (possibly with duplicates per vertex; stale
/// bucket entries are filtered at expansion time).
fn relax_batch(
    g: &CsrGraph,
    dist: &[AtomicMinU64],
    batch: &[VertexId],
    keep: impl Fn(u32) -> bool + Sync + Send,
) -> Vec<(VertexId, Dist)> {
    let keep = &keep;
    batch
        .par_iter()
        .flat_map_iter(move |&u| {
            let du = dist[u as usize].load();
            g.edges_from(u).filter_map(move |(v, w)| {
                if keep(w) {
                    Some((v, du + w as Dist))
                } else {
                    None
                }
            })
        })
        .filter(|&(v, nd)| dist[v as usize].fetch_min(nd))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use mmt_graph::gen::shapes;
    use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
    use mmt_graph::types::EdgeList;

    fn check_graph(el: &EdgeList, deltas: &[u64]) {
        let g = CsrGraph::from_edge_list(el);
        let sources: Vec<u32> = [0usize, el.n / 2, el.n - 1]
            .iter()
            .map(|&s| s as u32)
            .collect();
        for &s in &sources {
            let want = dijkstra(&g, s);
            for &delta in deltas {
                let got = delta_stepping(&g, s, DeltaConfig::new(delta));
                assert_eq!(got, want, "delta={delta} source={s}");
                let reference = delta_stepping_reference(&g, s, DeltaConfig::new(delta));
                assert_eq!(reference, want, "reference delta={delta} source={s}");
            }
        }
    }

    #[test]
    fn path_graph_all_deltas() {
        check_graph(&shapes::path(30, 5), &[1, 2, 5, 100]);
    }

    #[test]
    fn star_and_complete() {
        check_graph(&shapes::star(20, 7), &[1, 7, 50]);
        check_graph(&shapes::complete(12, 3), &[1, 3, 10]);
    }

    #[test]
    fn random_workloads_match_dijkstra() {
        for (class, wd) in [
            (GraphClass::Random, WeightDist::Uniform),
            (GraphClass::Random, WeightDist::PolyLog),
            (GraphClass::Rmat, WeightDist::Uniform),
            (GraphClass::Rmat, WeightDist::PolyLog),
        ] {
            let mut spec = WorkloadSpec::new(class, wd, 8, 8);
            spec.seed = 23;
            let el = spec.generate();
            let g = CsrGraph::from_edge_list(&el);
            let auto = DeltaConfig::auto(&g);
            let adaptive = DeltaConfig::adaptive(&g);
            for s in [0u32, 17, 200] {
                let want = dijkstra(&g, s);
                assert_eq!(delta_stepping(&g, s, auto), want, "{}", spec.name());
                assert_eq!(
                    delta_stepping(&g, s, adaptive),
                    want,
                    "{} (adaptive delta)",
                    spec.name()
                );
                assert_eq!(
                    delta_stepping(&g, s, DeltaConfig::new(1)),
                    want,
                    "{} (delta 1 = parallel Dijkstra mode)",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_across_queries_and_graphs() {
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::PolyLog, 7, 9);
        spec.seed = 99;
        let g = CsrGraph::from_edge_list(&spec.generate());
        let split = SplitCsr::new(&g, adaptive_delta(&g).min(u32::MAX as u64) as u32);
        let mut scratch = DeltaScratch::new(&split);
        let mut out = Vec::new();
        for s in [0u32, 3, 50, 100, 3, 0] {
            delta_stepping_presplit(&split, s, &mut scratch, None);
            scratch.copy_distances_into(&mut out);
            assert_eq!(out, dijkstra(&g, s), "source {s}");
        }
        // The same scratch must also survive a move to a differently-sized
        // split (it regrows rather than asserting).
        let small = CsrGraph::from_edge_list(&shapes::path(5, 2));
        let small_split = SplitCsr::new(&small, 2);
        delta_stepping_presplit(&small_split, 0, &mut scratch, None);
        scratch.copy_distances_into(&mut out);
        assert_eq!(out, dijkstra(&small, 0));
    }

    #[test]
    fn arena_view_matches_duplicating_split() {
        use mmt_graph::CsrArena;
        let mut spec = WorkloadSpec::new(GraphClass::Rmat, WeightDist::PolyLog, 8, 10);
        spec.seed = 41;
        let g = CsrGraph::from_edge_list(&spec.generate());
        let arena = CsrArena::new(&g);
        for delta in [1u32, adaptive_delta(&g) as u32, 64] {
            let dup = SplitCsr::new(&g, delta);
            let view = arena.split(delta);
            let mut scratch = DeltaScratch::new(&view);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for s in [0u32, 17, 200] {
                delta_stepping_presplit(&view, s, &mut scratch, None);
                scratch.copy_distances_into(&mut a);
                delta_stepping_presplit(&dup, s, &mut scratch, None);
                scratch.copy_distances_into(&mut b);
                assert_eq!(a, b, "delta={delta} source={s}");
                assert_eq!(a, dijkstra(&g, s), "delta={delta} source={s}");
            }
        }
    }

    #[test]
    fn disconnected_leaves_inf() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(4, [(0, 1, 6)]));
        let d = delta_stepping(&g, 0, DeltaConfig::new(3));
        assert_eq!(d, vec![0, 6, INF, INF]);
    }

    #[test]
    fn self_loops_and_parallel_edges() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(
            2,
            [(0, 0, 4), (0, 1, 9), (0, 1, 2)],
        ));
        assert_eq!(delta_stepping(&g, 0, DeltaConfig::new(4)), vec![0, 2]);
    }

    #[test]
    fn default_delta_heuristic() {
        let g = CsrGraph::from_edge_list(&shapes::complete(10, 64));
        // avg degree 9, C = 64 -> delta = 64 / 9 = 7
        assert_eq!(default_delta(&g), 7);
        let empty = CsrGraph::from_edge_list(&EdgeList::new(3));
        assert_eq!(default_delta(&empty), 1);
    }

    #[test]
    fn adaptive_delta_tracks_weight_mass() {
        // Uniform weights: adaptive ≈ classic (avg = C/2 ⇒ 2·avg = C).
        let uniform = CsrGraph::from_edge_list(&shapes::complete(10, 64));
        let avg_w = uniform.total_arc_weight() / uniform.num_arcs() as u64;
        assert_eq!(adaptive_delta(&uniform), (2 * avg_w / 9).max(1));
        // Heavy tail: one huge edge must not blow the bucket width up the
        // way C/avg_degree does.
        let mut triples: Vec<(u32, u32, u32)> = (0..499u32).map(|i| (i, i + 1, 1)).collect();
        triples.push((0, 499, 1_000_000));
        let skewed = CsrGraph::from_edge_list(&EdgeList::from_triples(500, triples));
        assert!(adaptive_delta(&skewed) < default_delta(&skewed) / 100);
        let empty = CsrGraph::from_edge_list(&EdgeList::new(3));
        assert_eq!(adaptive_delta(&empty), 1);
    }

    #[test]
    fn st_matches_dijkstra_at_the_target() {
        for class in [GraphClass::Road, GraphClass::Random] {
            let mut spec = WorkloadSpec::new(class, WeightDist::Uniform, 8, 6);
            spec.seed = 7;
            let g = CsrGraph::from_edge_list(&spec.generate());
            for delta in [
                1u32,
                adaptive_delta(&g).min(u32::MAX as u64) as u32,
                1 << 20,
            ] {
                let split = SplitCsr::new(&g, delta.max(1));
                let mut scratch = DeltaScratch::new(&split);
                for s in [0u32, 100] {
                    let want = dijkstra(&g, s);
                    for t in [0u32, 1, 17, 128, 255] {
                        let got = delta_stepping_st(&split, s, t, &mut scratch, None, None);
                        assert_eq!(
                            got,
                            Some(want[t as usize]),
                            "{} delta={delta} s={s} t={t}",
                            spec.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn st_source_equals_target_and_unreachable() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(5, [(0, 1, 3), (2, 3, 4)]));
        let split = SplitCsr::new(&g, 2);
        let mut scratch = DeltaScratch::new(&split);
        assert_eq!(
            delta_stepping_st(&split, 1, 1, &mut scratch, None, None),
            Some(0)
        );
        // Unreachable is proven by draining the component, not guessed.
        assert_eq!(
            delta_stepping_st(&split, 0, 3, &mut scratch, None, None),
            Some(INF)
        );
        assert_eq!(
            delta_stepping_st(&split, 0, 4, &mut scratch, None, None),
            Some(INF)
        );
        assert_eq!(
            delta_stepping_st(&split, 0, 1, &mut scratch, None, None),
            Some(3)
        );
    }

    #[test]
    fn st_cancel_interrupts_and_scratch_survives() {
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 8, 6);
        spec.seed = 5;
        let g = CsrGraph::from_edge_list(&spec.generate());
        // A huge Δ makes the whole query one bucket, exercising the
        // per-light-phase poll path.
        for delta in [4u32, 1 << 24] {
            let split = SplitCsr::new(&g, delta);
            let mut scratch = DeltaScratch::new(&split);
            let token = CancelToken::new();
            token.cancel();
            assert_eq!(
                delta_stepping_st(&split, 0, 200, &mut scratch, None, Some(&token)),
                None,
                "delta={delta}"
            );
            // Reuse after interruption must still be exact (stamp epoch
            // advanced on the cancelled exit path).
            let got = delta_stepping_st(&split, 0, 200, &mut scratch, None, None);
            assert_eq!(got, Some(dijkstra(&g, 0)[200]), "delta={delta}");
        }
    }

    #[test]
    fn st_early_exit_scans_fewer_arcs_than_full_sssp() {
        let spec = WorkloadSpec::new(GraphClass::Road, WeightDist::Uniform, 10, 6);
        let g = CsrGraph::from_edge_list(&spec.generate());
        let delta = adaptive_delta(&g).min(u32::MAX as u64) as u32;
        let split = SplitCsr::new(&g, delta.max(1));
        let mut scratch = DeltaScratch::new(&split);
        let full = mmt_platform::EventCounters::default();
        delta_stepping_presplit(&split, 0, &mut scratch, Some(&full));
        let near = mmt_platform::EventCounters::default();
        // Target a grid neighbour: its bucket settles almost immediately.
        let d = delta_stepping_st(&split, 0, 1, &mut scratch, Some(&near), None).unwrap();
        assert_eq!(d, dijkstra(&g, 0)[1]);
        let full_arcs = full.snapshot().arcs_scanned;
        let near_arcs = near.snapshot().arcs_scanned;
        assert!(
            near_arcs < full_arcs,
            "early exit scanned {near_arcs} arcs vs {full_arcs} for full SSSP"
        );
    }

    #[test]
    fn counters_record_activity() {
        let g = CsrGraph::from_edge_list(&shapes::path(20, 3));
        let ev = EventCounters::new();
        let d = super::delta_stepping_counted(&g, 0, DeltaConfig::new(6), Some(&ev));
        assert_eq!(d, dijkstra(&g, 0));
        assert_eq!(ev.settled.get(), 20);
        assert!(ev.bucket_expansions.get() > 0);
        assert_eq!(ev.relaxations.get() as usize, g.num_arcs());
        assert_eq!(ev.arcs_scanned.get(), ev.relaxations.get());
        assert!(ev.improvements.get() >= 19);
    }

    /// Regression for the `removed` re-scan bug: a vertex queued into a
    /// future bucket twice (here: vertex 1 enters bucket 2 first via the
    /// heavy edge (0,1,25), then again via the light edge (2,1,9) after
    /// vertex 2 settles in bucket 1) used to be expanded twice even though
    /// its distance was final — the seed kernel walks its edges once per
    /// stale entry. The stamped kernel relaxes every arc exactly once.
    #[test]
    fn no_rerelax_of_requeued_vertices_on_a_cycle() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(
            3,
            [(0, 1, 25), (0, 2, 12), (2, 1, 9)],
        ));
        let want = dijkstra(&g, 0);
        let cfg = DeltaConfig::new(10);

        let ev_new = EventCounters::new();
        let got = super::delta_stepping_counted(&g, 0, cfg, Some(&ev_new));
        assert_eq!(got, want);
        assert_eq!(
            ev_new.relaxations.get() as usize,
            g.num_arcs(),
            "stamped kernel walks each arc exactly once"
        );
        assert_eq!(ev_new.settled.get(), 3);

        let ev_ref = EventCounters::new();
        let got = super::delta_stepping_reference_counted(&g, 0, cfg, Some(&ev_ref));
        assert_eq!(got, want);
        assert!(
            ev_ref.relaxations.get() as usize > g.num_arcs(),
            "seed kernel re-expands the duplicate bucket entry (got {})",
            ev_ref.relaxations.get()
        );
        assert_eq!(ev_ref.settled.get(), 3);
    }

    /// The read-ahead kernel is behaviourally identical to the plain one:
    /// same distances and the same counter totals (the read-ahead touch is
    /// not an arc scan), across degree shapes that exercise both the
    /// `i + AHEAD < len` window and the short-slice fallback. One lane, so
    /// the relaxation count cannot depend on the thread interleaving.
    #[test]
    fn readahead_matches_plain_presplit_distances_and_counters() {
        let mut spec = WorkloadSpec::new(GraphClass::Rmat, WeightDist::PolyLog, 8, 10);
        spec.seed = 13;
        let dense = CsrGraph::from_edge_list(&spec.generate());
        let path = CsrGraph::from_edge_list(&shapes::path(40, 5));
        mmt_platform::with_pool(1, || {
            for g in [&dense, &path] {
                let delta = adaptive_delta(g).min(u32::MAX as u64) as u32;
                let split = SplitCsr::new(g, delta.max(1));
                let mut scratch = DeltaScratch::new(&split);
                for s in [0u32, g.n() as u32 / 2] {
                    let ev_plain = EventCounters::new();
                    super::delta_stepping_presplit(&split, s, &mut scratch, Some(&ev_plain));
                    let plain = scratch.to_distances();
                    let ev_ra = EventCounters::new();
                    super::delta_stepping_presplit_readahead(&split, s, &mut scratch, Some(&ev_ra));
                    assert_eq!(scratch.to_distances(), plain, "source {s}");
                    assert_eq!(plain, dijkstra(g, s), "source {s}");
                    assert_eq!(ev_ra.relaxations.get(), ev_plain.relaxations.get());
                    assert_eq!(ev_ra.arcs_scanned.get(), ev_plain.arcs_scanned.get());
                    assert_eq!(ev_ra.settled.get(), ev_plain.settled.get());
                }
            }
        });
    }

    #[test]
    fn huge_delta_degenerates_to_bellman_ford_bucket() {
        let g = CsrGraph::from_edge_list(&shapes::path(10, 3));
        let d = delta_stepping(&g, 0, DeltaConfig::new(u64::MAX / 4));
        assert_eq!(d, dijkstra(&g, 0));
    }
}
