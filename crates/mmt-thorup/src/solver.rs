//! The multithreaded Thorup SSSP solver.
//!
//! Thorup's insight (his Lemma, the paper's Lemma 1): if the vertex set
//! splits into parts with all inter-part edges of weight ≥ Δ = 2^α, then a
//! vertex minimising `d` within its part can be settled as soon as its `d`
//! is within Δ of the global minimum — which is exactly what bucketing the
//! parts by `min d >> α` detects. Applied recursively over the Component
//! Hierarchy, whole buckets of components become visitable **in arbitrary
//! order, in parallel**.
//!
//! Implementation follows the paper's engineering choices:
//!
//! * buckets are *virtual* — a child is "in bucket `j`" iff
//!   `mind(child) >> α == j`, so insertion is one atomic write and the
//!   per-iteration bucket contents are recovered by the `toVisit` scan
//!   ([`crate::tovisit`], the paper's Figure 3 / Table 6 optimisation);
//! * `mind` updates are propagated **leaf-to-root** with CAS-min, stopping
//!   at the first ancestor that already knows a smaller value ("mind values
//!   are not propagated very far up the CH in practice");
//! * raising `mind` past an exhausted bucket is done by a *pull refresh*
//!   (min over children) applied with a compare-exchange so that a
//!   concurrent lowering from a cross-component relaxation is never lost;
//! * a component returns control to its parent as soon as its `mind` leaves
//!   the parent's current bucket, or when it reaches `INF` (every vertex
//!   below is settled or unreachable).
//!
//! A default-configuration solve under a thread budget above one runs in
//! one parallel region ([`mmt_platform::team`]), which spawns `lanes − 1`
//! threads once, however many phases the solve posts. Lane 0 drives the
//! recursion. When a bucket holds at least `PHASE_FLOOR` small members
//! (subtrees of at most `LEAF_CUT` leaves), lane 0 posts them as one
//! *visit phase*: every lane claims `CLAIM` members at a time through one
//! atomic cursor and visits its claims on its own, with atomic writes.
//! Lane 0 then visits the large members itself, so that their buckets can
//! post phases in turn. A parallel-tier gather that lane 0 runs becomes a
//! *scan phase* ([`crate::tovisit`]); gathers inside a visit phase run
//! inline on their lane. Each lane draws scan buffers from its own pool on
//! the instance, and an instrumented solve's lanes count into their own
//! counters, which lane 0 folds into the caller's when the region closes.
//!
//! The atomics are only needed while sibling visits run concurrently. A
//! solve configured with [`ThorupConfig::serial_visits`] runs on one lane,
//! visiting a bucket's children in turn, and is then the only writer of
//! its instance, so it makes the same three updates with a plain load,
//! compare and store (the one-lane path every service worker runs). Under
//! a one-thread budget a default-configuration solve runs on one lane too,
//! with atomic writes. On one lane both writers take identical decisions,
//! so their work counters agree exactly.

use crate::error::InputError;
use crate::instance::{LaneScratch, RegionStats, ScanBuffers, ThorupInstance};
use crate::tovisit::{merge, Cut, Scan, ToVisitStrategy};
use crossbeam::utils::CachePadded;
use mmt_ch::ComponentHierarchy;
use mmt_graph::types::{Dist, VertexId, INF};
use mmt_graph::CsrGraph;
use mmt_platform::atomic::saturating_shr;
use mmt_platform::team::{self, Team};
use mmt_platform::{thread_budget, AtomicBitSet, AtomicMinU64, CancelToken, EventCounters};
use parking_lot::{Mutex, RwLock};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How a solve writes its instance: the three updates whose atomicity only
/// matters when sibling visits run concurrently.
trait Writer {
    /// Lowers `cell` to `value`; `true` iff this strictly lowered it.
    fn lower(cell: &AtomicMinU64, value: Dist) -> bool;
    /// Sets bit `v`; `true` iff it was clear.
    fn settle(bits: &AtomicBitSet, v: usize) -> bool;
    /// Publishes a pull-refreshed `mind` over the value `seen` read before
    /// the scan.
    fn refresh(cell: &AtomicMinU64, seen: Dist, fresh: Dist);
}

/// Child visits run in parallel and share every cell: atomic
/// read-modify-writes throughout.
struct Shared;

impl Writer for Shared {
    #[inline]
    fn lower(cell: &AtomicMinU64, value: Dist) -> bool {
        cell.fetch_min(value)
    }

    #[inline]
    fn settle(bits: &AtomicBitSet, v: usize) -> bool {
        bits.set(v)
    }

    #[inline]
    fn refresh(cell: &AtomicMinU64, seen: Dist, fresh: Dist) {
        // A failed CAS means a concurrent visit lowered `mind` meanwhile;
        // the caller loops and recomputes either way.
        let _ = cell.compare_exchange(seen, fresh);
    }
}

/// Child visits run in turn, so the solve is its instance's only writer:
/// plain loads and stores.
struct Sole;

impl Writer for Sole {
    #[inline]
    fn lower(cell: &AtomicMinU64, value: Dist) -> bool {
        let lowered = value < cell.load();
        if lowered {
            cell.store(value);
        }
        lowered
    }

    #[inline]
    fn settle(bits: &AtomicBitSet, v: usize) -> bool {
        bits.set_unshared(v)
    }

    #[inline]
    fn refresh(cell: &AtomicMinU64, _seen: Dist, fresh: Dist) {
        cell.store(fresh);
    }
}

#[cfg(test)]
mod target_tests {
    use super::*;
    use crate::instance::ThorupInstance;
    use mmt_ch::{build_serial, ChMode};
    use mmt_graph::gen::shapes;

    #[test]
    fn targeted_query_is_exact_and_partial() {
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let inst = ThorupInstance::new(&ch);
        // Target inside the source triangle: the far triangle need not be
        // settled at all.
        let d = solver.solve_target(&inst, 0, 2);
        assert_eq!(d, 1);
        assert!(inst.is_settled(2));
        assert!(inst.settled_count() < 6, "early exit skipped work");
        // Far target: exact as well.
        inst.reset(&ch);
        assert_eq!(solver.solve_target(&inst, 0, 5), 10);
    }

    #[test]
    fn targeted_query_unreachable() {
        let el = mmt_graph::types::EdgeList::from_triples(3, [(0, 1, 2)]);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let inst = ThorupInstance::new(&ch);
        assert_eq!(solver.solve_target(&inst, 0, 2), INF);
    }

    #[test]
    fn target_equals_source() {
        let el = shapes::path(4, 3);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let inst = ThorupInstance::new(&ch);
        assert_eq!(solver.solve_target(&inst, 2, 2), 0);
    }
}

/// Configuration of a Thorup solve.
///
/// Construct with the chainable builder methods:
///
/// ```
/// use mmt_thorup::{ThorupConfig, ToVisitStrategy};
///
/// let cfg = ThorupConfig::new()
///     .with_strategy(ToVisitStrategy::AlwaysParallel)
///     .with_serial_visits(false);
/// assert!(!cfg.serial_visits());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ThorupConfig {
    /// How `toVisit` sets are gathered (Table 6's experiment).
    strategy: ToVisitStrategy,
    /// Run child visits within a bucket sequentially even when the gather
    /// found several (batches and service workers dedicate the pool to
    /// cross-query parallelism this way). Such a solve runs on one lane
    /// whatever the thread budget: it opens no parallel region, its
    /// parallel-tier gathers run inline, and it is its instance's only
    /// writer, so it skips the atomic read-modify-writes. Without it, a
    /// solve under a budget above one runs in one parallel region (see the
    /// [module docs](self)).
    serial_visits: bool,
}

impl ThorupConfig {
    /// The default configuration (selective-default gathers, parallel
    /// child visits in one region per solve).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fully serial configuration: serial gathers and serial child visits.
    pub fn serial() -> Self {
        Self::new()
            .with_strategy(ToVisitStrategy::Serial)
            .with_serial_visits(true)
    }

    /// Sets how `toVisit` sets are gathered.
    pub fn with_strategy(mut self, strategy: ToVisitStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets whether child visits within a bucket run sequentially (and
    /// so whether the solve writes its instance without atomic
    /// read-modify-writes).
    pub fn with_serial_visits(mut self, serial_visits: bool) -> Self {
        self.serial_visits = serial_visits;
        self
    }

    /// The configured gather strategy.
    pub fn strategy(&self) -> ToVisitStrategy {
        self.strategy
    }

    /// Whether child visits within a bucket run sequentially.
    pub fn serial_visits(&self) -> bool {
        self.serial_visits
    }
}

/// A Thorup SSSP solver bound to a graph and its Component Hierarchy.
///
/// The solver itself is immutable and shareable; all query state lives in a
/// [`ThorupInstance`].
#[derive(Debug, Clone, Copy)]
pub struct ThorupSolver<'a> {
    graph: &'a CsrGraph,
    ch: &'a ComponentHierarchy,
    config: ThorupConfig,
    counters: Option<&'a EventCounters>,
}

impl<'a> ThorupSolver<'a> {
    /// Creates a solver. `ch` must have been built for `graph`.
    ///
    /// # Panics
    ///
    /// Panics when the hierarchy's vertex count disagrees with the
    /// graph's. Use [`ThorupSolver::try_new`] to get a typed error
    /// instead.
    pub fn new(graph: &'a CsrGraph, ch: &'a ComponentHierarchy) -> Self {
        Self::try_new(graph, ch).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a solver, reporting a mismatched hierarchy as an error.
    pub fn try_new(graph: &'a CsrGraph, ch: &'a ComponentHierarchy) -> Result<Self, InputError> {
        if graph.n() != ch.n() {
            return Err(InputError::GraphMismatch {
                graph_n: graph.n(),
                ch_n: ch.n(),
            });
        }
        Ok(Self {
            graph,
            ch,
            config: ThorupConfig::default(),
            counters: None,
        })
    }

    /// Sets the configuration.
    pub fn with_config(mut self, config: ThorupConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches event counters (instrumented runs).
    pub fn with_counters(mut self, counters: &'a EventCounters) -> Self {
        self.counters = Some(counters);
        self
    }

    /// The hierarchy this solver walks.
    pub fn hierarchy(&self) -> &'a ComponentHierarchy {
        self.ch
    }

    /// Convenience: allocate an instance, solve, return distances.
    ///
    /// # Panics
    ///
    /// Panics when `source` is out of range; see
    /// [`ThorupSolver::try_solve`].
    pub fn solve(&self, source: VertexId) -> Vec<Dist> {
        let inst = ThorupInstance::new(self.ch);
        self.solve_into(&inst, source);
        inst.distances()
    }

    /// As [`ThorupSolver::solve`], reporting an out-of-range source as a
    /// typed error instead of panicking.
    pub fn try_solve(&self, source: VertexId) -> Result<Vec<Dist>, InputError> {
        self.check_source(source)?;
        Ok(self.solve(source))
    }

    /// Runs one query into a caller-owned (fresh or reset) instance.
    pub fn solve_into(&self, inst: &ThorupInstance, source: VertexId) {
        self.run(inst, source, None, None);
    }

    /// As [`ThorupSolver::solve_into`], but polls `cancel` at every
    /// bucket-expansion boundary and abandons the solve once it reads
    /// cancelled (explicit cancellation, expired deadline, or linked
    /// shutdown flag).
    ///
    /// Returns `true` when the solve ran to completion — the instance
    /// then holds exact distances. Returns `false` when interrupted; the
    /// instance is left partially solved and must be reset before reuse.
    pub fn solve_into_with_cancel(
        &self,
        inst: &ThorupInstance,
        source: VertexId,
        cancel: &CancelToken,
    ) -> bool {
        if cancel.is_cancelled() {
            return false;
        }
        self.run(inst, source, None, Some(cancel));
        !cancel.is_cancelled()
    }

    /// Point-to-point query: runs from `source` and stops as soon as
    /// `target` settles. Returns the exact distance `δ(source, target)`.
    ///
    /// Thorup's traversal settles vertices in nondecreasing bucket order,
    /// so stopping at the target skips the rest of the graph beyond the
    /// target's bucket — a real saving when the target is close. The
    /// instance is left partially solved: only `dist_of(target)` (and
    /// distances of already-settled vertices) are final.
    pub fn solve_target(&self, inst: &ThorupInstance, source: VertexId, target: VertexId) -> Dist {
        assert!((target as usize) < self.graph.n(), "target out of range");
        self.run(inst, source, Some(target), None);
        if inst.is_settled(target) {
            inst.dist_of(target)
        } else {
            INF
        }
    }

    /// As [`ThorupSolver::solve_target`], reporting out-of-range
    /// endpoints as typed errors instead of panicking.
    pub fn try_solve_target(
        &self,
        inst: &ThorupInstance,
        source: VertexId,
        target: VertexId,
    ) -> Result<Dist, InputError> {
        self.check_source(source)?;
        self.check_target(target)?;
        Ok(self.solve_target(inst, source, target))
    }

    /// As [`ThorupSolver::solve_target`], but cancellable (see
    /// [`ThorupSolver::solve_into_with_cancel`]).
    ///
    /// Returns `Some(distance)` when the query produced an exact answer
    /// (the target settled, or the traversal exhausted the component and
    /// proved the target unreachable) and `None` when interrupted first.
    pub fn solve_target_with_cancel(
        &self,
        inst: &ThorupInstance,
        source: VertexId,
        target: VertexId,
        cancel: &CancelToken,
    ) -> Option<Dist> {
        assert!((target as usize) < self.graph.n(), "target out of range");
        if cancel.is_cancelled() {
            return None;
        }
        self.run(inst, source, Some(target), Some(cancel));
        if inst.is_settled(target) {
            Some(inst.dist_of(target))
        } else if cancel.is_cancelled() {
            None
        } else {
            Some(INF)
        }
    }

    fn check_source(&self, source: VertexId) -> Result<(), InputError> {
        if (source as usize) < self.graph.n() {
            Ok(())
        } else {
            Err(InputError::SourceOutOfRange {
                source,
                n: self.graph.n(),
            })
        }
    }

    fn check_target(&self, target: VertexId) -> Result<(), InputError> {
        if (target as usize) < self.graph.n() {
            Ok(())
        } else {
            Err(InputError::TargetOutOfRange {
                target,
                n: self.graph.n(),
            })
        }
    }

    fn run(
        &self,
        inst: &ThorupInstance,
        source: VertexId,
        target: Option<VertexId>,
        cancel: Option<&CancelToken>,
    ) {
        assert!((source as usize) < self.graph.n(), "source out of range");
        debug_assert_eq!(inst.mind.len(), self.ch.num_nodes());
        let walk = Walk {
            solver: *self,
            inst,
            target,
            cancel,
        };
        // The solve holds its instance's lane scratch from start to end.
        let mut held = inst.lanes.lock();
        let lanes = if self.config.serial_visits() {
            1
        } else {
            thread_budget()
        };
        held.grow(lanes);
        if lanes == 1 {
            let buffers = &mut held.slots[0].get_mut().buffers;
            if self.config.serial_visits() {
                walk.solve(&mut Inline::<Sole>::new(buffers), source);
            } else {
                walk.solve(&mut Inline::<Shared>::new(buffers), source);
            }
            return;
        }
        let region = Region {
            walk,
            lanes: &held.slots[..lanes],
            posted: &held.posted,
            cursor: AtomicUsize::new(0),
        };
        let stats = team::run(
            lanes,
            |team| {
                let mut leader = Leader {
                    team,
                    region: &region,
                    stats: RegionStats {
                        regions: 1,
                        ..RegionStats::default()
                    },
                };
                walk.solve(&mut leader, source);
                leader.stats
            },
            |lane, job| region.work(lane, job),
        );
        if let Some(ev) = self.counters {
            for lane in &mut held.slots[1..lanes] {
                ev.absorb(&lane.get_mut().counters);
            }
        }
        let sum = &mut held.stats;
        sum.regions += stats.regions;
        sum.visit_phases += stats.visit_phases;
        sum.scan_phases += stats.scan_phases;
    }
}

/// A visit phase is posted only for a bucket with at least this many small
/// members; lane 0 visits a smaller set itself.
const PHASE_FLOOR: usize = 32;

/// A member whose subtree holds at most this many leaves is small, and a
/// visit phase shares it out whole. A larger member lane 0 visits itself,
/// after the phase, so that its own buckets can post phases: on the
/// paper's random graphs one child of the root holds 98% of the vertices,
/// and the lane that claimed it would run nearly the whole solve alone.
const LEAF_CUT: u32 = 512;

/// Members a lane claims at a time from a visit phase's list.
const CLAIM: usize = 8;

/// One solve's inputs, as every lane sees them.
#[derive(Clone, Copy)]
struct Walk<'a> {
    solver: ThorupSolver<'a>,
    inst: &'a ThorupInstance,
    target: Option<VertexId>,
    cancel: Option<&'a CancelToken>,
}

impl<'a> Walk<'a> {
    /// This walk with its events counted into `counters`, if it counts
    /// events at all.
    fn counting_into<'b>(self, counters: &'b EventCounters) -> Walk<'b>
    where
        'a: 'b,
    {
        Walk {
            solver: ThorupSolver {
                counters: self.solver.counters.map(|_| counters),
                ..self.solver
            },
            ..self
        }
    }

    /// Labels `source` with zero, pushes that up the hierarchy and visits
    /// the root in `frame`. The root is visited under a sentinel parent:
    /// shift 64 saturates every finite mind into "bucket 0", so the root
    /// only returns when its subtree is exhausted (all settled or the
    /// remainder unreachable).
    fn solve<F: Frame>(&self, frame: &mut F, source: VertexId) {
        let ch = self.solver.ch;
        F::W::lower(&self.inst.dist[source as usize], 0);
        self.propagate_mind::<F::W>(ch.leaf_of_vertex(source), 0);
        self.visit(frame, ch.root(), 64, 0);
    }

    /// Recursive component visit. Invariant on entry: the parent observed
    /// `mind(node) >> parent_alpha == bucket` (or the root's sentinel).
    /// Returns when the component is done or its `mind` leaves that
    /// bucket.
    fn visit<F: Frame>(&self, frame: &mut F, node: u32, parent_alpha: u8, bucket: u64) {
        if self.solver.ch.is_leaf(node) {
            self.settle_leaf::<F::W>(node);
            return;
        }
        // One scan buffer serves every phase of this visit frame, then
        // goes back for sibling/descendant frames and later queries.
        let mut tovisit = frame.acquire();
        self.visit_phases(frame, node, parent_alpha, bucket, &mut tovisit);
        frame.release(tovisit);
    }

    /// The phase loop of [`visit`](Self::visit), with the scan buffer
    /// lifted out so re-expansions reuse it instead of reallocating.
    fn visit_phases<F: Frame>(
        &self,
        frame: &mut F,
        node: u32,
        parent_alpha: u8,
        bucket: u64,
        tovisit: &mut Vec<u32>,
    ) {
        let (ch, inst) = (self.solver.ch, self.inst);
        let alpha = ch.alpha(node);
        loop {
            // The stop flag is raised by a settled target or an observed
            // cancellation; either way every visit unwinds from here.
            if inst.stop.load(Ordering::Acquire) {
                return;
            }
            // Bucket-expansion boundaries are the solver's cooperative
            // cancellation points: coarse enough to stay off the hot
            // relaxation path, frequent enough to stop a big solve in a
            // handful of expansions.
            if let Some(token) = self.cancel {
                if token.is_cancelled() {
                    inst.stop.store(true, Ordering::Release);
                    return;
                }
            }
            let m0 = inst.mind[node as usize].load();
            if m0 == INF {
                // Done: every vertex below is settled or unreachable.
                return;
            }
            if saturating_shr(m0, parent_alpha as u32) != bucket {
                // Moved past the parent's bucket: hand control back (the
                // parent re-buckets us by the current mind).
                return;
            }
            if let Some(ev) = self.solver.counters {
                ev.bucket_expansions.bump();
            }
            let own_bucket = saturating_shr(m0, alpha as u32);
            let scan = Scan {
                children: ch.children(node),
                mind: &inst.mind,
                alpha,
                bucket: own_bucket,
            };
            let min_mind = frame.gather(self, scan, node, tovisit);
            if min_mind != m0 {
                // Children moved under us (concurrent relaxations, or our
                // previous expansions emptied the bucket): publish the
                // fresh minimum and re-evaluate.
                F::W::refresh(&inst.mind[node as usize], m0, min_mind);
                continue;
            }
            debug_assert!(
                !tovisit.is_empty(),
                "a child holding the minimum must be in its own bucket"
            );
            // Thorup's arbitrary-order guarantee: the members of the
            // bucket may be visited in any order, or concurrently.
            frame.expand(self, tovisit, alpha, own_bucket);
        }
    }

    /// Settles the vertex of `leaf` and relaxes its edges. Idempotent: a
    /// stale `mind` may route a second visit here, which only re-clears it.
    fn settle_leaf<W: Writer>(&self, leaf: u32) {
        let (s, inst) = (&self.solver, self.inst);
        let v = s.ch.vertex_of_leaf(leaf);
        // Clear before relaxing so parents stop re-bucketing this leaf.
        inst.mind[leaf as usize].store(INF);
        if !W::settle(&inst.settled, v as usize) {
            return;
        }
        if self.target == Some(v) {
            inst.stop.store(true, Ordering::Release);
        }
        if let Some(ev) = s.counters {
            ev.settled.bump();
        }
        // Thorup's lemma guarantees d(v) = δ(v) here.
        let d = inst.dist[v as usize].load();
        debug_assert_ne!(d, INF, "settling an unreached vertex");
        // Relax v's edges.
        let (targets, weights) = s.graph.neighbors(v);
        if let Some(ev) = s.counters {
            ev.arcs_scanned.add(targets.len() as u64);
            ev.relaxations.add(targets.len() as u64);
        }
        for (&u, &w) in targets.iter().zip(weights) {
            let nd = d + w as Dist;
            if W::lower(&inst.dist[u as usize], nd) && !inst.settled.get(u as usize) {
                if let Some(ev) = s.counters {
                    ev.improvements.bump();
                }
                self.propagate_mind::<W>(s.ch.leaf_of_vertex(u), nd);
            }
        }
    }

    /// Pushes a lowered distance up the hierarchy: lower each ancestor,
    /// stopping at the first that already knows something at least as
    /// small. This early stop is the paper's contention argument.
    fn propagate_mind<W: Writer>(&self, leaf: u32, value: Dist) {
        let s = &self.solver;
        let mut x = leaf;
        loop {
            if !W::lower(&self.inst.mind[x as usize], value) {
                break;
            }
            if let Some(ev) = s.counters {
                ev.mind_propagation_hops.bump();
            }
            let p = s.ch.parent(x);
            if p == x {
                break;
            }
            x = p;
        }
    }

    /// Whether a visit phase shares `node` out whole.
    fn is_small(&self, node: u32) -> bool {
        self.solver.ch.leaves_below(node) <= LEAF_CUT
    }
}

/// Where a visit frame runs: how it takes a scan buffer, gathers a bucket
/// and visits the bucket's members.
trait Frame {
    /// How the frame writes the instance.
    type W: Writer;

    /// A scan buffer for a new frame.
    fn acquire(&mut self) -> Vec<u32>;

    /// Takes back a frame's scan buffer.
    fn release(&mut self, buf: Vec<u32>);

    /// Gathers `node`'s children in the bucket `scan` names into `out`;
    /// returns the minimum child `mind`.
    fn gather(&mut self, walk: &Walk<'_>, scan: Scan<'_>, node: u32, out: &mut Vec<u32>) -> Dist;

    /// Visits the gathered `members`, each in `bucket` under `alpha`.
    fn expand(&mut self, walk: &Walk<'_>, members: &mut Vec<u32>, alpha: u8, bucket: u64);
}

/// One lane walking a subtree alone: each scan runs inline and each member
/// is visited in turn, with the lane's own scan buffers. One-lane solves
/// and the claims of a visit phase run this way.
struct Inline<'l, W> {
    buffers: &'l mut ScanBuffers,
    writer: PhantomData<W>,
}

impl<'l, W> Inline<'l, W> {
    fn new(buffers: &'l mut ScanBuffers) -> Self {
        Self {
            buffers,
            writer: PhantomData,
        }
    }
}

impl<W: Writer> Frame for Inline<'_, W> {
    type W = W;

    fn acquire(&mut self) -> Vec<u32> {
        self.buffers.acquire()
    }

    fn release(&mut self, buf: Vec<u32>) {
        self.buffers.release(buf);
    }

    fn gather(&mut self, walk: &Walk<'_>, scan: Scan<'_>, _: u32, out: &mut Vec<u32>) -> Dist {
        scan.inline(walk.solver.config.strategy(), walk.solver.counters, out)
    }

    fn expand(&mut self, walk: &Walk<'_>, members: &mut Vec<u32>, alpha: u8, bucket: u64) {
        for &c in members.iter() {
            walk.visit(self, c, alpha, bucket);
        }
    }
}

/// A phase lane 0 posts to the region.
#[derive(Clone, Copy)]
enum Job {
    /// Visit the posted members, each in `bucket` under `alpha`; lanes
    /// claim them [`CLAIM`] at a time.
    Visit { alpha: u8, bucket: u64 },
    /// Scan `node`'s children in `bucket` under `alpha`: lane `p` scans
    /// share `p` of `cut`.
    Scan {
        node: u32,
        alpha: u8,
        bucket: u64,
        cut: Cut,
    },
}

/// What every lane of a multi-lane solve shares.
struct Region<'a> {
    walk: Walk<'a>,
    /// One scratch slot per lane.
    lanes: &'a [CachePadded<Mutex<LaneScratch>>],
    /// A visit phase's members.
    posted: &'a RwLock<Vec<u32>>,
    /// The next unclaimed index into `posted`.
    cursor: AtomicUsize,
}

impl Region<'_> {
    /// Runs `job` as lane `lane`.
    fn work(&self, lane: usize, job: Job) {
        let mut scratch = self.lanes[lane].lock();
        let LaneScratch {
            buffers,
            share,
            share_min,
            counters,
        } = &mut *scratch;
        match job {
            Job::Visit { alpha, bucket } => {
                // Lane 0 alone writes the solve's counters; the other
                // lanes count into their own.
                let walk = match lane {
                    0 => self.walk,
                    _ => self.walk.counting_into(counters),
                };
                let members = self.posted.read();
                let mut frame = Inline::<Shared>::new(buffers);
                loop {
                    let at = self.cursor.fetch_add(CLAIM, Ordering::Relaxed);
                    if at >= members.len() || walk.inst.stop.load(Ordering::Acquire) {
                        return;
                    }
                    for &c in &members[at..(at + CLAIM).min(members.len())] {
                        walk.visit(&mut frame, c, alpha, bucket);
                    }
                }
            }
            Job::Scan {
                node,
                alpha,
                bucket,
                cut,
            } if lane < cut.parts => {
                let scan = Scan {
                    children: self.walk.solver.ch.children(node),
                    mind: &self.walk.inst.mind,
                    alpha,
                    bucket,
                };
                share.clear();
                *share_min = scan.share(cut, lane, share);
            }
            Job::Scan { .. } => {}
        }
    }
}

/// Lane 0 of a multi-lane solve: it walks the hierarchy's large
/// components and posts every phase. A parallel-tier gather becomes a
/// scan phase; a bucket with enough small members becomes a visit phase,
/// after which lane 0 visits the large members itself.
struct Leader<'r, 'a> {
    team: &'r Team<'r, Job>,
    region: &'r Region<'a>,
    /// This solve's region and the phases it posted so far.
    stats: RegionStats,
}

impl Leader<'_, '_> {
    fn post(&mut self, job: Job) {
        match job {
            Job::Visit { .. } => self.stats.visit_phases += 1,
            Job::Scan { .. } => self.stats.scan_phases += 1,
        }
        self.team.phase(job);
    }
}

impl Frame for Leader<'_, '_> {
    type W = Shared;

    fn acquire(&mut self) -> Vec<u32> {
        self.region.lanes[0].lock().buffers.acquire()
    }

    fn release(&mut self, buf: Vec<u32>) {
        self.region.lanes[0].lock().buffers.release(buf);
    }

    fn gather(&mut self, walk: &Walk<'_>, scan: Scan<'_>, node: u32, out: &mut Vec<u32>) -> Dist {
        let s = &walk.solver;
        let lanes = self.region.lanes.len();
        scan.gather(s.config.strategy(), lanes, s.counters, out, |cut, out| {
            self.post(Job::Scan {
                node,
                alpha: scan.alpha,
                bucket: scan.bucket,
                cut,
            });
            let mut min_mind = INF;
            for lane in &self.region.lanes[..cut.parts] {
                let lane = lane.lock();
                min_mind = merge(out, min_mind, &lane.share, lane.share_min);
            }
            min_mind
        })
    }

    fn expand(&mut self, walk: &Walk<'_>, members: &mut Vec<u32>, alpha: u8, bucket: u64) {
        let small = members.iter().filter(|&&c| walk.is_small(c)).count();
        if small >= PHASE_FLOOR {
            {
                let mut posted = self.region.posted.write();
                posted.clear();
                posted.extend(members.iter().filter(|&&c| walk.is_small(c)));
            }
            // The barrier that opens the phase publishes the reset.
            self.region.cursor.store(0, Ordering::Relaxed);
            self.post(Job::Visit { alpha, bucket });
            members.retain(|&c| !walk.is_small(c));
        }
        for &c in members.iter() {
            if walk.is_small(c) {
                let buffers = &mut self.region.lanes[0].lock().buffers;
                walk.visit(&mut Inline::<Shared>::new(buffers), c, alpha, bucket);
            } else {
                walk.visit(self, c, alpha, bucket);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_ch::{build_serial, ChMode};
    use mmt_graph::gen::shapes;
    use mmt_graph::types::EdgeList;

    fn solve(el: &EdgeList, source: VertexId) -> Vec<Dist> {
        let g = CsrGraph::from_edge_list(el);
        let ch = build_serial(el, ChMode::Collapsed);
        ThorupSolver::new(&g, &ch).solve(source)
    }

    #[test]
    fn figure_one_distances() {
        let d = solve(&shapes::figure_one(), 0);
        assert_eq!(d, vec![0, 1, 1, 9, 10, 10]);
    }

    #[test]
    fn path_graph() {
        assert_eq!(solve(&shapes::path(5, 3), 0), vec![0, 3, 6, 9, 12]);
        assert_eq!(solve(&shapes::path(5, 3), 4), vec![12, 9, 6, 3, 0]);
    }

    #[test]
    fn single_vertex() {
        assert_eq!(solve(&EdgeList::new(1), 0), vec![0]);
    }

    #[test]
    fn disconnected_unreachable_inf() {
        let el = EdgeList::from_triples(4, [(0, 1, 2)]);
        assert_eq!(solve(&el, 0), vec![0, 2, INF, INF]);
        assert_eq!(solve(&el, 2), vec![INF, INF, 0, INF]);
    }

    #[test]
    fn self_loops_and_parallel_edges() {
        let el = EdgeList::from_triples(2, [(0, 0, 4), (0, 1, 9), (0, 1, 2)]);
        assert_eq!(solve(&el, 0), vec![0, 2]);
    }

    #[test]
    fn cheaper_detour_beats_direct_edge() {
        let el = EdgeList::from_triples(3, [(0, 1, 10), (0, 2, 1), (2, 1, 1)]);
        assert_eq!(solve(&el, 0), vec![0, 2, 1]);
    }

    #[test]
    fn try_new_rejects_mismatched_hierarchy() {
        use crate::error::InputError;
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let other = shapes::path(4, 1);
        let ch = build_serial(&other, ChMode::Collapsed);
        let err = ThorupSolver::try_new(&g, &ch).unwrap_err();
        assert_eq!(
            err,
            InputError::GraphMismatch {
                graph_n: 6,
                ch_n: 4
            }
        );
    }

    #[test]
    fn try_solve_rejects_out_of_range_source() {
        use crate::error::InputError;
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::try_new(&g, &ch).unwrap();
        assert_eq!(
            solver.try_solve(99).unwrap_err(),
            InputError::SourceOutOfRange { source: 99, n: 6 }
        );
        let inst = ThorupInstance::new(&ch);
        assert_eq!(
            solver.try_solve_target(&inst, 0, 99).unwrap_err(),
            InputError::TargetOutOfRange { target: 99, n: 6 }
        );
    }

    #[test]
    fn pre_cancelled_token_stops_before_settling() {
        use mmt_platform::CancelToken;
        let el = shapes::path(64, 1);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let inst = ThorupInstance::new(&ch);
        inst.reset(&ch);
        let token = CancelToken::new();
        token.cancel();
        assert!(!solver.solve_into_with_cancel(&inst, 0, &token));
        assert_eq!(inst.settled_count(), 0);
    }

    #[test]
    fn cancelled_instance_resolves_fully_after_reset() {
        use mmt_platform::CancelToken;
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let inst = ThorupInstance::new(&ch);
        inst.reset(&ch);
        let token = CancelToken::new();
        token.cancel();
        assert!(!solver.solve_into_with_cancel(&inst, 0, &token));
        // The instance is reusable: a reset clears the aborted state.
        inst.reset(&ch);
        assert!(solver.solve_into_with_cancel(&inst, 0, &CancelToken::new()));
        assert_eq!(inst.distances(), vec![0, 1, 1, 9, 10, 10]);
    }

    #[test]
    fn scan_buffers_stop_growing_after_warmup() {
        use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 7, 6);
        spec.seed = 7;
        let el = spec.generate();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        // Serial visits: one frame live at a time, so the pool must
        // converge and later queries must not allocate a single buffer.
        let solver = ThorupSolver::new(&g, &ch).with_config(ThorupConfig::serial());
        let inst = ThorupInstance::new(&ch);
        let want = {
            inst.reset(&ch);
            solver.solve_into(&inst, 0);
            inst.distances()
        };
        let warm = inst.scan_buffers_created();
        assert!(warm >= 1);
        for s in [1u32, 5, 9, 0] {
            inst.reset(&ch);
            solver.solve_into(&inst, s);
        }
        assert_eq!(
            inst.scan_buffers_created(),
            warm,
            "steady-state visits must reuse pooled scan buffers"
        );
        inst.reset(&ch);
        solver.solve_into(&inst, 0);
        assert_eq!(inst.distances(), want);
    }

    #[test]
    fn grid_traps_more_than_random() {
        // The paper's road-network "trapping behavior", quantified: a grid
        // pays more bucket expansions per settled vertex than a random
        // graph of equal size.
        use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
        use mmt_platform::EventCounters;
        let per_vertex = |class| {
            let el = WorkloadSpec::new(class, WeightDist::Uniform, 10, 8).generate();
            let g = CsrGraph::from_edge_list(&el);
            let ch = build_serial(&el, ChMode::Collapsed);
            let ev = EventCounters::new();
            ThorupSolver::new(&g, &ch)
                .with_config(ThorupConfig::serial())
                .with_counters(&ev)
                .solve(0);
            let c = ev.snapshot();
            c.bucket_expansions as f64 / c.settled as f64
        };
        assert!(per_vertex(GraphClass::Grid) > per_vertex(GraphClass::Random));
    }

    #[test]
    fn expired_deadline_token_interrupts_solve() {
        use mmt_platform::CancelToken;
        use std::time::Instant;
        // A deadline already in the past: the solver must notice at its
        // first expansion boundary and report an interrupted solve.
        let el = shapes::path(256, 1);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let inst = ThorupInstance::new(&ch);
        inst.reset(&ch);
        let token = CancelToken::with_deadline(Instant::now());
        assert!(!solver.solve_into_with_cancel(&inst, 0, &token));
        assert!(inst.settled_count() < 256);
    }
}
