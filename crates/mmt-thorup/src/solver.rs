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
//! The atomics are only needed while sibling visits run concurrently. A
//! solve configured with [`ThorupConfig::serial_visits`] visits a bucket's
//! children in turn and is then the only writer of its instance, so it
//! makes the same three updates with a plain load, compare and store (the
//! one-lane path every service worker runs). Both paths take identical
//! decisions, so their work counters agree exactly.

use crate::error::InputError;
use crate::instance::ThorupInstance;
use crate::tovisit::{scan_children_into, ToVisitStrategy};
use mmt_ch::ComponentHierarchy;
use mmt_graph::types::{Dist, VertexId, INF};
use mmt_graph::CsrGraph;
use mmt_platform::atomic::saturating_shr;
use mmt_platform::{AtomicBitSet, AtomicMinU64, CancelToken, EventCounters};
use rayon::prelude::*;
use std::sync::atomic::Ordering;

/// How a solve writes its instance: the three updates whose atomicity only
/// matters when sibling visits run concurrently.
trait Writer {
    /// Whether a bucket's child visits may run concurrently.
    const CONCURRENT: bool;
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
    const CONCURRENT: bool = true;

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
    const CONCURRENT: bool = false;

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
    /// cross-query parallelism this way). Such a solve is its instance's
    /// only writer and skips the atomic read-modify-writes.
    serial_visits: bool,
}

impl ThorupConfig {
    /// The default configuration (selective-default gathers, parallel
    /// child visits).
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
        if self.config.serial_visits() {
            self.run_as::<Sole>(inst, source, target, cancel);
        } else {
            self.run_as::<Shared>(inst, source, target, cancel);
        }
    }

    fn run_as<W: Writer>(
        &self,
        inst: &ThorupInstance,
        source: VertexId,
        target: Option<VertexId>,
        cancel: Option<&CancelToken>,
    ) {
        W::lower(&inst.dist[source as usize], 0);
        self.propagate_mind::<W>(inst, self.ch.leaf_of_vertex(source), 0);
        // The root is visited under a sentinel parent: shift 64 saturates
        // every finite mind into "bucket 0", so the root only returns when
        // its subtree is exhausted (all settled or remainder unreachable).
        self.visit::<W>(inst, self.ch.root(), 64, 0, target, cancel);
    }

    /// Recursive component visit. Invariant on entry: the parent observed
    /// `mind(node) >> parent_alpha == bucket` (or the sentinel for the
    /// root). Returns when the component is done or its `mind` leaves that
    /// bucket.
    fn visit<W: Writer>(
        &self,
        inst: &ThorupInstance,
        node: u32,
        parent_alpha: u8,
        bucket: u64,
        target: Option<VertexId>,
        cancel: Option<&CancelToken>,
    ) {
        if self.ch.is_leaf(node) {
            self.settle_leaf::<W>(inst, node, target);
            return;
        }
        // One pooled scan buffer serves every phase of this visit frame,
        // then goes back for sibling/descendant frames and later queries.
        let mut tovisit = inst.scan_pool.acquire();
        self.visit_phases::<W>(
            inst,
            node,
            parent_alpha,
            bucket,
            target,
            cancel,
            &mut tovisit,
        );
        inst.scan_pool.release(tovisit);
    }

    /// The phase loop of [`visit`](Self::visit), with the scan buffer
    /// lifted out so re-expansions reuse it instead of reallocating.
    #[allow(clippy::too_many_arguments)]
    fn visit_phases<W: Writer>(
        &self,
        inst: &ThorupInstance,
        node: u32,
        parent_alpha: u8,
        bucket: u64,
        target: Option<VertexId>,
        cancel: Option<&CancelToken>,
        tovisit: &mut Vec<u32>,
    ) {
        let alpha = self.ch.alpha(node);
        let children = self.ch.children(node);
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
            if let Some(token) = cancel {
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
            if let Some(ev) = self.counters {
                ev.bucket_expansions.bump();
            }
            let own_bucket = saturating_shr(m0, alpha as u32);
            let min_mind = scan_children_into(
                self.config.strategy(),
                children,
                &inst.mind,
                alpha,
                own_bucket,
                self.counters,
                tovisit,
            );
            if min_mind != m0 {
                // Children moved under us (concurrent relaxations, or our
                // previous expansions emptied the bucket): publish the
                // fresh minimum and re-evaluate.
                W::refresh(&inst.mind[node as usize], m0, min_mind);
                continue;
            }
            debug_assert!(
                !tovisit.is_empty(),
                "a child holding the minimum must be in its own bucket"
            );
            if W::CONCURRENT && tovisit.len() > 1 {
                // Thorup's arbitrary-order guarantee: the whole bucket is
                // expanded concurrently.
                tovisit
                    .par_iter()
                    .for_each(|&c| self.visit::<W>(inst, c, alpha, own_bucket, target, cancel));
            } else {
                for &c in tovisit.iter() {
                    self.visit::<W>(inst, c, alpha, own_bucket, target, cancel);
                }
            }
        }
    }

    /// Settles the vertex of `leaf` and relaxes its edges. Idempotent: a
    /// stale `mind` may route a second visit here, which only re-clears it.
    fn settle_leaf<W: Writer>(&self, inst: &ThorupInstance, leaf: u32, target: Option<VertexId>) {
        let v = self.ch.vertex_of_leaf(leaf);
        // Clear before relaxing so parents stop re-bucketing this leaf.
        inst.mind[leaf as usize].store(INF);
        if !W::settle(&inst.settled, v as usize) {
            return;
        }
        if target == Some(v) {
            inst.stop.store(true, Ordering::Release);
        }
        if let Some(ev) = self.counters {
            ev.settled.bump();
        }
        // Thorup's lemma guarantees d(v) = δ(v) here.
        let d = inst.dist[v as usize].load();
        debug_assert_ne!(d, INF, "settling an unreached vertex");
        // Relax v's edges.
        let (targets, weights) = self.graph.neighbors(v);
        if let Some(ev) = self.counters {
            ev.arcs_scanned.add(targets.len() as u64);
            ev.relaxations.add(targets.len() as u64);
        }
        for (&u, &w) in targets.iter().zip(weights) {
            let nd = d + w as Dist;
            if W::lower(&inst.dist[u as usize], nd) && !inst.settled.get(u as usize) {
                if let Some(ev) = self.counters {
                    ev.improvements.bump();
                }
                self.propagate_mind::<W>(inst, self.ch.leaf_of_vertex(u), nd);
            }
        }
    }

    /// Pushes a lowered distance up the hierarchy: lower each ancestor,
    /// stopping at the first that already knows something at least as
    /// small. This early stop is the paper's contention argument.
    fn propagate_mind<W: Writer>(&self, inst: &ThorupInstance, leaf: u32, value: Dist) {
        let mut x = leaf;
        loop {
            if !W::lower(&inst.mind[x as usize], value) {
                break;
            }
            if let Some(ev) = self.counters {
                ev.mind_propagation_hops.bump();
            }
            let p = self.ch.parent(x);
            if p == x {
                break;
            }
            x = p;
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
