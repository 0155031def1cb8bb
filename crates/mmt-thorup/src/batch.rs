//! Simultaneous SSSP queries over one shared Component Hierarchy, with
//! pooled per-query memory — the paper's Section 5.5 / Figure 5
//! experiment, and the reason Thorup's algorithm wins at batch workloads
//! even though Δ-stepping wins single queries.
//!
//! A Δ-stepping batch must run its (internally parallel) queries one after
//! another; the CH lets `k` Thorup queries run *concurrently in one
//! process*, each carrying only a lightweight [`ThorupInstance`] (Table
//! 2's "Instance" column) instead of a full copy of the graph. Allocating a fresh instance and
//! result vector per query would dominate small batches and churn the
//! allocator on large ones, so both are pooled:
//!
//! * [`BatchSolver`] — a reusable batch engine whose per-query instances
//!   come from an [`InstancePool`](crate::InstancePool) (peak-concurrency
//!   many, not batch-size many) and whose result vectors come from a
//!   [`DistancePool`];
//! * [`DistancePool`] / [`PooledDistances`] — result buffers that return
//!   to the pool when the caller drops them, so a steady stream of batches
//!   reaches a fixed point where no query allocates at all. The pool's
//!   `created` counter makes that a testable property rather than a hope.

use crate::instance::ThorupInstance;
use crate::pool::InstancePool;
use crate::solver::{ThorupConfig, ThorupSolver};
use mmt_graph::types::{Dist, VertexId};
use mmt_platform::scratch::BufferPool;
use mmt_platform::CancelToken;
use rayon::prelude::*;
use std::ops::Deref;
use std::sync::Arc;

/// A shareable pool of result-distance vectors.
///
/// Cloning is cheap (the clones share one pool). Buffers handed out as
/// [`PooledDistances`] come back automatically on drop.
#[derive(Debug, Clone, Default)]
pub struct DistancePool {
    inner: Arc<BufferPool<Dist>>,
}

impl DistancePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared buffer (allocating only when the pool is dry).
    pub fn acquire(&self) -> Vec<Dist> {
        self.inner.acquire()
    }

    /// Wraps a filled buffer so it returns here when dropped.
    pub fn wrap(&self, buf: Vec<Dist>) -> PooledDistances {
        PooledDistances {
            pool: Arc::clone(&self.inner),
            buf: Some(buf),
        }
    }

    /// Buffers ever allocated. Flat across a window of batches ⇒ the
    /// window ran without a single result-vector allocation.
    pub fn created(&self) -> usize {
        self.inner.created()
    }

    /// Buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.inner.idle()
    }
}

/// A query's distance vector, on loan from a [`DistancePool`].
///
/// Dereferences to `[Dist]`; dropping it returns the buffer to the pool
/// for the next query. Use [`detach`](Self::detach) to keep the vector
/// permanently (long-lived tables).
#[derive(Debug)]
pub struct PooledDistances {
    pool: Arc<BufferPool<Dist>>,
    buf: Option<Vec<Dist>>,
}

impl PooledDistances {
    /// Takes the vector out of pool circulation (for results that outlive
    /// the batch, e.g. a precomputed hub table).
    pub fn detach(mut self) -> Vec<Dist> {
        self.buf.take().expect("buffer present until drop")
    }
}

impl Deref for PooledDistances {
    type Target = [Dist];

    fn deref(&self) -> &[Dist] {
        self.buf.as_deref().expect("buffer present until drop")
    }
}

impl PartialEq for PooledDistances {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for PooledDistances {}

impl Drop for PooledDistances {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.release(buf);
        }
    }
}

/// A reusable engine for simultaneous batches over one shared hierarchy.
///
/// Queries run concurrently, each internally serial (the batch's
/// parallelism is across queries, so each solve is its instance's only
/// writer); per-query instances and result vectors are pooled, so repeated
/// batches settle into a zero per-query-allocation steady state.
///
/// ```
/// use mmt_ch::build_parallel;
/// use mmt_graph::{gen::shapes, CsrGraph};
/// use mmt_thorup::{BatchSolver, ThorupSolver};
///
/// let el = shapes::figure_one();
/// let g = CsrGraph::from_edge_list(&el);
/// let ch = build_parallel(&el);
/// let solver = ThorupSolver::new(&g, &ch);
/// let batch = BatchSolver::new(&solver);
/// let rows = batch.solve_batch(&[0, 3]);
/// assert_eq!(&rows[0][..], &[0, 1, 1, 9, 10, 10]);
/// ```
#[derive(Debug)]
pub struct BatchSolver<'a> {
    serial: ThorupSolver<'a>,
    instances: InstancePool<'a>,
    distances: DistancePool,
}

impl<'a> BatchSolver<'a> {
    /// Wraps a solver for pooled batch execution. Each query runs under
    /// [`ThorupConfig::serial()`], whatever the solver's own configuration:
    /// serial gathers and child visits in turn, so it writes its instance
    /// without atomic read-modify-writes.
    pub fn new(solver: &ThorupSolver<'a>) -> Self {
        let serial = solver.with_config(ThorupConfig::serial());
        Self {
            serial,
            instances: InstancePool::new(serial.hierarchy()),
            distances: DistancePool::new(),
        }
    }

    /// Runs one SSSP per source simultaneously, returning pooled distance
    /// vectors in input order. Dropping a result recycles its buffer for
    /// the next batch.
    pub fn solve_batch(&self, sources: &[VertexId]) -> Vec<PooledDistances> {
        sources.par_iter().map(|&s| self.solve_one(s)).collect()
    }

    /// The cancellable form of [`solve_batch`](Self::solve_batch), for
    /// serving-layer coalescing where each member carries its own
    /// deadline/cancellation token. `tokens` pairs with `sources` by
    /// index; a member whose token fires mid-solve yields `None` while its
    /// batch-mates complete normally.
    ///
    /// # Panics
    ///
    /// Panics when `sources` and `tokens` disagree in length.
    pub fn solve_batch_with_cancel(
        &self,
        sources: &[VertexId],
        tokens: &[CancelToken],
    ) -> Vec<Option<PooledDistances>> {
        assert_eq!(
            sources.len(),
            tokens.len(),
            "one cancellation token per source"
        );
        (0..sources.len())
            .into_par_iter()
            .map(|i| {
                let inst = self.instances.acquire();
                self.serial
                    .solve_into_with_cancel(&inst, sources[i], &tokens[i])
                    .then(|| self.copy_out(&inst))
            })
            .collect()
    }

    /// One pooled query (convenience for interleaving single sources with
    /// batches on the same warm pools).
    pub fn solve_one(&self, source: VertexId) -> PooledDistances {
        let inst = self.instances.acquire();
        self.serial.solve_into(&inst, source);
        self.copy_out(&inst)
    }

    /// `inst`'s distances in a buffer from the result pool.
    fn copy_out(&self, inst: &ThorupInstance) -> PooledDistances {
        let mut buf = self.distances.acquire();
        inst.copy_distances_into(&mut buf);
        self.distances.wrap(buf)
    }

    /// Instances ever allocated — tracks peak concurrency, not query count.
    pub fn instances_created(&self) -> usize {
        self.instances.allocated()
    }

    /// Result vectors ever allocated — tracks peak in-flight results, not
    /// query count.
    pub fn distance_buffers_created(&self) -> usize {
        self.distances.created()
    }

    /// The shared result-buffer pool (shareable with other consumers).
    pub fn distance_pool(&self) -> &DistancePool {
        &self.distances
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_baselines::dijkstra;
    use mmt_ch::{build_serial, ChMode};
    use mmt_graph::gen::shapes;
    use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
    use mmt_graph::CsrGraph;

    #[test]
    fn batch_matches_dijkstra() {
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::PolyLog, 7, 6);
        spec.seed = 21;
        let el = spec.generate();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let batch = BatchSolver::new(&solver);
        let sources = vec![0u32, 9, 55, 100];
        let rows = batch.solve_batch(&sources);
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(&rows[i][..], &dijkstra(&g, s)[..], "source {s}");
        }
    }

    #[test]
    fn steady_state_batches_allocate_nothing() {
        let el = shapes::complete(24, 3);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let sources: Vec<u32> = (0..12).collect();
        let want: Vec<Vec<u64>> = sources.iter().map(|&s| dijkstra(&g, s)).collect();
        let run_batches = |batch: &BatchSolver, count: usize| {
            for _ in 0..count {
                let rows = batch.solve_batch(&sources);
                for (i, row) in rows.iter().enumerate() {
                    assert_eq!(&row[..], &want[i][..]);
                }
            } // rows drop here: buffers return to the pools
        };
        // One lane: the warm-up batch reaches peak concurrency by
        // construction, so later batches must reuse exactly what it made.
        mmt_platform::with_pool(1, || {
            let batch = BatchSolver::new(&solver);
            run_batches(&batch, 1);
            assert_eq!(batch.instances_created(), 1);
            assert_eq!(batch.distance_buffers_created(), sources.len());
            run_batches(&batch, 4);
            assert_eq!(
                batch.instances_created(),
                1,
                "steady-state batches must reuse instances"
            );
            assert_eq!(
                batch.distance_buffers_created(),
                sources.len(),
                "steady-state batches must reuse result buffers"
            );
        });
        // More lanes: whether one batch's shards overlap depends on the
        // scheduler, so only the documented bound holds for instances.
        for threads in [2, 4] {
            mmt_platform::with_pool(threads, || {
                let batch = BatchSolver::new(&solver);
                run_batches(&batch, 5);
                assert!(batch.instances_created() <= threads);
                assert_eq!(batch.distance_buffers_created(), sources.len());
            });
        }
    }

    #[test]
    fn cancelled_members_yield_none_while_batchmates_complete() {
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 7, 6);
        spec.seed = 22;
        let el = spec.generate();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let batch = BatchSolver::new(&solver);
        let sources = vec![0u32, 17, 40, 99];
        let tokens: Vec<CancelToken> = (0..4).map(|_| CancelToken::new()).collect();
        tokens[1].cancel();
        tokens[3].cancel();
        let rows = batch.solve_batch_with_cancel(&sources, &tokens);
        for (i, &s) in sources.iter().enumerate() {
            match &rows[i] {
                Some(row) => {
                    assert!(i == 0 || i == 2, "source {s} was cancelled");
                    assert_eq!(&row[..], &dijkstra(&g, s)[..], "source {s}");
                }
                None => assert!(i == 1 || i == 3, "source {s} was live"),
            }
        }
    }

    #[test]
    fn detach_keeps_the_vector_out_of_the_pool() {
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let batch = BatchSolver::new(&solver);
        let kept = batch.solve_one(0).detach();
        assert_eq!(kept, vec![0, 1, 1, 9, 10, 10]);
        assert_eq!(batch.distance_pool().idle(), 0, "detached buffer stays out");
        // The next query allocates a second buffer; dropping it returns it.
        drop(batch.solve_one(1));
        assert_eq!(batch.distance_buffers_created(), 2);
        assert_eq!(batch.distance_pool().idle(), 1);
    }

    #[test]
    fn empty_batch_is_empty() {
        let el = shapes::path(3, 1);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let batch = BatchSolver::new(&solver);
        assert!(batch.solve_batch(&[]).is_empty());
        assert_eq!(batch.distance_buffers_created(), 0);
    }

    #[test]
    fn pooled_distances_compare_by_contents() {
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let batch = BatchSolver::new(&solver);
        let a = batch.solve_one(0);
        let b = batch.solve_one(0);
        let c = batch.solve_one(4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
