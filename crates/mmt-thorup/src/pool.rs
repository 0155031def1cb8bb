//! Reusable instance pool for high-throughput query serving.
//!
//! A [`ThorupInstance`] is cheap next to the graph
//! but still `O(n)`; a service answering a stream of queries should not
//! allocate one per request. The pool hands out reset instances and
//! reclaims them on drop, capping live memory at the concurrency level —
//! which is exactly the "k instances for k simultaneous queries" memory
//! model of the paper's Section 5.2.

use crate::instance::ThorupInstance;
use mmt_ch::ComponentHierarchy;
use parking_lot::Mutex;
use std::ops::Deref;

/// A pool of reusable per-query instances over one shared hierarchy.
#[derive(Debug)]
pub struct InstancePool<'ch> {
    ch: &'ch ComponentHierarchy,
    free: Mutex<Vec<ThorupInstance>>,
    created: std::sync::atomic::AtomicUsize,
}

impl<'ch> InstancePool<'ch> {
    /// An empty pool over `ch`.
    pub fn new(ch: &'ch ComponentHierarchy) -> Self {
        Self {
            ch,
            free: Mutex::new(Vec::new()),
            created: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Takes a reset instance (allocating only when the pool is dry).
    pub fn acquire(&self) -> PooledInstance<'_, 'ch> {
        let inst = {
            let mut free = self.free.lock();
            free.pop()
        };
        let inst = match inst {
            Some(existing) => {
                existing.reset(self.ch);
                existing
            }
            None => {
                self.created
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                ThorupInstance::new(self.ch)
            }
        };
        PooledInstance {
            pool: self,
            inst: Some(inst),
        }
    }

    /// Total instances ever allocated — with reuse this tracks the peak
    /// concurrency, not the query count.
    pub fn allocated(&self) -> usize {
        self.created.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Instances currently sitting idle in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().len()
    }
}

/// A pooled instance; returns to the pool when dropped.
#[derive(Debug)]
pub struct PooledInstance<'p, 'ch> {
    pool: &'p InstancePool<'ch>,
    inst: Option<ThorupInstance>,
}

impl Deref for PooledInstance<'_, '_> {
    type Target = ThorupInstance;

    fn deref(&self) -> &ThorupInstance {
        self.inst.as_ref().expect("instance present until drop")
    }
}

impl Drop for PooledInstance<'_, '_> {
    fn drop(&mut self) {
        if let Some(inst) = self.inst.take() {
            self.pool.free.lock().push(inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::ThorupSolver;
    use mmt_ch::{build_serial, ChMode};
    use mmt_graph::gen::shapes;
    use mmt_graph::CsrGraph;
    use rayon::prelude::*;

    #[test]
    fn reuse_keeps_allocation_at_one_when_serial() {
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let pool = InstancePool::new(&ch);
        for s in 0..6u32 {
            let inst = pool.acquire();
            solver.solve_into(&inst, s);
            assert_eq!(inst.dist_of(s), 0);
        }
        assert_eq!(pool.allocated(), 1, "serial queries reuse one instance");
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn pooled_queries_are_correct_after_reuse() {
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let pool = InstancePool::new(&ch);
        let first = {
            let inst = pool.acquire();
            solver.solve_into(&inst, 0);
            inst.distances()
        };
        let second = {
            let inst = pool.acquire();
            solver.solve_into(&inst, 0);
            inst.distances()
        };
        assert_eq!(first, second);
        assert_eq!(first, vec![0, 1, 1, 9, 10, 10]);
    }

    #[test]
    fn concurrent_acquire_bounded_by_parallelism() {
        let el = shapes::complete(40, 3);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let pool = InstancePool::new(&ch);
        let sources: Vec<u32> = (0..40).cycle().take(200).collect();
        mmt_platform::with_pool(4, || {
            sources.par_iter().for_each(|&s| {
                let inst = pool.acquire();
                solver.solve_into(&inst, s);
                assert_eq!(inst.dist_of((s + 1) % 40), 3);
            });
        });
        assert!(
            pool.allocated() <= 8,
            "200 queries allocated {} instances",
            pool.allocated()
        );
        assert_eq!(pool.idle(), pool.allocated());
    }
}
