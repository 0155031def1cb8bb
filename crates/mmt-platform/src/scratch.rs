//! Reusable scratch memory for the SSSP hot paths.
//!
//! The MTA-2 paper's kernels touch every edge of the current bucket per
//! phase; on commodity hardware the dominant *avoidable* cost of a naive
//! translation is the per-phase `Vec` churn around those touches —
//! `collect()`ing relaxation requests, reallocating bucket vectors, and
//! sort+dedup passes over them. This module centralises the two reusable
//! structures that remove that churn:
//!
//! * [`ShardBuffers`] — per-worker append-only lane buffers. A parallel
//!   phase scatters into lane-local vectors (one uncontended lock per lane
//!   per phase).
//! * [`BufferPool`] — a recycling pool of plain `Vec<T>` scratch vectors
//!   (per-query distance copies). `acquire` reuses a warm
//!   buffer when one is idle; the `created` counter makes "zero steady-state
//!   allocations" testable.
//!
//! [`ShardBuffers::scatter`] goes through the vendored rayon shim, which
//! spawns scoped threads per parallel call: there is no persistent worker
//! pool, so `thread_local!` storage would never be reused. Lane-indexed
//! shared buffers sidestep that: lanes live in the caller's scratch state
//! and contiguous chunks of the work list map onto them deterministically.
//! A one-lane buffer never enters the shim. The stepping kernels do not
//! scatter at all: they run every phase of a solve in one
//! [`team`](crate::team) region, whose lanes fill and drain the frontier
//! bins.

use parking_lot::Mutex;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::mem::MemFootprint;

/// Per-worker append-only buffers for parallel scatter phases.
///
/// A phase calls [`scatter`](Self::scatter) to run a closure over a work
/// list in parallel; each worker appends into its own lane. Lane vectors
/// keep their capacity, so after warm-up a phase performs no heap
/// allocation beyond what the closure itself does.
#[derive(Debug)]
pub struct ShardBuffers<T: Send> {
    lanes: Vec<Mutex<Vec<T>>>,
}

impl<T: Send> ShardBuffers<T> {
    /// Creates `lanes` empty buffers. At least one lane is always created.
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        Self {
            lanes: (0..lanes).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Number of lanes.
    #[inline]
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Runs `f(item, lane)` over `items` in parallel, one contiguous chunk
    /// per lane and worker, so each lane's mutex is taken once and
    /// uncontended. With one lane the whole list runs inline on the
    /// calling thread: no work list, no parallel dispatch, no budget read.
    pub fn scatter<I, F>(&self, items: &[I], f: F)
    where
        I: Sync,
        F: Fn(&I, &mut Vec<T>) + Sync,
    {
        let run = |lane: &Mutex<Vec<T>>, part: &[I]| {
            let mut lane = lane.lock();
            for item in part {
                f(item, &mut lane);
            }
        };
        if let [lane] = &self.lanes[..] {
            return run(lane, items);
        }
        let chunk = items.len().div_ceil(self.lanes.len()).max(1);
        let work: Vec<(usize, &[I])> = items.chunks(chunk).enumerate().collect();
        work.par_iter()
            .for_each(|&(lane, part)| run(&self.lanes[lane], part));
    }
}

impl<T: Copy + Send> MemFootprint for ShardBuffers<T> {
    fn heap_bytes(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.lock().capacity() * std::mem::size_of::<T>())
            .sum()
    }
}

/// A recycling pool of scratch vectors.
///
/// [`acquire`](Self::acquire) hands out a cleared buffer, reusing an idle
/// one when available; [`release`](Self::release) returns it. The
/// [`created`](Self::created) counter only moves when the pool has to
/// allocate a fresh vector, which is what the steady-state-allocation tests
/// assert on: after warm-up, `created()` must stop growing.
#[derive(Debug, Default)]
pub struct BufferPool<T: Send> {
    idle: Mutex<Vec<Vec<T>>>,
    created: AtomicUsize,
}

impl<T: Send> BufferPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self {
            idle: Mutex::new(Vec::new()),
            created: AtomicUsize::new(0),
        }
    }

    /// Hands out an empty buffer, reusing a warm one when available.
    pub fn acquire(&self) -> Vec<T> {
        if let Some(buf) = self.idle.lock().pop() {
            return buf;
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        Vec::new()
    }

    /// Returns `buf` to the pool. Contents are cleared; capacity is kept.
    pub fn release(&self, mut buf: Vec<T>) {
        buf.clear();
        self.idle.lock().push(buf);
    }

    /// Number of buffers the pool has ever allocated (not handed out —
    /// allocated). Flat across a window ⇒ that window ran allocation-free.
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Number of buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.idle.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Every buffered item in lane order, leaving the lanes empty.
    fn drain<T: Send>(bufs: &mut ShardBuffers<T>) -> Vec<T> {
        bufs.lanes
            .iter_mut()
            .flat_map(|l| std::mem::take(l.get_mut()))
            .collect()
    }

    #[test]
    fn scatter_reaches_every_item_and_drain_empties() {
        let mut bufs: ShardBuffers<u64> = ShardBuffers::new(4);
        let items: Vec<u64> = (0..1000).collect();
        bufs.scatter(&items, |&x, lane| lane.push(x * 2));
        let drained = drain(&mut bufs);
        assert_eq!(drained.len(), 1000);
        assert_eq!(drained.iter().sum::<u64>(), 2 * (0..1000u64).sum::<u64>());
        assert!(drain(&mut bufs).is_empty());
    }

    #[test]
    fn scatter_retains_capacity_across_rounds() {
        let mut bufs: ShardBuffers<u32> = ShardBuffers::new(2);
        let items: Vec<u32> = (0..512).collect();
        bufs.scatter(&items, |&x, lane| lane.push(x));
        for lane in &mut bufs.lanes {
            lane.get_mut().clear();
        }
        let warm = bufs.heap_bytes();
        assert!(warm > 0);
        // Same-size round: no lane may grow.
        bufs.scatter(&items, |&x, lane| lane.push(x));
        assert_eq!(bufs.heap_bytes(), warm);
    }

    #[test]
    fn scatter_on_empty_input_is_a_noop() {
        let mut bufs: ShardBuffers<u8> = ShardBuffers::new(3);
        bufs.scatter(&[] as &[u8], |&x, lane| lane.push(x));
        assert!(drain(&mut bufs).is_empty());
    }

    #[test]
    fn single_lane_degenerates_to_serial() {
        let mut bufs: ShardBuffers<usize> = ShardBuffers::new(0);
        assert_eq!(bufs.lane_count(), 1);
        let items: Vec<usize> = (0..10).collect();
        bufs.scatter(&items, |&x, lane| lane.push(x));
        // One lane ⇒ order preserved exactly.
        assert_eq!(drain(&mut bufs), items);
    }

    #[test]
    fn buffer_pool_reuses_and_counts() {
        let pool: BufferPool<u64> = BufferPool::new();
        assert_eq!(pool.created(), 0);
        let mut a = pool.acquire();
        assert_eq!(pool.created(), 1);
        a.extend(0..100);
        let cap = a.capacity();
        pool.release(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.acquire();
        assert_eq!(pool.created(), 1, "warm buffer reused, none created");
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        pool.release(b);
    }

    #[test]
    fn buffer_pool_counts_each_cold_acquire() {
        let pool: BufferPool<u8> = BufferPool::new();
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(pool.created(), 2);
        pool.release(a);
        pool.release(b);
        let _c = pool.acquire();
        let _d = pool.acquire();
        assert_eq!(pool.created(), 2, "steady state allocates nothing");
    }

    #[test]
    fn buffer_pool_is_shareable_across_threads() {
        let pool: BufferPool<usize> = BufferPool::new();
        let handed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let mut b = pool.acquire();
                        b.push(1);
                        handed.fetch_add(1, Ordering::Relaxed);
                        pool.release(b);
                    }
                });
            }
        });
        assert_eq!(handed.load(Ordering::Relaxed), 200);
        // Far fewer creations than acquisitions.
        assert!(pool.created() <= 4);
    }
}
