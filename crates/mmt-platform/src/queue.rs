//! A bounded MPMC work queue with typed admission control and load
//! shedding — the serving layer's replacement for a raw channel.
//!
//! A channel can only say "full"; an overloaded service needs more
//! vocabulary. [`ShedQueue`] keeps the bounded-FIFO semantics workers
//! rely on and adds:
//!
//! * **typed rejection** — a non-blocking push on a full queue hands the
//!   item back ([`PushRejected::Full`]) instead of silently dropping it;
//! * **shedding** — a push may carry an *evictable* predicate; when the
//!   queue is full, queued items matching it (oldest first) are removed
//!   and returned to the caller, who resolves them with a typed error.
//!   Queue depth therefore never exceeds capacity, and shed requests
//!   fail loudly rather than timing out in silence;
//! * **close-then-drain** — [`close`](ShedQueue::close) stops admission
//!   immediately while [`pop`](ShedQueue::pop) keeps returning the items
//!   already admitted, which is exactly drain-mode shutdown;
//! * **a depth gauge** — every push, pop, shed and drain moves a
//!   [`Counter`] by the change in queued items *inside* the queue's lock,
//!   so a reader never sees more than was queued at some instant (several
//!   queues may report into one gauge).
//!
//! Built on `std::sync::{Mutex, Condvar}` only; a panicking holder never
//! poisons the queue for its peers (poison is recovered into the inner
//! value, matching the workspace's parking_lot semantics).

use crate::counters::Counter;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Why a push did not enqueue; the item is handed back in both cases.
#[derive(Debug)]
pub enum PushRejected<T> {
    /// The queue is at capacity and nothing was evictable.
    Full(T),
    /// The queue was closed.
    Closed(T),
}

/// Outcome of [`ShedQueue::pop_match_until`], the coalescing dequeue.
#[derive(Debug, PartialEq, Eq)]
pub enum CoalescePop<T> {
    /// The front item matched the predicate and was dequeued.
    Item(T),
    /// The front item did *not* match; it was left at the front, so FIFO
    /// order is preserved for whoever pops next.
    Mismatch,
    /// The deadline passed while the queue was empty.
    TimedOut,
    /// The queue is closed and drained.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC FIFO with shedding and close-then-drain semantics. See
/// the [module docs](self).
pub struct ShedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Queued items, moved only while `inner` is locked.
    depth: Arc<Counter>,
}

impl<T> std::fmt::Debug for ShedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShedQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

impl<T> ShedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        Self::with_depth_gauge(capacity, Arc::default())
    }

    /// As [`new`](Self::new), adding every change in the number of queued
    /// items to `depth` while the queue's lock is held.
    pub fn with_depth_gauge(capacity: usize, depth: Arc<Counter>) -> Self {
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            depth,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Stops admission. Items already queued remain poppable; blocked
    /// pushers and poppers wake up. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Enqueues `item`, shedding evictable queued items to make room.
    ///
    /// When the queue is full and `evictable` is provided, every queued
    /// item matching the predicate is removed (oldest first) and returned
    /// in FIFO order; the caller must resolve each one. If the queue is
    /// still full afterwards, `block` decides between waiting for a
    /// popper and returning [`PushRejected::Full`].
    pub fn push(
        &self,
        item: T,
        block: bool,
        evictable: Option<&dyn Fn(&T) -> bool>,
    ) -> Result<Vec<T>, PushRejected<T>> {
        let mut inner = self.lock();
        loop {
            if inner.closed {
                return Err(PushRejected::Closed(item));
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
                self.depth.add(1);
                self.not_empty.notify_one();
                return Ok(Vec::new());
            }
            if let Some(pred) = evictable {
                let mut shed = Vec::new();
                let mut kept = VecDeque::with_capacity(inner.items.len());
                for queued in inner.items.drain(..) {
                    if pred(&queued) {
                        shed.push(queued);
                    } else {
                        kept.push_back(queued);
                    }
                }
                inner.items = kept;
                if !shed.is_empty() {
                    inner.items.push_back(item);
                    // One net step: a reader never sees the admitted item
                    // counted before the shed ones are taken off.
                    self.depth.sub(shed.len() as u64 - 1);
                    self.not_empty.notify_one();
                    return Ok(shed);
                }
            }
            if !block {
                return Err(PushRejected::Full(item));
            }
            inner = self
                .not_full
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Dequeues the oldest item, blocking while the queue is open and
    /// empty. Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.depth.sub(1);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The coalescing dequeue: pops the front item *iff* it matches
    /// `matches`, waiting until `deadline` for one to arrive while the
    /// queue is open and empty.
    ///
    /// Unlike [`pop`](Self::pop) this never reorders: a non-matching
    /// front item is left in place ([`CoalescePop::Mismatch`]) so a
    /// coalescing worker stops gathering rather than skipping over a
    /// request destined for a different batch. Returns
    /// [`CoalescePop::TimedOut`] once `deadline` passes with nothing
    /// queued, and [`CoalescePop::Closed`] when the queue is closed and
    /// drained.
    pub fn pop_match_until(
        &self,
        matches: &dyn Fn(&T) -> bool,
        deadline: Instant,
    ) -> CoalescePop<T> {
        let mut inner = self.lock();
        loop {
            if let Some(front) = inner.items.front() {
                if !matches(front) {
                    return CoalescePop::Mismatch;
                }
                let item = inner.items.pop_front().expect("front exists");
                self.depth.sub(1);
                self.not_full.notify_one();
                return CoalescePop::Item(item);
            }
            if inner.closed {
                return CoalescePop::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return CoalescePop::TimedOut;
            }
            inner = self
                .not_empty
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Removes and returns everything queued without waiting.
    pub fn drain_now(&self) -> Vec<T> {
        let drained: Vec<T> = {
            let mut inner = self.lock();
            let drained: Vec<T> = inner.items.drain(..).collect();
            self.depth.sub(drained.len() as u64);
            drained
        };
        if !drained.is_empty() {
            self.not_full.notify_all();
        }
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_and_typed_full() {
        let q = ShedQueue::new(2);
        q.push(1, false, None).unwrap();
        q.push(2, false, None).unwrap();
        assert!(matches!(q.push(3, false, None), Err(PushRejected::Full(3))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn close_then_drain() {
        let q = ShedQueue::new(4);
        q.push('a', false, None).unwrap();
        q.push('b', false, None).unwrap();
        q.close();
        assert!(matches!(
            q.push('c', false, None),
            Err(PushRejected::Closed('c'))
        ));
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(q.pop(), Some('b'));
        assert_eq!(q.pop(), None);
        // Idempotent.
        q.close();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn shed_evicts_oldest_matching_items_first() {
        let q = ShedQueue::new(3);
        q.push(10, false, None).unwrap(); // evictable
        q.push(21, false, None).unwrap(); // kept (odd)
        q.push(30, false, None).unwrap(); // evictable
        let shed = q
            .push(41, false, Some(&|x: &i32| x % 2 == 0))
            .expect("eviction makes room");
        assert_eq!(shed, vec![10, 30], "shed in FIFO order");
        // Survivors keep their order, new item at the back.
        assert_eq!(q.pop(), Some(21));
        assert_eq!(q.pop(), Some(41));
    }

    #[test]
    fn shed_with_nothing_evictable_is_full() {
        let q = ShedQueue::new(1);
        q.push(1, false, None).unwrap();
        let res = q.push(3, false, Some(&|x: &i32| *x % 2 == 0));
        assert!(matches!(res, Err(PushRejected::Full(3))));
        assert_eq!(q.len(), 1, "depth never exceeds capacity");
    }

    #[test]
    fn blocking_push_unblocks_on_pop() {
        let q = Arc::new(ShedQueue::new(1));
        q.push(1, true, None).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(2, true, None).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(1));
        assert!(pusher.join().unwrap());
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn blocking_push_wakes_on_close() {
        let q = Arc::new(ShedQueue::new(1));
        q.push(1, true, None).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(2, true, None));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(matches!(
            pusher.join().unwrap(),
            Err(PushRejected::Closed(2))
        ));
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(ShedQueue::new(2));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.push(7, false, None).unwrap();
        assert_eq!(popper.join().unwrap(), Some(7));
    }

    #[test]
    fn pop_match_takes_matching_front_and_leaves_mismatches() {
        let q = ShedQueue::new(4);
        q.push(2, false, None).unwrap();
        q.push(4, false, None).unwrap();
        q.push(5, false, None).unwrap();
        let even = |x: &i32| x % 2 == 0;
        let deadline = Instant::now(); // already expired: no waiting
        assert_eq!(q.pop_match_until(&even, deadline), CoalescePop::Item(2));
        assert_eq!(q.pop_match_until(&even, deadline), CoalescePop::Item(4));
        // The odd front is not popped and not skipped over.
        assert_eq!(q.pop_match_until(&even, deadline), CoalescePop::Mismatch);
        assert_eq!(q.pop(), Some(5), "mismatch left FIFO order intact");
    }

    #[test]
    fn pop_match_times_out_on_empty_and_sees_late_arrivals() {
        let q: Arc<ShedQueue<i32>> = Arc::new(ShedQueue::new(4));
        let start = Instant::now();
        let res = q.pop_match_until(&|_| true, start + Duration::from_millis(10));
        assert_eq!(res, CoalescePop::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(10));
        // An arrival during the wait is returned before the deadline.
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || {
            q2.pop_match_until(&|_| true, Instant::now() + Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(20));
        q.push(9, false, None).unwrap();
        assert_eq!(waiter.join().unwrap(), CoalescePop::Item(9));
    }

    #[test]
    fn pop_match_reports_closed_when_drained() {
        let q = ShedQueue::new(2);
        q.push(1, false, None).unwrap();
        q.close();
        let far = Instant::now() + Duration::from_secs(5);
        assert_eq!(q.pop_match_until(&|_| true, far), CoalescePop::Item(1));
        assert_eq!(q.pop_match_until(&|_| true, far), CoalescePop::Closed);
        // And a blocked waiter wakes when close arrives mid-wait.
        let q = Arc::new(ShedQueue::<i32>::new(2));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || {
            q2.pop_match_until(&|_| true, Instant::now() + Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), CoalescePop::Closed);
    }

    #[test]
    fn drain_now_empties_the_queue() {
        let q = ShedQueue::new(4);
        for i in 0..3 {
            q.push(i, false, None).unwrap();
        }
        assert_eq!(q.drain_now(), vec![0, 1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn depth_gauge_tracks_every_path_in_and_out() {
        let depth = Arc::new(Counter::new());
        let q = ShedQueue::with_depth_gauge(3, Arc::clone(&depth));
        for i in 0..3 {
            q.push(i, false, None).unwrap();
        }
        assert_eq!(depth.get(), 3);
        // Shedding two to admit one nets -1.
        let shed = q.push(9, false, Some(&|&x: &i32| x < 2)).unwrap();
        assert_eq!((shed.len(), depth.get()), (2, 2));
        assert!(q.push(7, false, None).unwrap().is_empty());
        assert!(matches!(q.push(8, false, None), Err(PushRejected::Full(8))));
        assert_eq!(depth.get(), 3);
        assert_eq!(q.pop(), Some(2));
        let far = Instant::now() + Duration::from_secs(5);
        assert_eq!(q.pop_match_until(&|_| true, far), CoalescePop::Item(9));
        assert_eq!(depth.get(), 1);
        assert_eq!(q.drain_now(), vec![7]);
        assert_eq!(depth.get(), 0);
    }

    #[test]
    fn depth_gauge_never_reads_past_capacity_under_contention() {
        let depth = Arc::new(Counter::new());
        let q = Arc::new(ShedQueue::with_depth_gauge(2, Arc::clone(&depth)));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..2_000 {
                        let _ = q.push(i, false, Some(&|&x: &i32| x % 3 == 0));
                    }
                });
            }
            let popper = {
                let (q, done) = (Arc::clone(&q), Arc::clone(&done));
                s.spawn(move || {
                    while !done.load(std::sync::atomic::Ordering::Acquire) {
                        let _ = q.pop_match_until(&|_| true, Instant::now());
                    }
                })
            };
            let mut max_seen = 0;
            for _ in 0..20_000 {
                max_seen = max_seen.max(depth.get());
            }
            done.store(true, std::sync::atomic::Ordering::Release);
            popper.join().unwrap();
            assert!(max_seen <= 2, "gauge read {max_seen} past capacity 2");
        });
        assert_eq!(depth.get() as usize, q.len());
    }

    #[test]
    fn capacity_clamped_to_one() {
        let q = ShedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.push((), false, None).unwrap();
        assert!(matches!(
            q.push((), false, None),
            Err(PushRejected::Full(()))
        ));
    }
}
