//! Minimal stand-in for `rayon`: data parallelism by sharding.
//!
//! Parallel iterators here evaluate by splitting their source into one
//! contiguous shard per available thread and running the adapter chain
//! serially within each shard on `std::thread::scope` threads. This keeps
//! rayon's semantics for everything this workspace relies on — order
//! preservation in `collect`, arbitrary order in `for_each`, pool-bounded
//! concurrency via [`ThreadPool::install`] — without a work-stealing
//! runtime. Nested parallel calls divide the thread budget instead of
//! sharing a deque, so total live threads never exceed the installed pool
//! size.

use std::cell::Cell;
use std::fmt;

// ---------------------------------------------------------------------------
// Thread budget ("pool") management
// ---------------------------------------------------------------------------

thread_local! {
    /// 0 means "unset": fall back to hardware parallelism.
    static BUDGET: Cell<usize> = const { Cell::new(0) };
    /// This thread's hardware parallelism, read once (each read re-reads
    /// cgroup and affinity state).
    static HARDWARE: usize = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
}

/// The budget a thread had before an override; dropping it puts the budget
/// back, on normal return and on unwind alike.
struct Restore(usize);

impl Drop for Restore {
    fn drop(&mut self) {
        BUDGET.set(self.0);
    }
}

/// Runs `f` with `budget` in effect on this thread.
fn with_budget<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    let _restore = Restore(BUDGET.replace(budget));
    f()
}

/// Number of threads parallel work may use in the current context.
pub fn current_num_threads() -> usize {
    match BUDGET.get() {
        0 => HARDWARE.with(|n| *n),
        b => b,
    }
}

/// Runs `f(0..parts)` concurrently (one scoped thread per extra part) and
/// returns the results in part order. Each part runs with a proportionally
/// reduced thread budget so nested parallelism stays bounded. A single
/// part runs inline without reading the budget.
fn run_parts<R: Send>(parts: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = if parts > 1 { current_num_threads() } else { 1 };
    if threads <= 1 {
        return (0..parts).map(&f).collect();
    }
    let child_budget = (threads / parts).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..parts)
            .map(|part| {
                let f = &f;
                scope.spawn(move || with_budget(child_budget, || f(part)))
            })
            .collect();
        let mut out = Vec::with_capacity(parts);
        out.push(with_budget(child_budget, || f(0)));
        for h in handles {
            match h.join() {
                Ok(r) => out.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Partition `[0, len)` into `parts` balanced contiguous ranges.
fn part_bounds(len: usize, part: usize, parts: usize) -> (usize, usize) {
    (len * part / parts, len * (part + 1) / parts)
}

fn parts_for(len: usize) -> usize {
    current_num_threads().min(len).max(1)
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

/// A logical pool: a thread budget that [`ThreadPool::install`] applies to
/// all parallel work in a closure.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread budget in effect. Installing a pool
    /// replaces any outer pool's budget — rayon's semantics.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        with_budget(self.threads, f)
    }

    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

/// Builder for [`ThreadPool`], mirroring rayon's.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// A builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool's thread count (0 means "hardware default").
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Builds the pool. Never fails in the shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            Some(0) | None => HARDWARE.with(|n| *n),
            Some(n) => n,
        };
        Ok(ThreadPool { threads })
    }
}

/// Pool construction error (never produced by the shim).
pub struct ThreadPoolBuildError;

impl fmt::Debug for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ThreadPoolBuildError")
    }
}

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("thread pool build failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

// ---------------------------------------------------------------------------
// The parallel iterator trait
// ---------------------------------------------------------------------------

/// A shard-evaluated parallel iterator.
///
/// Implementors describe how to stream the items of one shard (`feed`);
/// every adapter wraps `feed`, and every terminal fans shards out across
/// the thread budget with `run_parts`.
pub trait ParallelIterator: Sized + Send + Sync {
    /// The element type.
    type Item: Send;

    /// Approximate total length, used to size the shard count.
    fn est_len(&self) -> usize;

    /// Streams shard `part` of `parts` into `sink`, serially.
    fn feed(&self, part: usize, parts: usize, sink: &mut dyn FnMut(Self::Item));

    // ---- adapters -------------------------------------------------------

    /// Maps each item through `f`.
    fn map<U: Send, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> U + Send + Sync,
    {
        Map { base: self, f }
    }

    /// Keeps items satisfying `pred`.
    fn filter<F>(self, pred: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Item) -> bool + Send + Sync,
    {
        Filter { base: self, pred }
    }

    /// Maps and filters in one pass.
    fn filter_map<U: Send, F>(self, f: F) -> FilterMap<Self, F>
    where
        F: Fn(Self::Item) -> Option<U> + Send + Sync,
    {
        FilterMap { base: self, f }
    }

    /// Maps each item to a serial iterator and flattens.
    fn flat_map_iter<U, F>(self, f: F) -> FlatMapIter<Self, F>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(Self::Item) -> U + Send + Sync,
    {
        FlatMapIter { base: self, f }
    }

    /// Copies referenced items.
    fn copied<'a, T>(self) -> Copied<Self>
    where
        T: 'a + Copy + Send + Sync,
        Self: ParallelIterator<Item = &'a T>,
    {
        Copied { base: self }
    }

    // ---- terminals ------------------------------------------------------

    /// Runs `f` on every item, in parallel across shards.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        fold_parts(&self, || (), |_, item| f(item));
    }

    /// Collects into `C`, preserving source order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_parts(self.collect_parts())
    }

    /// Reduces with an identity and an associative operator.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Send + Sync,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Send + Sync,
    {
        fold_parts(&self, &identity, |acc, item| {
            let prev = std::mem::replace(acc, identity());
            *acc = op(prev, item);
        })
        .into_iter()
        .fold(identity(), &op)
    }

    /// Sums the items.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        self.collect_parts()
            .into_iter()
            .map(|v| v.into_iter().sum::<S>())
            .sum()
    }

    /// The largest item, if any.
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        fold_parts(
            &self,
            || None,
            |best, item| {
                if best.as_ref().is_none_or(|b| item > *b) {
                    *best = Some(item);
                }
            },
        )
        .into_iter()
        .flatten()
        .max()
    }

    /// The smallest item, if any.
    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        fold_parts(
            &self,
            || None,
            |best, item| {
                if best.as_ref().is_none_or(|b| item < *b) {
                    *best = Some(item);
                }
            },
        )
        .into_iter()
        .flatten()
        .min()
    }

    /// Number of items.
    fn count(self) -> usize {
        fold_parts(&self, || 0usize, |n, _| *n += 1)
            .into_iter()
            .sum()
    }

    /// First `Some` produced by `f`, from any shard (shards are fully
    /// evaluated; there is no mid-shard cancellation in the shim).
    fn find_map_any<U: Send, F>(self, f: F) -> Option<U>
    where
        F: Fn(Self::Item) -> Option<U> + Send + Sync,
    {
        fold_parts(
            &self,
            || None,
            |found, item| {
                if found.is_none() {
                    *found = f(item);
                }
            },
        )
        .into_iter()
        .flatten()
        .next()
    }

    /// True if any item satisfies `pred`.
    fn any<F>(self, pred: F) -> bool
    where
        F: Fn(Self::Item) -> bool + Send + Sync,
    {
        self.find_map_any(|item| pred(item).then_some(())).is_some()
    }

    /// True if all items satisfy `pred`.
    fn all<F>(self, pred: F) -> bool
    where
        F: Fn(Self::Item) -> bool + Send + Sync,
    {
        !self.any(|item| !pred(item))
    }

    /// Evaluates all shards into per-shard vectors, in shard order.
    fn collect_parts(&self) -> Vec<Vec<Self::Item>> {
        fold_parts(self, Vec::new, |out, item| out.push(item))
    }
}

/// Folds each shard of `it` into its own accumulator, the shards in
/// parallel, and returns the accumulators in shard order: the body of
/// every terminal.
fn fold_parts<P: ParallelIterator, A: Send>(
    it: &P,
    init: impl Fn() -> A + Sync,
    step: impl Fn(&mut A, P::Item) + Sync,
) -> Vec<A> {
    let parts = parts_for(it.est_len());
    run_parts(parts, |part| {
        let mut acc = init();
        it.feed(part, parts, &mut |item| step(&mut acc, item));
        acc
    })
}

/// Collections buildable from ordered per-shard vectors.
pub trait FromParallelIterator<I>: Sized {
    /// Concatenates shard outputs (shards arrive in source order).
    fn from_parts(parts: Vec<Vec<I>>) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_parts(parts: Vec<Vec<T>>) -> Self {
        let total = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend(p);
        }
        out
    }
}

impl<'a, T: 'a + Copy + Send + Sync> FromParallelIterator<&'a T> for Vec<T> {
    fn from_parts(parts: Vec<Vec<&'a T>>) -> Self {
        let total = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend(p.into_iter().copied());
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

/// See [`ParallelIterator::map`].
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, U, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    U: Send,
    F: Fn(P::Item) -> U + Send + Sync,
{
    type Item = U;

    fn est_len(&self) -> usize {
        self.base.est_len()
    }

    fn feed(&self, part: usize, parts: usize, sink: &mut dyn FnMut(U)) {
        self.base
            .feed(part, parts, &mut |item| sink((self.f)(item)));
    }
}

/// See [`ParallelIterator::filter`].
pub struct Filter<P, F> {
    base: P,
    pred: F,
}

impl<P, F> ParallelIterator for Filter<P, F>
where
    P: ParallelIterator,
    F: Fn(&P::Item) -> bool + Send + Sync,
{
    type Item = P::Item;

    fn est_len(&self) -> usize {
        self.base.est_len()
    }

    fn feed(&self, part: usize, parts: usize, sink: &mut dyn FnMut(P::Item)) {
        self.base.feed(part, parts, &mut |item| {
            if (self.pred)(&item) {
                sink(item);
            }
        });
    }
}

/// See [`ParallelIterator::filter_map`].
pub struct FilterMap<P, F> {
    base: P,
    f: F,
}

impl<P, U, F> ParallelIterator for FilterMap<P, F>
where
    P: ParallelIterator,
    U: Send,
    F: Fn(P::Item) -> Option<U> + Send + Sync,
{
    type Item = U;

    fn est_len(&self) -> usize {
        self.base.est_len()
    }

    fn feed(&self, part: usize, parts: usize, sink: &mut dyn FnMut(U)) {
        self.base.feed(part, parts, &mut |item| {
            if let Some(u) = (self.f)(item) {
                sink(u);
            }
        });
    }
}

/// See [`ParallelIterator::flat_map_iter`].
pub struct FlatMapIter<P, F> {
    base: P,
    f: F,
}

impl<P, U, F> ParallelIterator for FlatMapIter<P, F>
where
    P: ParallelIterator,
    U: IntoIterator,
    U::Item: Send,
    F: Fn(P::Item) -> U + Send + Sync,
{
    type Item = U::Item;

    fn est_len(&self) -> usize {
        self.base.est_len()
    }

    fn feed(&self, part: usize, parts: usize, sink: &mut dyn FnMut(U::Item)) {
        self.base.feed(part, parts, &mut |item| {
            for sub in (self.f)(item) {
                sink(sub);
            }
        });
    }
}

/// See [`ParallelIterator::copied`].
pub struct Copied<P> {
    base: P,
}

impl<'a, T, P> ParallelIterator for Copied<P>
where
    T: 'a + Copy + Send + Sync,
    P: ParallelIterator<Item = &'a T>,
{
    type Item = T;

    fn est_len(&self) -> usize {
        self.base.est_len()
    }

    fn feed(&self, part: usize, parts: usize, sink: &mut dyn FnMut(T)) {
        self.base.feed(part, parts, &mut |item| sink(*item));
    }
}

// ---------------------------------------------------------------------------
// Sources: slices, ranges
// ---------------------------------------------------------------------------

/// Borrowing parallel iterator over a slice.
pub struct ParSlice<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParSlice<'a, T> {
    type Item = &'a T;

    fn est_len(&self) -> usize {
        self.slice.len()
    }

    fn feed(&self, part: usize, parts: usize, sink: &mut dyn FnMut(&'a T)) {
        let (lo, hi) = part_bounds(self.slice.len(), part, parts);
        for item in &self.slice[lo..hi] {
            sink(item);
        }
    }
}

/// Extension methods putting slices into the parallel world.
pub trait ParallelSlice<T: Sync> {
    /// Parallel borrowing iterator.
    fn par_iter(&self) -> ParSlice<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParSlice<'_, T> {
        ParSlice { slice: self }
    }
}

/// Extension methods for mutable slice parallelism.
pub trait ParallelSliceMut<T: Send> {
    /// Unstable sort (serial in the shim).
    fn par_sort_unstable(&mut self)
    where
        T: Ord;
    /// Unstable sort by key (serial in the shim).
    fn par_sort_unstable_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, key: F);
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        self.sort_unstable();
    }

    fn par_sort_unstable_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, key: F) {
        self.sort_unstable_by_key(key);
    }
}

/// Parallel iterator over an integer range.
pub struct ParRange<T> {
    start: T,
    end: T,
}

/// Conversion into a parallel iterator, mirroring rayon's trait.
pub trait IntoParallelIterator {
    /// The resulting iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The element type.
    type Item: Send;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

macro_rules! impl_par_range {
    ($($t:ty),*) => {$(
        impl ParallelIterator for ParRange<$t> {
            type Item = $t;

            fn est_len(&self) -> usize {
                (self.end.saturating_sub(self.start)) as usize
            }

            fn feed(&self, part: usize, parts: usize, sink: &mut dyn FnMut($t)) {
                let len = self.est_len();
                let (lo, hi) = part_bounds(len, part, parts);
                for v in (self.start + lo as $t)..(self.start + hi as $t) {
                    sink(v);
                }
            }
        }

        impl IntoParallelIterator for std::ops::Range<$t> {
            type Iter = ParRange<$t>;
            type Item = $t;

            fn into_par_iter(self) -> ParRange<$t> {
                ParRange { start: self.start, end: self.end.max(self.start) }
            }
        }
    )*};
}

impl_par_range!(u8, u16, u32, u64, usize);

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Iter = ParSlice<'a, T>;
    type Item = &'a T;

    fn into_par_iter(self) -> ParSlice<'a, T> {
        ParSlice { slice: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Iter = ParSlice<'a, T>;
    type Item = &'a T;

    fn into_par_iter(self) -> ParSlice<'a, T> {
        ParSlice { slice: self }
    }
}

/// The names parallel code imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn map_filter_collect_preserves_order() {
        let v: Vec<u32> = (0..1000).collect();
        let out: Vec<u64> = v
            .par_iter()
            .map(|&x| x as u64 * 2)
            .filter(|&x| x % 3 != 0)
            .collect();
        let want: Vec<u64> = (0..1000u64).map(|x| x * 2).filter(|x| x % 3 != 0).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn range_sum_and_count() {
        let total: u64 = (0..1000u64).into_par_iter().sum();
        assert_eq!(total, 999 * 1000 / 2);
        assert_eq!((0..77u32).into_par_iter().count(), 77);
    }

    #[test]
    fn for_each_visits_everything_in_parallel() {
        let acc = AtomicU64::new(0);
        (1..101u64).into_par_iter().for_each(|x| {
            acc.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn reduce_max_min() {
        let v: Vec<u32> = vec![5, 3, 9, 1, 7];
        assert_eq!(v.par_iter().copied().max(), Some(9));
        assert_eq!(v.par_iter().copied().min(), Some(1));
        let r = v.par_iter().copied().reduce(|| 0, |a, b| a + b);
        assert_eq!(r, 25);
    }

    #[test]
    fn flat_map_iter_flattens_in_order() {
        let v = [1u32, 2, 3];
        let out: Vec<u32> = v.par_iter().flat_map_iter(|&x| 0..x).collect();
        assert_eq!(out, vec![0, 0, 1, 0, 1, 2]);
    }

    #[test]
    fn par_sorts() {
        let mut v = vec![5, 1, 4, 2, 3];
        v.par_sort_unstable();
        assert_eq!(v, vec![1, 2, 3, 4, 5]);
        let mut w = vec![(1, 'b'), (0, 'a'), (2, 'c')];
        w.par_sort_unstable_by_key(|&(k, _)| std::cmp::Reverse(k));
        assert_eq!(w, vec![(2, 'c'), (1, 'b'), (0, 'a')]);
    }

    #[test]
    fn find_map_any_and_all() {
        let v: Vec<u32> = (0..1000).collect();
        let hit = v.par_iter().find_map_any(|&x| (x == 617).then_some(x * 2));
        assert_eq!(hit, Some(1234));
        assert!(v.par_iter().all(|&x| x < 1000));
        assert!(v.par_iter().any(|&x| x == 999));
        assert!(!v.par_iter().any(|&x| x > 1000));
    }

    #[test]
    fn install_bounds_budget_and_nested_calls_divide() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        assert_eq!(pool.install(crate::current_num_threads), 3);
        // Nested parallelism inside a shard sees a reduced budget.
        let nested_max = pool.install(|| {
            (0..3u32)
                .into_par_iter()
                .map(|_| crate::current_num_threads())
                .max()
                .unwrap()
        });
        assert!(nested_max <= 3, "nested budget {nested_max}");
    }

    #[test]
    fn empty_sources() {
        let v: Vec<u32> = Vec::new();
        assert_eq!(
            v.par_iter().copied().collect::<Vec<u32>>(),
            Vec::<u32>::new()
        );
        assert_eq!(v.par_iter().copied().max(), None);
        assert_eq!((5..5u32).into_par_iter().count(), 0);
    }

    #[test]
    fn install_restores_budget_when_the_closure_panics() {
        let before = crate::current_num_threads();
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(before + 3)
            .build()
            .unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| panic!("boom"))
        }));
        assert!(caught.is_err());
        assert_eq!(crate::current_num_threads(), before);
    }

    #[test]
    fn panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            (0..64u32).into_par_iter().for_each(|x| {
                if x == 63 {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err());
    }
}
