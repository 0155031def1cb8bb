//! A counting global allocator (behind the `count-alloc` feature).
//!
//! The hot-path claim — "a warm one-lane stepping solve allocates nothing,
//! and the batched serving path allocates nothing in steady state" — needs
//! a measurement, not an argument. With `--features count-alloc` this module
//! installs a [`GlobalAlloc`] wrapper around [`System`] that counts every
//! allocation and reallocation; [`measure`] brackets a closure with
//! before/after snapshots. Without the feature the crate compiles with
//! `forbid(unsafe_code)` and no allocator override, so the default builds
//! stay provably safe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's allocations (const, drop-free: bumping never allocates).
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A [`System`]-backed allocator that counts allocations and bytes.
pub struct CountingAllocator;

#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Cumulative `(allocations, bytes)` since process start.
pub fn totals() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Runs `f`, returning its result plus the `(allocations, bytes)` the run
/// performed. Counts are process-wide, so keep other threads quiet for
/// precise numbers; comparative measurements (A strictly fewer than B)
/// tolerate background noise by margin.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = totals();
    let out = f();
    let (a1, b1) = totals();
    (out, a1.saturating_sub(a0), b1.saturating_sub(b0))
}

/// As [`measure`], counting only the calling thread's allocations: exact
/// under concurrent tests when `f` runs wholly on this thread.
pub fn measure_thread<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = THREAD_ALLOCS.get();
    let out = f();
    (out, THREAD_ALLOCS.get() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_move_when_allocating() {
        let (v, allocs, bytes) = measure(|| vec![0u64; 1024]);
        assert_eq!(v.len(), 1024);
        assert!(allocs >= 1, "a fresh Vec must allocate");
        assert!(bytes >= 8 * 1024);
        let (_, none, _) = measure(|| {
            let mut x = 0u64;
            for i in 0..100u64 {
                x = x.wrapping_add(i);
            }
            x
        });
        assert_eq!(none, 0, "pure arithmetic must not allocate");
    }
}
