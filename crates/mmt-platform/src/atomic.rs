//! Atomic primitives used by the parallel shortest-path algorithms.
//!
//! The MTA-2 exposes fine-grained synchronising memory operations
//! (`int_fetch_add`, full/empty bits). On commodity hardware the equivalent
//! tool is a compare-and-swap loop. Everything in this workspace that is
//! mutated concurrently — tentative distances, per-component `mind` values,
//! settled bits — goes through the primitives in this module.

use std::sync::atomic::{AtomicU64, Ordering};

/// A `u64` cell supporting an atomic *lower-or-leave* update.
///
/// `fetch_min` is the single most important operation in this workspace: edge
/// relaxation is `dist[v].fetch_min(dist[u] + w)`, and propagating a new
/// minimum up the Component Hierarchy is a chain of `fetch_min`s that stops at
/// the first ancestor that already knows a smaller value (this early stop is
/// what the paper means by "mind values are not propagated very far up the CH
/// in practice").
#[derive(Debug)]
pub struct AtomicMinU64 {
    cell: AtomicU64,
}

impl AtomicMinU64 {
    /// Creates a cell holding `value`.
    #[inline]
    pub fn new(value: u64) -> Self {
        Self {
            cell: AtomicU64::new(value),
        }
    }

    /// Reads the current value.
    #[inline]
    pub fn load(&self) -> u64 {
        self.cell.load(Ordering::Acquire)
    }

    /// Unconditionally stores `value`.
    ///
    /// Only safe to use from phases where the cell is not concurrently
    /// lowered (e.g. instance reset, or a Thorup solve that visits in turn
    /// and so is its instance's only writer).
    #[inline]
    pub fn store(&self, value: u64) {
        self.cell.store(value, Ordering::Release)
    }

    /// Single CAS attempt: replaces `current` with `new` if the cell still
    /// holds `current`. Unlike [`fetch_min`](Self::fetch_min) this can
    /// *raise* the value — used by the Thorup solver's pull-refresh, which
    /// must be able to advance a component's `mind` past an emptied bucket
    /// without stomping on a concurrent lowering (a failed CAS tells the
    /// caller to recompute).
    #[inline]
    pub fn compare_exchange(&self, current: u64, new: u64) -> Result<u64, u64> {
        self.cell
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Atomically lowers the cell to `min(current, value)`.
    ///
    /// Returns `true` if this call strictly lowered the stored value, which
    /// callers use to decide whether an update still needs to be propagated
    /// further (relaxation queues, `mind` propagation).
    ///
    /// Ordering contract: a `true` return is a release operation (the CAS is
    /// `AcqRel`), so writes made before a winning `fetch_min` are visible to
    /// any thread that subsequently observes the lowered value via
    /// [`load`](Self::load). A `false` return performs no RMW at all when the
    /// relaxed peek already sees a value ≤ `value` — the overwhelmingly
    /// common case once distances converge, and the reason relaxation storms
    /// don't serialise on cache-line ownership.
    #[inline]
    pub fn fetch_min(&self, value: u64) -> bool {
        self.lower(value).is_some()
    }

    /// [`fetch_min`](Self::fetch_min) that also reports what it lowered:
    /// `Some(previous)` if this call strictly lowered the stored value,
    /// `None` otherwise. Of several threads lowering a cell to one value,
    /// exactly one sees `Some`; the stepping loop claims a vertex with it.
    #[inline]
    pub fn lower(&self, value: u64) -> Option<u64> {
        // `AtomicU64::fetch_min` exists, but we need to know whether *we*
        // lowered it, so run the CAS loop explicitly.
        //
        // Fast path: a relaxed load costs a shared cache-line read; the RMW
        // costs exclusive ownership. Skip the RMW when we cannot win.
        let mut current = self.cell.load(Ordering::Relaxed);
        if current <= value {
            return None;
        }
        loop {
            match self.cell.compare_exchange_weak(
                current,
                value,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(previous) => return Some(previous),
                Err(observed) => {
                    if observed <= value {
                        return None;
                    }
                    current = observed;
                }
            }
        }
    }
}

impl Default for AtomicMinU64 {
    fn default() -> Self {
        Self::new(u64::MAX)
    }
}

impl Clone for AtomicMinU64 {
    fn clone(&self) -> Self {
        Self::new(self.load())
    }
}

/// A fixed-size bitset with atomic set/test, used to track settled vertices.
///
/// Word-packed so that a per-query SSSP instance costs `n/8` bytes instead of
/// `n` bytes — the "memory required for a single instance" economics of the
/// paper's Table 2 depend on instances being much smaller than the graph.
#[derive(Debug)]
pub struct AtomicBitSet {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitSet {
    /// Creates a bitset of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        Self {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            len,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitset has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Atomically sets bit `i`, returning `true` if it was previously clear.
    ///
    /// The "previously clear" result makes settling idempotent under races:
    /// exactly one thread wins the right to relax a vertex's edges.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        let prev = self.words[i / 64].fetch_or(mask, Ordering::AcqRel);
        prev & mask == 0
    }

    /// As [`set`](Self::set), with a plain load and store instead of a
    /// read-modify-write. Correct only while the caller is the bitset's
    /// sole writer: a concurrent setter of a bit in the same word could
    /// be lost. The accesses are `Relaxed` because nothing reads the
    /// bitset concurrently with its sole writer; a reader on another
    /// thread synchronises with it through whatever handed the bitset
    /// over (a join, a channel or a lock).
    #[inline]
    pub fn set_unshared(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        let word = &self.words[i / 64];
        let prev = word.load(Ordering::Relaxed);
        word.store(prev | mask, Ordering::Relaxed);
        prev & mask == 0
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        self.words[i / 64].load(Ordering::Acquire) & mask != 0
    }

    /// Clears every bit (not thread-safe with concurrent setters; used to
    /// reset a query instance between runs).
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Release);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }
}

/// Shifts `value` right by `shift`, saturating to 0 for shifts ≥ 64.
///
/// Bucket indices in the Component Hierarchy are `mind >> alpha`; the
/// synthetic root of a disconnected graph uses an `alpha` large enough that
/// every finite distance lands in bucket 0, which this helper makes safe.
#[inline]
pub fn saturating_shr(value: u64, shift: u32) -> u64 {
    if shift >= 64 {
        0
    } else {
        value >> shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fetch_min_lowers_and_reports() {
        let a = AtomicMinU64::new(10);
        assert!(a.fetch_min(5));
        assert_eq!(a.load(), 5);
        assert!(!a.fetch_min(7));
        assert_eq!(a.load(), 5);
        assert!(!a.fetch_min(5));
    }

    #[test]
    fn fetch_min_concurrent_settles_on_global_min() {
        let a = Arc::new(AtomicMinU64::new(u64::MAX));
        std::thread::scope(|s| {
            for t in 0..8 {
                let a = Arc::clone(&a);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        a.fetch_min(1 + ((i * 7919 + t * 104729) % 5000));
                    }
                });
            }
        });
        assert!(a.load() >= 1 && a.load() < 5001);
        // The global minimum over the deterministic streams must have won.
        let mut expected = u64::MAX;
        for t in 0..8u64 {
            for i in 0..1000u64 {
                expected = expected.min(1 + ((i * 7919 + t * 104729) % 5000));
            }
        }
        assert_eq!(a.load(), expected);
    }

    #[test]
    fn fetch_min_equal_value_is_not_a_lowering() {
        // The fast path must treat `current == value` as "no win": callers
        // use the return to decide whether to re-enqueue a vertex, and an
        // equal-distance relaxation must not requeue (nor may a second copy
        // of a vertex be extracted twice at one label).
        let a = AtomicMinU64::new(42);
        assert!(!a.fetch_min(42));
        assert!(!a.fetch_min(43));
        assert_eq!(a.load(), 42);
    }

    #[test]
    fn fetch_min_success_publishes_prior_writes() {
        // Message-passing check of the AcqRel success ordering: the writer
        // stores payload (Relaxed) and then lowers the flag; once a reader's
        // Acquire load observes the lowered flag, the payload store must be
        // visible. With a Relaxed success ordering this could read 0.
        use std::sync::atomic::AtomicU64 as Plain;
        for _ in 0..200 {
            let payload = Plain::new(0);
            let flag = AtomicMinU64::new(u64::MAX);
            std::thread::scope(|s| {
                s.spawn(|| {
                    payload.store(7, Ordering::Relaxed);
                    assert!(flag.fetch_min(1));
                });
                s.spawn(|| {
                    while flag.load() != 1 {
                        std::hint::spin_loop();
                    }
                    assert_eq!(payload.load(Ordering::Relaxed), 7);
                });
            });
        }
    }

    #[test]
    fn fetch_min_losing_race_reports_false() {
        // Two threads racing distinct values: exactly one may claim the
        // strict lowering to the smaller value, and the cell converges on
        // the global minimum even when the fast path declines the RMW.
        use std::sync::atomic::AtomicUsize;
        for _ in 0..200 {
            let a = Arc::new(AtomicMinU64::new(u64::MAX));
            let wins = Arc::new(AtomicUsize::new(0));
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let a = Arc::clone(&a);
                    let wins = Arc::clone(&wins);
                    s.spawn(move || {
                        if a.fetch_min(3) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            assert_eq!(wins.load(Ordering::Relaxed), 1, "one strict lowering");
            assert_eq!(a.load(), 3);
        }
    }

    #[test]
    fn lower_reports_the_value_it_replaced_to_exactly_one_racer() {
        let a = AtomicMinU64::new(u64::MAX);
        assert_eq!(a.lower(9), Some(u64::MAX));
        assert_eq!(a.lower(9), None, "an equal value lowers nothing");
        assert_eq!(a.lower(4), Some(9));
        use std::sync::Mutex;
        for _ in 0..200 {
            let a = AtomicMinU64::new(u64::MAX);
            let seen = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        if let Some(previous) = a.lower(3) {
                            seen.lock().unwrap().push(previous);
                        }
                    });
                }
            });
            assert_eq!(seen.into_inner().unwrap(), vec![u64::MAX]);
        }
    }

    #[test]
    fn bitset_set_get() {
        let b = AtomicBitSet::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.get(0));
        assert!(b.set(0));
        assert!(!b.set(0));
        assert!(b.get(0));
        assert!(b.set(129));
        assert!(b.get(129));
        assert!(!b.get(128));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn bitset_unshared_set_reports_like_set() {
        let b = AtomicBitSet::new(130);
        assert!(b.set_unshared(64));
        assert!(!b.set_unshared(64));
        assert!(!b.set(64));
        assert!(b.set(65));
        assert!(!b.set_unshared(65));
        assert!(b.set_unshared(129));
        assert!(b.get(64) && b.get(65) && b.get(129) && !b.get(63));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn bitset_clear_all() {
        let b = AtomicBitSet::new(70);
        b.set(3);
        b.set(69);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
        assert!(!b.get(3));
    }

    #[test]
    fn bitset_concurrent_unique_winners() {
        let b = Arc::new(AtomicBitSet::new(1024));
        let wins: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let b = Arc::clone(&b);
                    s.spawn(move || (0..1024).filter(|&i| b.set(i)).count())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        // Every bit has exactly one winner across all threads.
        assert_eq!(wins, 1024);
        assert_eq!(b.count_ones(), 1024);
    }

    #[test]
    fn saturating_shift() {
        assert_eq!(saturating_shr(u64::MAX - 1, 64), 0);
        assert_eq!(saturating_shr(u64::MAX - 1, 100), 0);
        assert_eq!(saturating_shr(8, 3), 1);
        assert_eq!(saturating_shr(8, 0), 8);
    }

    #[test]
    fn empty_bitset() {
        let b = AtomicBitSet::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
    }
}
