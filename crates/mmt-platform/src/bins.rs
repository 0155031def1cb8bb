//! Contention-free frontier bins for the parallel stepping loop.
//!
//! The stepping algorithms of Dong, Gu, Sun and Zhang (Δ-, Δ*- and
//! ρ-stepping, arXiv:2105.06145) and the GARDENIA OpenMP Δ-stepping kernel
//! share one substrate: each worker owns a full set of *bucket bins* and
//! inserts improved vertices directly into its own bins keyed by the new
//! distance — no shared bucket array, no atomic bucket pushes, no
//! contention in the relax phase at all. The next bucket to process is
//! then found by a reduce-style vote: each lane reports its smallest
//! non-empty bin and the minimum wins.
//!
//! [`FrontierBins`] is that substrate. The only insertion API is
//! [`BinLane::push`], and a worker reaches a [`BinLane`] only through
//! [`FrontierBins::lane`], which locks it. In each phase of a
//! [`team`](crate::team) every lane locks its own bin lane once, to fill
//! it (a relax phase) or to empty one bucket of it ([`BinLane::drain`], an
//! extract phase), so the locks are never contended; between phases the
//! team's leader votes and counts alone.
//!
//! Bins are ring-indexed by absolute bucket number: callers guarantee all
//! live entries sit within `ring_len` buckets of the current minimum.
//! Entries are never *removed* when a vertex migrates to a lower bucket,
//! and a vertex improved twice in one bucket is held twice: a drain yields
//! every raw entry, and the kernel's extraction filter skips stale and
//! repeated copies.

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use std::ops::DerefMut;

/// One worker's private set of bucket bins.
///
/// Reached only through [`FrontierBins::lane`], which locks it, or
/// serially through [`FrontierBins::seed`], so pushes are always exclusive
/// to one worker.
#[derive(Debug)]
pub struct BinLane {
    /// Ring of bins, indexed by `bucket % ring_len`.
    bins: Vec<Vec<u32>>,
    /// Items currently held across all bins (stale entries included).
    pending: usize,
}

impl BinLane {
    fn new(ring: usize) -> Self {
        Self {
            bins: (0..ring.max(1)).map(|_| Vec::new()).collect(),
            pending: 0,
        }
    }

    fn slot(&self, bucket: u64) -> usize {
        (bucket % self.bins.len() as u64) as usize
    }

    /// Inserts `item` into the bin for absolute bucket `bucket`.
    ///
    /// This is the *only* insertion point of the whole substrate, and it
    /// requires `&mut self`: nothing outside a locked lane can be pushed
    /// into at all.
    #[inline]
    pub fn push(&mut self, bucket: u64, item: u32) {
        let slot = self.slot(bucket);
        self.bins[slot].push(item);
        self.pending += 1;
    }

    /// Items currently held in this lane (live and stale).
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Entries held in the bin of absolute bucket `bucket`, stale and
    /// repeated ones included.
    #[inline]
    pub fn held(&self, bucket: u64) -> usize {
        self.bins[self.slot(bucket)].len()
    }

    /// Empties the bin of absolute bucket `bucket`, yielding every entry
    /// in push order, stale and repeated ones included. The bin keeps its
    /// capacity.
    pub fn drain(&mut self, bucket: u64) -> std::vec::Drain<'_, u32> {
        let slot = self.slot(bucket);
        self.pending -= self.bins[slot].len();
        self.bins[slot].drain(..)
    }

    /// This lane's vote: the smallest absolute bucket in
    /// `[from, from + ring_len)` holding at least one entry, under the
    /// cyclic-window invariant that no live entry sits below `from`.
    pub fn min_bucket(&self, from: u64) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        let ring = self.bins.len() as u64;
        (0..ring)
            .map(|k| from + k)
            .find(|b| !self.bins[(b % ring) as usize].is_empty())
    }

    fn reset(&mut self, ring: usize) {
        let ring = ring.max(1);
        if self.bins.len() != ring {
            self.bins.resize_with(ring, Vec::new);
        }
        // All bins drain before a kernel returns; clear anyway so a
        // cancelled or panicked query can't poison the next one.
        for b in &mut self.bins {
            b.clear();
        }
        self.pending = 0;
    }
}

/// Per-thread growable bucket bins with a reduce-style next-bucket vote.
/// See the module docs for the contention story.
#[derive(Debug)]
pub struct FrontierBins {
    /// One cache line or more per lane: every push bumps its lane's
    /// `pending`, so adjacent lanes would share a line and bounce it
    /// between the workers on every push.
    lanes: Vec<CachePadded<Mutex<BinLane>>>,
    ring: usize,
}

impl FrontierBins {
    /// Creates `lanes` lanes of `ring` bins each. At least one lane and
    /// one bin always exist.
    pub fn new(lanes: usize, ring: usize) -> Self {
        let ring = ring.max(1);
        Self {
            lanes: (0..lanes.max(1))
                .map(|_| CachePadded::new(Mutex::new(BinLane::new(ring))))
                .collect(),
            ring,
        }
    }

    /// Number of lanes.
    #[inline]
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Number of bins per lane (the cyclic window length).
    #[inline]
    pub fn ring_len(&self) -> usize {
        self.ring
    }

    /// Re-dimensions for a new query: `ring` bins per lane, all cleared.
    /// Lane count is fixed at construction. Capacity is retained.
    pub fn reset(&mut self, ring: usize) {
        let ring = ring.max(1);
        for lane in &mut self.lanes {
            lane.get_mut().reset(ring);
        }
        self.ring = ring;
    }

    /// Items currently held across every lane (live and stale).
    pub fn pending(&self) -> usize {
        self.lanes.iter().map(|l| l.lock().pending()).sum()
    }

    /// Serial insertion for query setup (the source vertex). Uses lane 0;
    /// `&mut self` keeps this off any concurrent path.
    pub fn seed(&mut self, bucket: u64, item: u32) {
        self.lanes[0].get_mut().push(bucket, item);
    }

    /// Lane `lane`'s bins, locked for the worker that fills or drains
    /// them. A phase takes each lane's lock once, from the one worker that
    /// owns the lane, so the lock is never contended.
    pub fn lane(&self, lane: usize) -> impl DerefMut<Target = BinLane> + '_ {
        self.lanes[lane].lock()
    }

    /// The reduce-style next-bucket vote: every lane reports its smallest
    /// non-empty bucket at or above `from` (see [`BinLane::min_bucket`])
    /// and the global minimum wins. `None` when every lane is empty.
    ///
    /// Correct only under the cyclic-window invariant: no live entry
    /// below `from`, none at or above `from + ring_len`.
    pub fn vote(&self, from: u64) -> Option<u64> {
        self.lanes
            .iter()
            .filter_map(|l| l.lock().min_bucket(from))
            .min()
    }

    /// Entries held for absolute bucket `bucket` across every lane (see
    /// [`BinLane::held`]): what draining the bucket from every lane would
    /// yield.
    pub fn held(&self, bucket: u64) -> usize {
        self.lanes.iter().map(|l| l.lock().held(bucket)).sum()
    }

    /// Drops every held entry (used when a query is cancelled mid-flight
    /// so the scratch is clean for the next one). Capacity is retained.
    pub fn clear(&mut self) {
        for lane in &mut self.lanes {
            lane.get_mut().reset(self.ring);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `bucket` from every lane, in lane order.
    fn drain_all(bins: &FrontierBins, bucket: u64) -> Vec<u32> {
        (0..bins.lane_count())
            .flat_map(|l| bins.lane(l).drain(bucket).collect::<Vec<_>>())
            .collect()
    }

    #[test]
    fn seed_vote_drain_round_trip() {
        let mut bins = FrontierBins::new(4, 8);
        assert_eq!(bins.vote(0), None);
        bins.seed(3, 7);
        assert_eq!(bins.pending(), 1);
        assert_eq!(bins.vote(0), Some(3));
        assert_eq!(bins.held(3), 1);
        assert_eq!(bins.lane(0).drain(3).collect::<Vec<_>>(), vec![7]);
        assert_eq!(bins.pending(), 0);
        assert_eq!(bins.held(3), 0);
        assert_eq!(bins.vote(3), None);
    }

    #[test]
    fn scatter_pushes_stay_lane_local_and_merge_back() {
        let bins = FrontierBins::new(4, 16);
        let items: Vec<u32> = (0..200).collect();
        // One worker per lane, each pushing its own chunk concurrently.
        std::thread::scope(|s| {
            for (i, chunk) in items.chunks(50).enumerate() {
                let bins = &bins;
                s.spawn(move || {
                    let mut lane = bins.lane(i);
                    for &v in chunk {
                        lane.push((v % 10) as u64, v);
                    }
                    assert_eq!(lane.pending(), 50);
                });
            }
        });
        assert_eq!(bins.pending(), 200);
        // Each lane drains only what it pushed.
        for (i, chunk) in items.chunks(50).enumerate() {
            let mut lane = bins.lane(i);
            for b in 0..10u64 {
                let want: Vec<u32> = chunk
                    .iter()
                    .copied()
                    .filter(|v| v % 10 == b as u32)
                    .collect();
                assert_eq!(
                    lane.drain(b).collect::<Vec<_>>(),
                    want,
                    "lane {i} bucket {b}"
                );
            }
            assert_eq!(lane.pending(), 0);
        }
        assert_eq!(bins.pending(), 0);
    }

    #[test]
    fn vote_is_the_global_minimum_across_lanes() {
        let bins = FrontierBins::new(3, 8);
        let items = [(0usize, 9u64, 1u32), (1, 5, 2), (2, 7, 3)];
        for (lane, b, v) in items {
            bins.lane(lane).push(b, v);
        }
        assert_eq!(bins.vote(4), Some(5));
        assert_eq!(drain_all(&bins, 5), vec![2]);
        assert_eq!(bins.vote(5), Some(7));
    }

    #[test]
    fn a_lane_drain_yields_every_raw_entry_repeats_included() {
        let bins = FrontierBins::new(2, 4);
        for (lane, v) in [(0, 6), (0, 6), (0, 5), (1, 6)] {
            bins.lane(lane).push(1, v);
        }
        assert_eq!(bins.held(1), 4, "the count keeps repeats");
        assert_eq!(
            drain_all(&bins, 1),
            vec![6, 6, 5, 6],
            "and so does the drain"
        );
        assert_eq!(bins.held(1), 0);
        // The same vertex re-enters a later bucket.
        bins.lane(1).push(2, 6);
        assert_eq!(drain_all(&bins, 2), vec![6]);
    }

    #[test]
    fn ring_wraps_cleanly_under_the_window_invariant() {
        let mut bins = FrontierBins::new(2, 4);
        bins.seed(6, 1); // slot 2
        bins.seed(9, 2); // slot 1 (wrapped)
        assert_eq!(bins.vote(6), Some(6));
        assert_eq!(bins.held(6), 1, "bucket 9's slot is not bucket 6's");
        assert_eq!(drain_all(&bins, 6), vec![1]);
        assert_eq!(bins.vote(7), Some(9));
        assert_eq!(drain_all(&bins, 9), vec![2]);
    }

    #[test]
    fn reset_clears_and_redimensions() {
        let mut bins = FrontierBins::new(2, 4);
        bins.seed(0, 1);
        bins.reset(8);
        assert_eq!(bins.ring_len(), 8);
        assert_eq!(bins.pending(), 0);
        assert_eq!(bins.vote(0), None);
        bins.seed(7, 15);
        assert_eq!(drain_all(&bins, 7), vec![15]);
    }

    #[test]
    fn clear_drops_pending_entries() {
        let mut bins = FrontierBins::new(2, 4);
        bins.seed(1, 3);
        bins.seed(2, 4);
        bins.clear();
        assert_eq!(bins.pending(), 0);
        assert_eq!(bins.vote(0), None);
    }
}
