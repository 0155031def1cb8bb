//! Property tests for the contention-free frontier bins: per-lane drains
//! give back the multiset of pending relaxations, bucket by bucket and
//! duplicates included, the vote is the global minimum non-empty bucket,
//! and the drained sets do not depend on the lane count — for arbitrary
//! lane counts, ring lengths and push sequences.

use mmt_platform::FrontierBins;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Pushes `items` as a relax phase does: one contiguous chunk per lane.
fn push_by_lane(bins: &FrontierBins, items: &[(u64, u32)]) {
    let lanes = bins.lane_count();
    for lane in 0..lanes {
        let mut bin = bins.lane(lane);
        for &(b, v) in &items[items.len() * lane / lanes..items.len() * (lane + 1) / lanes] {
            bin.push(b, v);
        }
    }
}

/// Drains `bucket` as an extract phase does, each lane its own bin, and
/// returns the entries in lane order.
fn drain_by_lane(bins: &FrontierBins, bucket: u64) -> Vec<u32> {
    (0..bins.lane_count())
        .flat_map(|lane| bins.lane(lane).drain(bucket).collect::<Vec<_>>())
        .collect()
}

/// Arbitrary (lanes, ring, pushes) with every pushed bucket inside the
/// cyclic window `[0, ring)` — the invariant the kernels maintain.
fn scenario() -> impl Strategy<Value = (usize, usize, Vec<(u64, u32)>)> {
    (1usize..6, 2usize..12).prop_flat_map(|(lanes, ring)| {
        let push = (0..ring as u64, 0u32..64);
        (
            Just(lanes),
            Just(ring),
            proptest::collection::vec(push, 0..200),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every pushed relaxation comes back out exactly once, in the bucket
    /// it was pushed to, regardless of which lane it landed in, and
    /// `held` counts each bucket's entries before the drain.
    #[test]
    fn merge_preserves_the_multiset_of_pending_relaxations(
        (lanes, ring, pushes) in scenario()
    ) {
        let bins = FrontierBins::new(lanes, ring);
        push_by_lane(&bins, &pushes);
        prop_assert_eq!(bins.pending(), pushes.len());

        let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for &(b, v) in &pushes {
            model.entry(b).or_default().push(v);
        }
        let mut drained = 0usize;
        for b in 0..ring as u64 {
            let mut want = model.remove(&b).unwrap_or_default();
            prop_assert_eq!(bins.held(b), want.len(), "held, bucket {}", b);
            let mut got = drain_by_lane(&bins, b);
            drained += got.len();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "drained multiset, bucket {}", b);
            prop_assert_eq!(bins.held(b), 0);
        }
        prop_assert_eq!(drained, pushes.len());
        prop_assert_eq!(bins.pending(), 0);
    }

    /// Draining buckets in vote order: each vote is exactly the model's
    /// minimum non-empty bucket, until both agree everything is empty.
    #[test]
    fn vote_returns_the_global_min_nonempty_bucket(
        (lanes, ring, pushes) in scenario()
    ) {
        let bins = FrontierBins::new(lanes, ring);
        push_by_lane(&bins, &pushes);
        let mut model: BTreeMap<u64, usize> = BTreeMap::new();
        for &(b, _) in &pushes {
            *model.entry(b).or_default() += 1;
        }
        let mut from = 0u64;
        loop {
            let want = model.keys().next().copied();
            prop_assert_eq!(bins.vote(from), want);
            let Some(b) = want else { break };
            prop_assert_eq!(drain_by_lane(&bins, b).len(), model.remove(&b).unwrap());
            from = b;
        }
    }

    /// What the lanes drain per bucket, taken in lane order, is the push
    /// order whatever the lane count (the parallel layout is invisible to
    /// the lanes' concatenated lists) — the bins analogue of the kernels'
    /// cross-thread determinism.
    #[test]
    fn drained_sets_are_lane_count_invariant(
        (_, ring, pushes) in scenario(), lanes in 2usize..6
    ) {
        let one = FrontierBins::new(1, ring);
        let many = FrontierBins::new(lanes, ring);
        push_by_lane(&one, &pushes);
        push_by_lane(&many, &pushes);
        for b in 0..ring as u64 {
            prop_assert_eq!(drain_by_lane(&one, b), drain_by_lane(&many, b), "bucket {}", b);
        }
    }
}
