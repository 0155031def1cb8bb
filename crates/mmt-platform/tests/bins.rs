//! Property tests for the contention-free frontier bins: the merge phase
//! preserves the multiset of pending relaxations, the vote is the global
//! minimum non-empty bucket, and generation-stamped dedup suppresses
//! duplicates within a drain without leaking suppression across
//! generations — for arbitrary lane counts, ring lengths and push
//! sequences.

use mmt_platform::FrontierBins;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

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

    /// Every pushed relaxation comes back out exactly once as a raw merge
    /// entry, in the bucket it was pushed to, regardless of which lane it
    /// landed in — and the merged frontier is its per-bucket dedup.
    #[test]
    fn merge_preserves_the_multiset_of_pending_relaxations(
        (lanes, ring, pushes) in scenario()
    ) {
        let bins = FrontierBins::new(lanes, ring, 64);
        push_by_lane(&bins, &pushes);
        prop_assert_eq!(bins.pending(), pushes.len());

        let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for &(b, v) in &pushes {
            model.entry(b).or_default().push(v);
        }
        let mut raw_total = 0usize;
        for b in 0..ring as u64 {
            let mut out = Vec::new();
            let raw = bins.drain_bucket(b, &mut out);
            raw_total += raw;
            let want = model.remove(&b).unwrap_or_default();
            prop_assert_eq!(raw, want.len(), "raw merge count, bucket {}", b);
            let got: BTreeSet<u32> = out.iter().copied().collect();
            prop_assert_eq!(got.len(), out.len(), "duplicate in merged frontier");
            let want_set: BTreeSet<u32> = want.into_iter().collect();
            prop_assert_eq!(got, want_set, "merged set, bucket {}", b);
        }
        prop_assert_eq!(raw_total, pushes.len());
        prop_assert_eq!(bins.pending(), 0);
    }

    /// Draining buckets in vote order: each vote is exactly the model's
    /// minimum non-empty bucket, until both agree everything is empty.
    #[test]
    fn vote_returns_the_global_min_nonempty_bucket(
        (lanes, ring, pushes) in scenario()
    ) {
        let bins = FrontierBins::new(lanes, ring, 64);
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
            let mut out = Vec::new();
            let raw = bins.drain_bucket(b, &mut out);
            prop_assert_eq!(raw, model.remove(&b).unwrap());
            from = b;
        }
    }

    /// Generation discipline: within one drain a vertex merges at most
    /// once (no duplicate settle per generation), and a vertex drained in
    /// an earlier generation is *not* suppressed when it legitimately
    /// re-enters a later one.
    #[test]
    fn dedup_is_per_generation_and_does_not_leak_across(
        rounds in proptest::collection::vec(
            proptest::collection::vec(0u32..32, 1..40), 1..8)
    ) {
        let ring = 4usize;
        let bins = FrontierBins::new(3, ring, 32);
        for (r, vertices) in rounds.iter().enumerate() {
            let bucket = r as u64;
            let items: Vec<(u64, u32)> =
                vertices.iter().map(|&v| (bucket, v)).collect();
            push_by_lane(&bins, &items);
            let mut out = Vec::new();
            bins.drain_bucket(bucket, &mut out);
            let got: BTreeSet<u32> = out.iter().copied().collect();
            prop_assert_eq!(got.len(), out.len(), "duplicate settle in round {}", r);
            let want: BTreeSet<u32> = vertices.iter().copied().collect();
            // Every distinct vertex pushed this round merges — including
            // any that already merged in a previous generation.
            prop_assert_eq!(got, want, "round {}", r);
        }
    }

    /// The merged frontier per bucket is independent of the lane count
    /// (the parallel layout is invisible to the serial merge) — the bins
    /// analogue of the kernels' cross-thread determinism.
    #[test]
    fn drained_sets_are_lane_count_invariant(
        (_, ring, pushes) in scenario(), lanes in 2usize..6
    ) {
        let one = FrontierBins::new(1, ring, 64);
        let many = FrontierBins::new(lanes, ring, 64);
        push_by_lane(&one, &pushes);
        push_by_lane(&many, &pushes);
        for b in 0..ring as u64 {
            let (mut a, mut c) = (Vec::new(), Vec::new());
            let raw_a = one.drain_bucket(b, &mut a);
            let raw_c = many.drain_bucket(b, &mut c);
            prop_assert_eq!(raw_a, raw_c, "raw count, bucket {}", b);
            a.sort_unstable();
            c.sort_unstable();
            prop_assert_eq!(a, c, "merged set, bucket {}", b);
        }
    }
}
