//! Building the `toVisit` set — the optimisation the paper's Table 6 is
//! about.
//!
//! Every visit-loop iteration of every CH node scans that node's children
//! for the ones (virtually) in the current bucket. Child counts are wildly
//! irregular ("between two and several hundred thousand"), and on the
//! MTA-2 the cost of *setting up* a parallel loop dwarfs the loop body for
//! small counts. The paper therefore picks, per loop, between a serial
//! loop, a single-processor parallel loop, and an all-processors parallel
//! loop, based on two experimentally chosen thresholds — an optimisation
//! worth ~2× end to end ("Thorup B" vs the naive always-parallel
//! "Thorup A").
//!
//! On commodity hardware the analogue of setting up a parallel loop is a
//! *scan phase* of the solve's parallel region (see [`crate::solver`]):
//! lane 0 posts it, every lane crosses the region's barrier twice, and
//! between the crossings each lane scans its share of the child list. The
//! analogue of the MTA's "single processor" middle tier is a scan cut into
//! at most two shares. The scan is fused: one pass yields both the
//! bucket's members and the minimum child `mind` (the solver needs both
//! every iteration).
//!
//! A parallel-tier scan cuts the list into chunks: two on the capped tier,
//! four per lane of at least 64 children each on the full tier. Each share
//! folds its run of chunks into one member list, and lane 0 folds the
//! shares in lane order; every fold step keeps the longer list first. A
//! scan cut into one share, as on one lane or inside a visit phase, runs
//! the whole fold inline. The member order is thus a function of the list
//! and the lane count alone, which keeps one-lane solves exactly
//! reproducible.

use mmt_graph::types::{Dist, INF};
use mmt_platform::atomic::saturating_shr;
use mmt_platform::{AtomicMinU64, EventCounters};

/// How the per-node child scan is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToVisitStrategy {
    /// Always a plain serial loop.
    Serial,
    /// Always a full parallel loop — the paper's naive "Thorup A".
    AlwaysParallel,
    /// Pick serial / capped-parallel / fully-parallel by child count — the
    /// paper's "Thorup B".
    Selective {
        /// At or above this many children, use capped (two-task)
        /// parallelism — the "single processor" tier.
        single_par_threshold: usize,
        /// At or above this many children, use every lane — the "all
        /// processors" tier.
        multi_par_threshold: usize,
    },
}

impl ToVisitStrategy {
    /// The thresholds we determined experimentally (the
    /// `a4_tovisit_thresholds` sweep; see `reproduce table6`): serial below
    /// 256 children, capped parallelism to 16k, every lane beyond.
    pub fn selective_default() -> Self {
        ToVisitStrategy::Selective {
            single_par_threshold: 256,
            multi_par_threshold: 16_384,
        }
    }

    /// How a scan of `len` children runs: `None` for a serial loop, or the
    /// most shares a parallel loop may cut it into.
    fn max_shares(self, len: usize) -> Option<usize> {
        match self {
            ToVisitStrategy::Serial => None,
            ToVisitStrategy::AlwaysParallel => Some(usize::MAX),
            ToVisitStrategy::Selective {
                single_par_threshold,
                multi_par_threshold,
            } => {
                if len >= multi_par_threshold {
                    Some(usize::MAX)
                } else if len >= single_par_threshold {
                    Some(2)
                } else {
                    None
                }
            }
        }
    }
}

impl Default for ToVisitStrategy {
    fn default() -> Self {
        Self::selective_default()
    }
}

/// Result of one fused child scan.
#[derive(Debug, PartialEq, Eq)]
pub struct ScanResult {
    /// Minimum `mind` over all children (`INF` if none or all done).
    pub min_mind: Dist,
    /// Children whose `mind` falls in `bucket` under `alpha`.
    pub tovisit: Vec<u32>,
}

/// Scans `children`, returning the minimum child `mind` and the members of
/// `bucket` (i.e. children with `mind >> alpha == bucket`), executed per
/// the strategy. This is the Rust shape of the paper's Figure 3 loop.
///
/// Allocates a fresh member vector per call; the solver's hot path uses
/// [`scan_children_into`] with a reused buffer instead.
pub fn scan_children(
    strategy: ToVisitStrategy,
    children: &[u32],
    mind: &[AtomicMinU64],
    alpha: u8,
    bucket: u64,
    counters: Option<&EventCounters>,
) -> ScanResult {
    let mut tovisit = Vec::new();
    let min_mind = scan_children_into(
        strategy,
        children,
        mind,
        alpha,
        bucket,
        counters,
        &mut tovisit,
    );
    ScanResult { min_mind, tovisit }
}

/// As [`scan_children`], but fills the caller's `out` buffer (cleared
/// first) instead of allocating one, returning the minimum child `mind`.
/// Runs on the calling thread, as one lane.
///
/// One buffer serves every phase of a visit loop — and, pooled on the
/// instance, every visit of every query — so a steady-state scan, serial
/// or parallel tier, performs no allocation at all.
pub fn scan_children_into(
    strategy: ToVisitStrategy,
    children: &[u32],
    mind: &[AtomicMinU64],
    alpha: u8,
    bucket: u64,
    counters: Option<&EventCounters>,
    out: &mut Vec<u32>,
) -> Dist {
    let scan = Scan {
        children,
        mind,
        alpha,
        bucket,
    };
    scan.inline(strategy, counters, out)
}

/// One child scan's inputs.
#[derive(Clone, Copy)]
pub(crate) struct Scan<'a> {
    pub(crate) children: &'a [u32],
    pub(crate) mind: &'a [AtomicMinU64],
    pub(crate) alpha: u8,
    pub(crate) bucket: u64,
}

impl Scan<'_> {
    /// The gather on one lane: see [`scan_children_into`].
    pub(crate) fn inline(
        self,
        strategy: ToVisitStrategy,
        counters: Option<&EventCounters>,
        out: &mut Vec<u32>,
    ) -> Dist {
        self.gather(strategy, 1, counters, out, |_, _| {
            unreachable!("a one-lane scan is one share")
        })
    }

    /// The gather as lane 0 of a `lanes`-lane solve runs it, into `out`
    /// (cleared first): a serial loop, or a parallel-tier loop cut for
    /// `lanes` lanes. A cut into one share runs inline; one into more runs
    /// through `shares`, which scans share `p` of the cut on lane `p` and
    /// merges the shares into `out` (see [`merge`]), returning their
    /// minimum. The strategy alone decides which counter the gather
    /// bumps.
    pub(crate) fn gather(
        self,
        strategy: ToVisitStrategy,
        lanes: usize,
        counters: Option<&EventCounters>,
        out: &mut Vec<u32>,
        shares: impl FnOnce(Cut, &mut Vec<u32>) -> Dist,
    ) -> Dist {
        out.clear();
        let Some(max_shares) = strategy.max_shares(self.children.len()) else {
            if let Some(ev) = counters {
                ev.serial_loops.bump();
            }
            return self.chunk(self.children, out);
        };
        if let Some(ev) = counters {
            ev.parallel_loop_setups.bump();
        }
        let cut = Cut::new(self.children.len(), max_shares, lanes);
        if cut.parts > 1 {
            shares(cut, out)
        } else {
            self.share(cut, 0, out)
        }
    }

    /// Appends the members among `chunk` to `out`; returns their minimum
    /// `mind`.
    fn chunk(self, chunk: &[u32], out: &mut Vec<u32>) -> Dist {
        let mut min_mind = INF;
        for &c in chunk {
            let m = self.mind[c as usize].load();
            min_mind = min_mind.min(m);
            if m != INF && saturating_shr(m, self.alpha as u32) == self.bucket {
                out.push(c);
            }
        }
        min_mind
    }

    /// Folds share `part` of `cut` into `out`, chunk by chunk (see
    /// [`fold`]); returns its minimum `mind`.
    pub(crate) fn share(self, cut: Cut, part: usize, out: &mut Vec<u32>) -> Dist {
        let len = self.children.len();
        let chunks = len.div_ceil(cut.chunk);
        let (lo, hi) = (chunks * part / cut.parts, chunks * (part + 1) / cut.parts);
        let mut min_mind = INF;
        for c in lo..hi {
            let held = out.len();
            let chunk = &self.children[c * cut.chunk..((c + 1) * cut.chunk).min(len)];
            let chunk_min = self.chunk(chunk, out);
            min_mind = fold(out, held, min_mind, chunk_min);
        }
        min_mind
    }
}

/// How a parallel-tier scan is cut: chunks of `chunk` children, folded
/// into `parts` shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cut {
    chunk: usize,
    /// Shares: lane `p < parts` scans share `p`.
    pub(crate) parts: usize,
}

impl Cut {
    /// The cut of `len` children into at most `max_shares` shares on
    /// `lanes` lanes.
    fn new(len: usize, max_shares: usize, lanes: usize) -> Self {
        // The full tier cuts four chunks per lane, of at least 64
        // children; the capped tier (the MTA's single processor) cuts at
        // most two chunks whatever the lane count.
        let chunk = if max_shares == usize::MAX {
            (len / (lanes * 4).max(1)).max(64)
        } else {
            len.div_ceil(max_shares).max(1)
        };
        Cut {
            chunk,
            parts: lanes.min(len.div_ceil(chunk)).max(1),
        }
    }
}

/// Appends a share's members, whose minimum is `share_min`, to the `out`
/// members gathered so far, whose minimum is `min_mind`, as lane 0 folds
/// the shares of a scan phase; returns the folded minimum.
pub(crate) fn merge(out: &mut Vec<u32>, min_mind: Dist, share: &[u32], share_min: Dist) -> Dist {
    let held = out.len();
    out.extend_from_slice(share);
    fold(out, held, min_mind, share_min)
}

/// One fold step over `out = held ++ appended`: the longer list goes
/// first (one-lane work counters pin the visit order this gives), and the
/// step reports the minimum of both lists.
fn fold(out: &mut [u32], held: usize, held_min: Dist, appended_min: Dist) -> Dist {
    if held < out.len() - held {
        out.rotate_left(held);
    }
    held_min.min(appended_min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minds(values: &[u64]) -> Vec<AtomicMinU64> {
        values.iter().map(|&v| AtomicMinU64::new(v)).collect()
    }

    fn ids(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn all_strategies_agree() {
        let mind = minds(&[4, 5, 8, 12, INF, 7, 4]);
        let children = ids(7);
        // alpha=2: buckets 1,1,2,3,-,1,1
        let want_members = vec![0u32, 1, 5, 6];
        for strategy in [
            ToVisitStrategy::Serial,
            ToVisitStrategy::AlwaysParallel,
            ToVisitStrategy::selective_default(),
            ToVisitStrategy::Selective {
                single_par_threshold: 2,
                multi_par_threshold: 4,
            },
        ] {
            let mut r = scan_children(strategy, &children, &mind, 2, 1, None);
            r.tovisit.sort_unstable();
            assert_eq!(r.min_mind, 4, "{strategy:?}");
            assert_eq!(r.tovisit, want_members, "{strategy:?}");
        }
    }

    #[test]
    fn empty_children() {
        let mind = minds(&[]);
        let r = scan_children(ToVisitStrategy::Serial, &[], &mind, 0, 0, None);
        assert_eq!(r.min_mind, INF);
        assert!(r.tovisit.is_empty());
    }

    #[test]
    fn inf_children_excluded() {
        let mind = minds(&[INF, INF]);
        let r = scan_children(ToVisitStrategy::AlwaysParallel, &ids(2), &mind, 3, 0, None);
        assert_eq!(r.min_mind, INF);
        assert!(r.tovisit.is_empty());
    }

    #[test]
    fn saturating_alpha() {
        // alpha = 64 (synthetic root): every finite mind lands in bucket 0.
        let mind = minds(&[1, u64::MAX - 1, INF]);
        let r = scan_children(ToVisitStrategy::Serial, &ids(3), &mind, 64, 0, None);
        assert_eq!(r.tovisit, vec![0, 1]);
    }

    #[test]
    fn counters_record_loop_kinds() {
        let ev = EventCounters::new();
        let mind = minds(&[1; 10]);
        let children = ids(10);
        scan_children(ToVisitStrategy::Serial, &children, &mind, 0, 1, Some(&ev));
        assert_eq!(ev.serial_loops.get(), 1);
        scan_children(
            ToVisitStrategy::AlwaysParallel,
            &children,
            &mind,
            0,
            1,
            Some(&ev),
        );
        assert_eq!(ev.parallel_loop_setups.get(), 1);
        // Selective with tiny thresholds goes parallel; with huge, serial.
        scan_children(
            ToVisitStrategy::Selective {
                single_par_threshold: 1,
                multi_par_threshold: 5,
            },
            &children,
            &mind,
            0,
            1,
            Some(&ev),
        );
        assert_eq!(ev.parallel_loop_setups.get(), 2);
        scan_children(
            ToVisitStrategy::selective_default(),
            &children,
            &mind,
            0,
            1,
            Some(&ev),
        );
        assert_eq!(ev.serial_loops.get(), 2);
    }

    #[test]
    fn scan_into_reuses_the_buffer_without_growth() {
        let mind = minds(&[4, 5, 8, 12, INF, 7, 4]);
        let children = ids(7);
        let mut buf = Vec::new();
        let m = scan_children_into(
            ToVisitStrategy::Serial,
            &children,
            &mind,
            2,
            1,
            None,
            &mut buf,
        );
        assert_eq!(m, 4);
        buf.sort_unstable();
        assert_eq!(buf, vec![0, 1, 5, 6]);
        let warm_cap = buf.capacity();
        // Second phase over the same children: same members, no regrowth.
        let m = scan_children_into(
            ToVisitStrategy::Serial,
            &children,
            &mind,
            2,
            1,
            None,
            &mut buf,
        );
        assert_eq!(m, 4);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.capacity(), warm_cap);
        // And the wrapper agrees with the into-variant on every strategy.
        for strategy in [
            ToVisitStrategy::AlwaysParallel,
            ToVisitStrategy::Selective {
                single_par_threshold: 2,
                multi_par_threshold: 4,
            },
        ] {
            let m = scan_children_into(strategy, &children, &mind, 2, 1, None, &mut buf);
            let mut r = scan_children(strategy, &children, &mind, 2, 1, None);
            buf.sort_unstable();
            r.tovisit.sort_unstable();
            assert_eq!(m, r.min_mind, "{strategy:?}");
            assert_eq!(buf, r.tovisit, "{strategy:?}");
        }
    }

    #[test]
    fn large_scan_parallel_correct() {
        let vals: Vec<u64> = (0..20_000u64).map(|i| (i * 37) % 4096).collect();
        let mind = minds(&vals);
        let children = ids(vals.len());
        let r = scan_children(
            ToVisitStrategy::AlwaysParallel,
            &children,
            &mind,
            5,
            3,
            None,
        );
        let want: Vec<u32> = (0..vals.len() as u32)
            .filter(|&i| vals[i as usize] >> 5 == 3)
            .collect();
        let mut got = r.tovisit;
        got.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(r.min_mind, 0);
    }

    /// A fork/join reduce over `parts` contiguous runs of `chunk`-sized
    /// chunks, whose step puts the longer list first and keeps the minimum
    /// of both: the reference the shares and their merge must reproduce,
    /// member order and reported minimum alike.
    fn reduced(scan: Scan<'_>, chunk: usize, parts: usize) -> (Dist, Vec<u32>) {
        let step = |mut a: (Dist, Vec<u32>), mut b: (Dist, Vec<u32>)| {
            let min = a.0.min(b.0);
            if a.1.len() < b.1.len() {
                std::mem::swap(&mut a, &mut b);
            }
            a.1.append(&mut b.1);
            (min, a.1)
        };
        let chunks: Vec<(Dist, Vec<u32>)> = scan
            .children
            .chunks(chunk)
            .map(|c| {
                let mut members = Vec::new();
                (scan.chunk(c, &mut members), members)
            })
            .collect();
        let n = chunks.len();
        (0..parts)
            .map(|p| {
                chunks[n * p / parts..n * (p + 1) / parts]
                    .iter()
                    .cloned()
                    .fold((INF, Vec::new()), step)
            })
            .fold((INF, Vec::new()), step)
    }

    #[test]
    fn shares_merged_in_lane_order_reproduce_the_reduce() {
        let vals: Vec<u64> = (0..3_000u64).map(|i| (i * 7_919) % 1_031).collect();
        let mind = minds(&vals);
        for len in [1usize, 63, 64, 65, 300, 1_000, 3_000] {
            let children: Vec<u32> = (0..len as u32).rev().collect();
            for (bucket, alpha) in [(3u64, 6u8), (0, 4), (15, 6)] {
                let scan = Scan {
                    children: &children,
                    mind: &mind,
                    alpha,
                    bucket,
                };
                for max_shares in [2, usize::MAX] {
                    for lanes in 1..=4 {
                        let cut = Cut::new(len, max_shares, lanes);
                        let (mut out, mut min_mind) = (Vec::new(), INF);
                        for part in 0..cut.parts {
                            let mut share = Vec::new();
                            let share_min = scan.share(cut, part, &mut share);
                            min_mind = merge(&mut out, min_mind, &share, share_min);
                        }
                        let at = format!("len {len} bucket {bucket} {max_shares} {lanes} lanes");
                        assert_eq!((min_mind, out), reduced(scan, cut.chunk, cut.parts), "{at}");
                    }
                }
            }
        }
    }
}
