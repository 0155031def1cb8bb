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
//! On commodity hardware the analogous costs are rayon's fork/join setup
//! vs a plain iterator, and the analogue of the MTA's "single processor"
//! middle tier is parallelism capped at two tasks. The scan is fused: one
//! pass yields both the bucket's members and the minimum child `mind`
//! (the solver needs both every iteration).

use mmt_graph::types::{Dist, INF};
use mmt_platform::atomic::saturating_shr;
use mmt_platform::{AtomicMinU64, EventCounters};
use rayon::prelude::*;

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
        /// At or above this many children, use the full rayon pool — the
        /// "all processors" tier.
        multi_par_threshold: usize,
    },
}

impl ToVisitStrategy {
    /// The thresholds we determined experimentally (the
    /// `a4_tovisit_thresholds` sweep; see `reproduce table6`): serial below
    /// 256 children, capped parallelism to 16k, full pool beyond.
    pub fn selective_default() -> Self {
        ToVisitStrategy::Selective {
            single_par_threshold: 256,
            multi_par_threshold: 16_384,
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
///
/// One buffer serves every phase of a visit loop — and, pooled on the
/// instance, every visit of every query — so the steady-state serial scan
/// performs no allocation at all. Parallel-tier scans still build per-chunk
/// intermediates (fork/join needs owned results to reduce); those only run
/// on child lists big enough to amortise them.
pub fn scan_children_into(
    strategy: ToVisitStrategy,
    children: &[u32],
    mind: &[AtomicMinU64],
    alpha: u8,
    bucket: u64,
    counters: Option<&EventCounters>,
    out: &mut Vec<u32>,
) -> Dist {
    out.clear();
    let inspect = |&c: &u32| -> (Dist, Option<u32>) {
        let m = mind[c as usize].load();
        let member = m != INF && saturating_shr(m, alpha as u32) == bucket;
        (m, member.then_some(c))
    };
    // Resolve the selective strategy to a concrete tier for this list.
    let max_tasks = match strategy {
        ToVisitStrategy::Serial => None,
        ToVisitStrategy::AlwaysParallel => Some(usize::MAX),
        ToVisitStrategy::Selective {
            single_par_threshold,
            multi_par_threshold,
        } => {
            if children.len() >= multi_par_threshold {
                Some(usize::MAX)
            } else if children.len() >= single_par_threshold {
                Some(2)
            } else {
                None
            }
        }
    };
    match max_tasks {
        None => {
            if let Some(ev) = counters {
                ev.serial_loops.bump();
            }
            let mut min_mind = INF;
            for c in children {
                let (m, member) = inspect(c);
                min_mind = min_mind.min(m);
                if let Some(c) = member {
                    out.push(c);
                }
            }
            min_mind
        }
        Some(max_tasks) => {
            if let Some(ev) = counters {
                ev.parallel_loop_setups.bump();
            }
            let mut r = scan_parallel(children, inspect, max_tasks);
            if out.capacity() == 0 {
                // Cold buffer: keep the scan's own vector, it is warm.
                *out = r.tovisit;
            } else {
                out.append(&mut r.tovisit);
            }
            r.min_mind
        }
    }
}

fn scan_serial(children: &[u32], inspect: impl Fn(&u32) -> (Dist, Option<u32>)) -> ScanResult {
    let mut min_mind = INF;
    let mut tovisit = Vec::new();
    for c in children {
        let (m, member) = inspect(c);
        min_mind = min_mind.min(m);
        if let Some(c) = member {
            tovisit.push(c);
        }
    }
    ScanResult { min_mind, tovisit }
}

fn scan_parallel(
    children: &[u32],
    inspect: impl Fn(&u32) -> (Dist, Option<u32>) + Sync + Send,
    max_tasks: usize,
) -> ScanResult {
    // `max_tasks == 2` emulates the MTA's single-processor tier: the scan
    // splits into at most two chunks regardless of pool width.
    let chunk = if max_tasks == usize::MAX {
        (children.len() / (rayon::current_num_threads() * 4).max(1)).max(64)
    } else {
        children.len().div_ceil(max_tasks).max(1)
    };
    children
        .par_chunks(chunk)
        .map(|chunk| scan_serial(chunk, &inspect))
        .reduce(
            || ScanResult {
                min_mind: INF,
                tovisit: Vec::new(),
            },
            |mut a, mut b| {
                a.min_mind = a.min_mind.min(b.min_mind);
                // Keep deterministic-ish ordering cheap: append.
                if a.tovisit.len() < b.tovisit.len() {
                    std::mem::swap(&mut a, &mut b);
                }
                a.tovisit.append(&mut b.tovisit);
                a
            },
        )
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
}
