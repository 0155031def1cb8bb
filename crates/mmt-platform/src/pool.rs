//! Thread-pool control: the commodity stand-in for "running on p MTA-2
//! processors".
//!
//! The paper's scaling studies (Tables 3–4, Figure 4) vary the number of
//! MTA-2 processors from 1 to 40. We emulate that with dedicated rayon pools
//! of `p` threads. On hosts with fewer physical cores than `p` the extra
//! threads are oversubscribed — the sweep still exercises all the
//! concurrency structure, it just stops measuring genuine speedup past the
//! physical core count (EXPERIMENTS.md records the host configuration).

/// Number of hardware threads available on this host.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The thread budget installed on the calling thread: the width of the
/// innermost [`with_pool`], or the hardware's thread count outside any
/// pool. A kernel sizes its parallel region by it.
pub fn thread_budget() -> usize {
    rayon::current_num_threads()
}

/// Runs `f` inside a dedicated pool of `threads` workers (clamped to at
/// least 1) and returns its result. All rayon parallel iterators inside `f`
/// execute on that pool.
pub fn with_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build rayon pool")
        .install(f)
}

/// The processor counts a scaling sweep should visit: powers of two from 1 up
/// to `max`, always including `max` itself (mirrors the paper's 1..40 x-axis).
pub fn sweep_points(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut pts = Vec::new();
    let mut p = 1;
    while p < max {
        pts.push(p);
        p *= 2;
    }
    pts.push(max);
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn with_pool_uses_requested_threads() {
        let seen = with_pool(3, rayon::current_num_threads);
        assert_eq!(seen, 3);
    }

    #[test]
    fn with_pool_runs_parallel_work() {
        let total: u64 = with_pool(4, || (0..1000u64).into_par_iter().sum());
        assert_eq!(total, 999 * 1000 / 2);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(with_pool(0, rayon::current_num_threads), 1);
    }

    #[test]
    fn sweep_points_cover_max() {
        assert_eq!(sweep_points(1), vec![1]);
        assert_eq!(sweep_points(4), vec![1, 2, 4]);
        assert_eq!(sweep_points(40), vec![1, 2, 4, 8, 16, 32, 40]);
        assert_eq!(sweep_points(0), vec![1]);
    }

    #[test]
    fn available_threads_positive() {
        assert!(available_threads() >= 1);
    }
}
