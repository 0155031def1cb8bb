//! The host-drift probe: a fixed DRAM pointer chase.
//!
//! When two sets of runs disagree, this tells a slower host (CPU steal,
//! a noisy neighbour's memory traffic) apart from a slower program. It
//! uses no workspace code and is never gated on. It runs in its own
//! process so its buffer never counts toward a workload's peak RSS.

use std::time::Instant;

/// 448 MiB: more than four times the 105 MiB last-level cache of the
/// reference host (Xeon, 2 vCPUs under KVM), so nearly every step misses.
const BYTES: usize = 448 << 20;
/// One pointer per 64-byte line.
const LINE_WORDS: usize = 8;
const STEPS: usize = 1 << 20;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Nanoseconds per dependent load, chasing one fixed random cycle over
/// `BYTES` of cache lines.
pub fn chase_ns() -> f64 {
    let lines = BYTES / (LINE_WORDS * 8);
    // Sattolo's shuffle: `next[i]` is a single cycle through every line.
    let mut next: Vec<u32> = (0..lines as u32).collect();
    let mut rng = 0x2007_u64;
    for i in (1..lines).rev() {
        let j = (splitmix(&mut rng) % i as u64) as usize;
        next.swap(i, j);
    }
    let mut mem = vec![0u64; lines * LINE_WORDS];
    for (i, &n) in next.iter().enumerate() {
        mem[i * LINE_WORDS] = n as u64;
    }
    drop(next);
    let mut at = 0usize;
    let start = Instant::now();
    for _ in 0..STEPS {
        at = mem[at * LINE_WORDS] as usize;
    }
    let ns = start.elapsed().as_nanos() as f64 / STEPS as f64;
    std::hint::black_box(at);
    ns
}
