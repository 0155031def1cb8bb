//! The shared relax inner loop of the stepping loop.
//!
//! A relax phase spends its time in one tight loop: walk a vertex's
//! adjacency slice, compute `d(u) + w`, `fetch_min` the target's distance
//! slot. The loop's cost is dominated by the dependent random load of
//! `dist[target]`, so the two micro-optimisations that matter are
//!
//! * **read-ahead** — touch the distance slot the loop will `fetch_min`
//!   `AHEAD` iterations later, pulling its cache line while the current
//!   relaxation's miss is in flight. The workspace forbids `unsafe`, so
//!   this is a real (relaxed) load through [`std::hint::black_box`]
//!   rather than a prefetch intrinsic — the closest portable spelling;
//! * **unrolling** — the body is stamped out four relaxations at a time
//!   so the bounds/induction overhead amortises and the read-ahead loads
//!   from consecutive iterations overlap.
//!
//! Both are behavioural no-ops: same `fetch_min` sequence per arc, same
//! improvements, and counter accounting is untouched (`arcs_scanned`
//! counts arcs, not read-ahead touches). [`relax_arcs`] lowers
//! [`AtomicMinU64`] cells, the one distance cell of the stepping loop.

use mmt_graph::types::{Dist, VertexId, Weight};
use mmt_platform::AtomicMinU64;

/// Read-ahead depth of every stepping policy: deep enough to cover an L2
/// miss at typical adjacency lengths, shallow enough that short slices
/// still get some overlap. EXPERIMENTS.md records 8 as the knee for
/// Δ-stepping.
pub const RELAX_AHEAD: usize = 8;

/// One relaxation at index `i`, with an `AHEAD`-deep read-ahead touch of
/// the distance slot a later iteration will `fetch_min`.
#[inline(always)]
fn relax_one<const AHEAD: usize>(
    dist: &[AtomicMinU64],
    du: Dist,
    ts: &[VertexId],
    ws: &[Weight],
    i: usize,
    on_improve: &mut impl FnMut(VertexId, Dist),
) {
    if AHEAD > 0 && i + AHEAD < ts.len() {
        std::hint::black_box(dist[ts[i + AHEAD] as usize].load());
    }
    let nd = du + ws[i] as Dist;
    if dist[ts[i] as usize].fetch_min(nd) {
        on_improve(ts[i], nd);
    }
}

/// Relaxes every arc `(ts[i], ws[i])` out of a vertex at distance `du`,
/// calling `on_improve(target, new_dist)` for each strict `fetch_min`
/// win. The loop is unrolled ×4 with an `AHEAD`-deep read-ahead; `AHEAD
/// = 0` compiles to the plain loop.
#[inline]
pub fn relax_arcs<const AHEAD: usize>(
    dist: &[AtomicMinU64],
    du: Dist,
    ts: &[VertexId],
    ws: &[Weight],
    mut on_improve: impl FnMut(VertexId, Dist),
) {
    debug_assert_eq!(ts.len(), ws.len());
    let len = ts.len();
    let mut i = 0;
    while i + 4 <= len {
        relax_one::<AHEAD>(dist, du, ts, ws, i, &mut on_improve);
        relax_one::<AHEAD>(dist, du, ts, ws, i + 1, &mut on_improve);
        relax_one::<AHEAD>(dist, du, ts, ws, i + 2, &mut on_improve);
        relax_one::<AHEAD>(dist, du, ts, ws, i + 3, &mut on_improve);
        i += 4;
    }
    while i < len {
        relax_one::<AHEAD>(dist, du, ts, ws, i, &mut on_improve);
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_graph::types::INF;

    fn cells(vals: &[Dist]) -> Vec<AtomicMinU64> {
        vals.iter().map(|&v| AtomicMinU64::new(v)).collect()
    }

    /// The unrolled loop visits every arc exactly once, in order, and
    /// reports exactly the strict improvements — across lengths that hit
    /// the unrolled body, the scalar tail, and both.
    #[test]
    fn unroll_and_tail_cover_every_arc() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 11] {
            let ts: Vec<VertexId> = (0..len as u32).collect();
            let ws: Vec<Weight> = (0..len as u32).map(|i| i + 1).collect();
            let dist = cells(&vec![INF; len]);
            let mut improved = Vec::new();
            relax_arcs::<0>(&dist, 10, &ts, &ws, |v, nd| improved.push((v, nd)));
            let want: Vec<(VertexId, Dist)> =
                (0..len as u32).map(|i| (i, 10 + i as Dist + 1)).collect();
            assert_eq!(improved, want, "len={len}");
            for (i, d) in dist.iter().enumerate() {
                assert_eq!(d.load(), 10 + i as Dist + 1);
            }
        }
    }

    /// Read-ahead depth changes nothing observable: same winners, same
    /// final distances, at every length parity.
    #[test]
    fn readahead_is_behaviourally_inert() {
        for len in [1usize, 4, 6, 9, 16, 33] {
            let ts: Vec<VertexId> = (0..len as u32).map(|i| i % 5).collect();
            let ws: Vec<Weight> = (0..len as u32).map(|i| (i * 7) % 13 + 1).collect();
            let plain = cells(&[100; 5]);
            let ra = cells(&[100; 5]);
            let mut a = Vec::new();
            let mut b = Vec::new();
            relax_arcs::<0>(&plain, 50, &ts, &ws, |v, nd| a.push((v, nd)));
            relax_arcs::<RELAX_AHEAD>(&ra, 50, &ts, &ws, |v, nd| b.push((v, nd)));
            assert_eq!(a, b, "len={len}");
            for (p, r) in plain.iter().zip(ra.iter()) {
                assert_eq!(p.load(), r.load());
            }
        }
    }
}
