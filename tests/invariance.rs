//! Metamorphic tests: transformations of the input with a known effect on
//! the output, applied to every engine. These catch bug classes that
//! oracle comparison can miss (e.g. systematic off-by-one in bucket
//! shifts, which scaling by powers of two would expose).

use mmt_sssp::prelude::*;
use proptest::prelude::*;

fn arb_graph_and_source() -> impl Strategy<Value = (EdgeList, u32)> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 1u32..200).prop_map(|(u, v, w)| Edge::new(u, v, w));
        (
            proptest::collection::vec(edge, 0..120).prop_map(move |edges| EdgeList { n, edges }),
            0..n as u32,
        )
    })
}

fn thorup(el: &EdgeList, s: u32) -> Vec<Dist> {
    let g = CsrGraph::from_edge_list(el);
    let ch = build_parallel(el);
    ThorupSolver::new(&g, &ch).solve(s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scaling every weight by k scales every finite distance by k.
    /// Powers of two shift the whole Component Hierarchy by log2(k) levels,
    /// so this exercises the bucket arithmetic end to end.
    #[test]
    fn weight_scaling_scales_distances((el, s) in arb_graph_and_source(), k in 1u32..9) {
        let base = thorup(&el, s);
        let scaled_el = EdgeList {
            n: el.n,
            edges: el.edges.iter().map(|e| Edge::new(e.u, e.v, e.w * k)).collect(),
        };
        let scaled = thorup(&scaled_el, s);
        for (a, b) in base.iter().zip(&scaled) {
            if *a == INF {
                prop_assert_eq!(*b, INF);
            } else {
                prop_assert_eq!(*b, *a * k as u64);
            }
        }
    }

    /// Relabelling vertices by a permutation permutes the distances.
    #[test]
    fn vertex_permutation_permutes_distances((el, s) in arb_graph_and_source(), seed in 0u64..1000) {
        // Fisher-Yates from a deterministic LCG keyed by `seed`.
        let n = el.n;
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for i in (1..n).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (x >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let permuted = EdgeList {
            n,
            edges: el.edges.iter()
                .map(|e| Edge::new(perm[e.u as usize], perm[e.v as usize], e.w))
                .collect(),
        };
        let base = thorup(&el, s);
        let moved = thorup(&permuted, perm[s as usize]);
        for v in 0..n {
            prop_assert_eq!(base[v], moved[perm[v] as usize], "vertex {}", v);
        }
    }

    /// Adding an edge never increases any distance, and lowers at most by
    /// the detour through it.
    #[test]
    fn edge_insertion_is_monotone((el, s) in arb_graph_and_source(), u in 0u32..40, v in 0u32..40, w in 1u32..100) {
        let (u, v) = (u % el.n as u32, v % el.n as u32);
        let base = thorup(&el, s);
        let mut bigger = el.clone();
        bigger.push(u, v, w);
        let after = thorup(&bigger, s);
        for i in 0..el.n {
            prop_assert!(after[i] <= base[i], "distance increased at {}", i);
        }
        // The only new paths go through (u, v): the improvement at v is
        // bounded by d(u) + w (and symmetrically).
        if base[u as usize] != INF {
            prop_assert!(after[v as usize] <= base[u as usize] + w as u64);
        }
    }

    /// The serial configuration and all baselines agree with the parallel
    /// solver on the same arbitrary input (belt over the per-crate
    /// suspenders).
    #[test]
    fn every_engine_agrees((el, s) in arb_graph_and_source()) {
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_parallel(&el);
        let want = dijkstra(&g, s);
        prop_assert_eq!(&ThorupSolver::new(&g, &ch).solve(s), &want);
        prop_assert_eq!(
            &ThorupSolver::new(&g, &ch)
                .with_config(ThorupConfig::serial())
                .solve(s),
            &want
        );
        prop_assert_eq!(&goldberg_sssp(&g, s), &want);
        prop_assert_eq!(&bellman_ford(&g, s), &want);
        prop_assert_eq!(&delta_stepping(&g, s, DeltaConfig::auto(&g)), &want);
    }
}
