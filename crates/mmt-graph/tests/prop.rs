//! Property tests for the graph substrate: CSR symmetry, DIMACS and
//! edge-list round trips, preparation-pass invariants, and shortest-path
//! tree validity.

use mmt_graph::builder::{largest_component, Prepare};
use mmt_graph::dimacs;
use mmt_graph::paths::build_tree;
use mmt_graph::types::{Edge, EdgeList, INF};
use mmt_graph::CsrGraph;
use proptest::prelude::*;

fn arb_edge_list() -> impl Strategy<Value = EdgeList> {
    (1usize..50).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 1u32..1000).prop_map(|(u, v, w)| Edge::new(u, v, w));
        proptest::collection::vec(edge, 0..150).prop_map(move |edges| EdgeList { n, edges })
    })
}

fn sorted_canon(el: &EdgeList) -> Vec<Edge> {
    let mut v: Vec<Edge> = el.edges.iter().map(|e| e.canonical()).collect();
    v.sort_by_key(|e| (e.u, e.v, e.w));
    v
}

proptest! {
    #[test]
    fn csr_is_symmetric_and_degree_consistent(el in arb_edge_list()) {
        let g = CsrGraph::from_edge_list(&el);
        prop_assert_eq!(g.num_arcs(), 2 * el.m());
        prop_assert_eq!(g.total_degree(), g.num_arcs());
        for u in g.vertices() {
            for (v, w) in g.edges_from(u) {
                prop_assert!(g.edges_from(v).any(|(x, xw)| x == u && xw == w));
            }
        }
    }

    #[test]
    fn csr_edge_list_round_trip(el in arb_edge_list()) {
        let g = CsrGraph::from_edge_list(&el);
        let back = g.to_edge_list();
        prop_assert_eq!(sorted_canon(&el), sorted_canon(&back));
    }

    #[test]
    fn dimacs_round_trip(el in arb_edge_list()) {
        let mut buf = Vec::new();
        dimacs::write_gr(&mut buf, &el, "prop").unwrap();
        let back = dimacs::read_gr(&buf[..]).unwrap();
        prop_assert_eq!(back.n, el.n);
        prop_assert_eq!(sorted_canon(&el), sorted_canon(&back));
    }

    #[test]
    fn prepare_simple_yields_simple_graph(el in arb_edge_list()) {
        let out = Prepare::simple().apply(&el);
        let mut seen = std::collections::HashSet::new();
        for e in &out.edges {
            prop_assert!(!e.is_self_loop());
            prop_assert!(seen.insert((e.u, e.v)), "duplicate pair after dedup");
            // kept weight is the minimum among the originals for that pair
            let min = el.edges.iter()
                .filter(|o| {
                    let o = o.canonical();
                    (o.u, o.v) == (e.u, e.v)
                })
                .map(|o| o.w)
                .min()
                .unwrap();
            prop_assert_eq!(e.w, min);
        }
    }

    #[test]
    fn largest_component_is_connected_and_maximal(el in arb_edge_list()) {
        let lc = largest_component(&el);
        prop_assert!(lc.edges.n >= 1);
        prop_assert!(lc.edges.n <= el.n);
        // connected: BFS from 0 reaches everything
        let g = CsrGraph::from_edge_list(&lc.edges);
        let mut seen = vec![false; g.n()];
        let mut stack = vec![0u32];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for (v, _) in g.edges_from(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // mapping is injective into the original id space
        let mut ids = lc.original_id.clone();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), lc.original_id.len());
    }

    #[test]
    fn tree_from_dijkstra_distances_is_valid(el in arb_edge_list(), s in 0u32..50) {
        let g = CsrGraph::from_edge_list(&el);
        let s = s % g.n() as u32;
        // local Dijkstra oracle (mmt-baselines depends on this crate)
        let mut dist = vec![INF; g.n()];
        let mut heap = std::collections::BinaryHeap::new();
        dist[s as usize] = 0;
        heap.push(std::cmp::Reverse((0u64, s)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] { continue; }
            for (v, w) in g.edges_from(u) {
                let nd = d + w as u64;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        let tree = build_tree(&g, s, &dist);
        tree.validate(&g, &dist).map_err(TestCaseError::fail)?;
        // every reachable target's path has length == distance
        for t in 0..g.n() as u32 {
            if dist[t as usize] == INF { continue; }
            let path = tree.path_to(t).expect("reachable");
            prop_assert_eq!(path[0], s);
            prop_assert_eq!(*path.last().unwrap(), t);
        }
    }

    /// The road generator always yields a connected graph with in-range
    /// weights and the deterministic `grid + n/16` edge budget.
    #[test]
    fn road_graphs_are_connected_and_budgeted(
        rows in 1usize..24,
        cols in 1usize..24,
        c in 1u32..200,
        seed in 0u64..1000,
    ) {
        use mmt_graph::gen::{road, weights::WeightSampler, WeightDist};
        use rand::SeedableRng;
        let sampler = WeightSampler::new(WeightDist::Uniform, c);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let el = road::road_graph(rows, cols, &sampler, &mut rng);
        el.assert_valid();
        let n = rows * cols;
        let grid_edges = rows * (cols - 1) + (rows - 1) * cols;
        prop_assert_eq!(el.n, n);
        prop_assert_eq!(el.m(), grid_edges + (n / 16).max(1));
        prop_assert!(el.edges.iter().all(|e| e.w >= 1 && e.w <= c.max(1)));
        let g = CsrGraph::from_edge_list(&el);
        let mut seen = vec![false; g.n()];
        let mut stack = vec![0u32];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for (v, _) in g.edges_from(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "road graph must be connected");
    }
}
