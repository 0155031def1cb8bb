//! Property tests: on arbitrary graphs, all three builders produce
//! identical hierarchies that pass the full semantic validator.

use mmt_ch::stats::canonical_signature;
use mmt_ch::{build_parallel, build_serial, build_via_mst, ChMode};
use mmt_graph::types::{Edge, EdgeList};
use mmt_graph::CsrGraph;
use proptest::prelude::*;

fn arb_edge_list() -> impl Strategy<Value = EdgeList> {
    (1usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 1u32..300).prop_map(|(u, v, w)| Edge::new(u, v, w));
        proptest::collection::vec(edge, 0..120).prop_map(move |edges| EdgeList { n, edges })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builders_agree_and_validate(el in arb_edge_list()) {
        let g = CsrGraph::from_edge_list(&el);
        let serial = build_serial(&el, ChMode::Collapsed);
        serial.validate(Some(&g)).map_err(TestCaseError::fail)?;
        let parallel = build_parallel(&el);
        parallel.validate(Some(&g)).map_err(TestCaseError::fail)?;
        let mst = build_via_mst(&el, ChMode::Collapsed);
        let sig = canonical_signature(&serial);
        prop_assert_eq!(&sig, &canonical_signature(&parallel));
        prop_assert_eq!(&sig, &canonical_signature(&mst));
        // Not just the same shape: the same tree at every pool size.
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            prop_assert_eq!(&parallel, &pool.install(|| build_parallel(&el)));
        }
    }

    #[test]
    fn faithful_validates_and_dominates(el in arb_edge_list()) {
        let g = CsrGraph::from_edge_list(&el);
        let faithful = build_serial(&el, ChMode::Faithful);
        faithful.validate(Some(&g)).map_err(TestCaseError::fail)?;
        let collapsed = build_serial(&el, ChMode::Collapsed);
        prop_assert!(faithful.num_nodes() >= collapsed.num_nodes());
        // Collapsed hierarchies never exceed 2n - 1 nodes.
        prop_assert!(collapsed.num_nodes() <= 2 * el.n);
    }

    #[test]
    fn collapsed_internal_nodes_have_fanout(el in arb_edge_list()) {
        let ch = build_serial(&el, ChMode::Collapsed);
        for node in ch.n() as u32..ch.num_nodes() as u32 {
            prop_assert!(ch.children(node).len() >= 2);
        }
    }

    #[test]
    fn clustering_matches_cc_oracle(el in arb_edge_list(), level in 0u32..11) {
        use mmt_cc::{connected_components, CcAlgorithm, EdgeSet};
        use mmt_graph::subgraph::edges_below;
        let ch = build_serial(&el, ChMode::Collapsed);
        let got = mmt_ch::clusters_at_level(&ch, level);
        let filtered = edges_below(&el, 1u32 << level.min(31));
        let want = connected_components(
            EdgeSet { n: el.n, edges: &filtered.edges },
            CcAlgorithm::SerialDsu,
        );
        prop_assert_eq!(&got.labels, &want.labels);
        prop_assert_eq!(got.count, want.count);
    }

    #[test]
    fn merge_threshold_is_tight_dendrogram_height(el in arb_edge_list(), a in 0u32..40, b in 0u32..40) {
        let n = el.n as u32;
        let (a, b) = (a % n, b % n);
        let ch = build_serial(&el, ChMode::Collapsed);
        match mmt_ch::merge_threshold(&ch, a, b) {
            None => {
                // never in one cluster at any level
                let c = mmt_ch::clusters_at_level(&ch, 33);
                prop_assert!(!c.same(a, b));
            }
            Some(t) => {
                let level = t.trailing_zeros();
                prop_assert!(mmt_ch::clusters_at_level(&ch, level).same(a, b));
                if a != b && level > 0 {
                    prop_assert!(!mmt_ch::clusters_at_level(&ch, level - 1).same(a, b));
                }
            }
        }
    }
}
