//! Serial Component Hierarchy construction over a union-find structure.
//!
//! Runs the paper's Algorithm 1 with a single thread: edges are binned by
//! the phase that admits them (`phase(w) = floor(log2 w) + 1`, i.e. the
//! first `i` with `w < 2^i`), then each phase unions the newly admitted
//! edges and materialises CH nodes for the merged components. Used as the
//! correctness oracle for the parallel builder and as the fast path for
//! serial experiments (Table 1's preprocessing column).

use crate::hierarchy::{ChAssembler, ComponentHierarchy};
use crate::ChMode;
use mmt_cc::DisjointSets;
use mmt_graph::types::{EdgeList, Weight};

/// The phase at which an edge of weight `w ≥ 1` is admitted: the smallest
/// `i ≥ 1` with `w < 2^i`.
#[inline]
pub fn phase_of(w: Weight) -> u32 {
    debug_assert!(w >= 1, "Thorup requires positive weights");
    32 - w.leading_zeros()
}

/// Builds the CH of `el` serially. `mode` selects between the faithful
/// Algorithm 1 (a node per component per phase) and the collapsed form
/// (single-child chains skipped; at most `2n - 1` nodes).
pub fn build_serial(el: &EdgeList, mode: ChMode) -> ComponentHierarchy {
    let n = el.n;
    let mut asm = ChAssembler::new(n);
    if n == 0 {
        // An empty graph still needs a root node for a well-formed tree.
        let mut asm = ChAssembler::new(1);
        asm.add_node(0, [0]);
        return asm.finish();
    }
    let max_phase = el.edges.iter().map(|e| phase_of(e.w)).max().unwrap_or(0);
    // Counting-sort edge indices by phase.
    let mut by_phase: Vec<Vec<usize>> = vec![Vec::new(); max_phase as usize + 1];
    for (i, e) in el.edges.iter().enumerate() {
        if !e.is_self_loop() {
            by_phase[phase_of(e.w) as usize].push(i);
        }
    }

    let mut dsu = DisjointSets::new(n);
    // CH node currently representing each component, indexed by DSU root.
    let mut node_of: Vec<u32> = (0..n as u32).collect();
    // Scratch: per-root list of child nodes merged during the current phase.
    let mut pending: Vec<Option<Vec<u32>>> = vec![None; n];
    // Roots touched this phase (values may go stale after further unions;
    // stale entries are recognised by `pending[r].is_none()`).
    let mut touched: Vec<u32> = Vec::new();
    // Live roots, maintained only for faithful mode's chain nodes.
    let mut live_roots: Vec<u32> = (0..n as u32).collect();
    // Phase stamp: roots that received a merge node this phase must not
    // also get a chain node (they already have their phase-i component).
    let mut merged_stamp: Vec<u32> = vec![0; n];

    for phase in 1..=max_phase {
        touched.clear();
        for &ei in &by_phase[phase as usize] {
            let e = el.edges[ei];
            let (ru, rv) = (dsu.find(e.u), dsu.find(e.v));
            if ru == rv {
                continue;
            }
            let list_u = pending[ru as usize]
                .take()
                .unwrap_or_else(|| vec![node_of[ru as usize]]);
            let list_v = pending[rv as usize]
                .take()
                .unwrap_or_else(|| vec![node_of[rv as usize]]);
            dsu.union(ru, rv);
            let rn = dsu.find(ru);
            // Small-to-large append keeps the total merge work O(n log n).
            let (mut big, small) = if list_u.len() >= list_v.len() {
                (list_u, list_v)
            } else {
                (list_v, list_u)
            };
            big.extend(small);
            pending[rn as usize] = Some(big);
            touched.push(rn);
        }
        let alpha = (phase - 1) as u8;
        for &r in &touched {
            if let Some(children) = pending[r as usize].take() {
                debug_assert!(children.len() >= 2);
                let id = asm.add_node(alpha, children);
                node_of[r as usize] = id;
                merged_stamp[r as usize] = phase;
            }
        }
        if mode == ChMode::Faithful {
            // Every component that did not merge this phase gets a chain
            // node (Algorithm 1 creates a node per component per phase);
            // prune dead roots while walking.
            let mut next_roots = Vec::with_capacity(live_roots.len());
            for &r in &live_roots {
                if dsu.find(r) == r {
                    next_roots.push(r);
                }
            }
            live_roots = next_roots;
            for &r in &live_roots {
                if merged_stamp[r as usize] == phase {
                    continue;
                }
                let child = node_of[r as usize];
                let id = asm.add_node(alpha, [child]);
                node_of[r as usize] = id;
            }
        }
    }
    asm.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_graph::gen::shapes;
    use mmt_graph::CsrGraph;

    #[test]
    fn phase_boundaries() {
        assert_eq!(phase_of(1), 1);
        assert_eq!(phase_of(2), 2);
        assert_eq!(phase_of(3), 2);
        assert_eq!(phase_of(4), 3);
        assert_eq!(phase_of(7), 3);
        assert_eq!(phase_of(8), 4);
        assert_eq!(phase_of(u32::MAX), 32);
    }

    #[test]
    fn figure_one_collapsed_structure() {
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        ch.validate(Some(&g)).unwrap();
        // 6 leaves + 2 triangle nodes + root
        assert_eq!(ch.num_nodes(), 9);
        assert_eq!(ch.alpha(ch.root()), 3);
        let kids = ch.children(ch.root());
        assert_eq!(kids.len(), 2);
        assert_eq!(ch.leaves_below(kids[0]), 3);
        assert_eq!(ch.leaves_below(kids[1]), 3);
    }

    #[test]
    fn figure_one_faithful_has_chains() {
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Faithful);
        ch.validate(Some(&g)).unwrap();
        // Phases 1..4: triangles merge at phase 1, then chain through
        // phases 2 and 3, then the root merges at phase 4.
        // nodes: 6 leaves + 2 (phase1) + 2 + 2 (chains) + 1 root = 13
        assert_eq!(ch.num_nodes(), 13);
        assert_eq!(ch.children(ch.root()).len(), 2);
        assert_eq!(ch.alpha(ch.root()), 3);
    }

    #[test]
    fn uniform_weight_graph_is_two_level() {
        // All weights 1: a single phase merges everything under one node.
        let el = shapes::complete(5, 1);
        let ch = build_serial(&el, ChMode::Collapsed);
        assert_eq!(ch.num_nodes(), 6);
        assert_eq!(ch.alpha(ch.root()), 0);
        assert_eq!(ch.children(ch.root()).len(), 5);
        ch.validate(Some(&CsrGraph::from_edge_list(&el))).unwrap();
    }

    #[test]
    fn path_with_doubling_weights_is_a_caterpillar() {
        // Edges 1, 2, 4, 8: each phase merges exactly one more leaf.
        let el = EdgeList::from_triples(5, [(0, 1, 1), (1, 2, 2), (2, 3, 4), (3, 4, 8)]);
        let ch = build_serial(&el, ChMode::Collapsed);
        ch.validate(Some(&CsrGraph::from_edge_list(&el))).unwrap();
        assert_eq!(ch.num_nodes(), 5 + 4);
        assert_eq!(ch.depth(), 5);
        for (node, expect_alpha) in [(5u32, 0u8), (6, 1), (7, 2), (8, 3)] {
            assert_eq!(ch.alpha(node), expect_alpha);
            assert_eq!(ch.children(node).len(), 2);
        }
    }

    #[test]
    fn disconnected_graph_gets_synthetic_root() {
        let el = EdgeList::from_triples(4, [(0, 1, 3), (2, 3, 3)]);
        let ch = build_serial(&el, ChMode::Collapsed);
        ch.validate(Some(&CsrGraph::from_edge_list(&el))).unwrap();
        assert_eq!(ch.children(ch.root()).len(), 2);
        assert_eq!(ch.alpha(ch.root()), crate::hierarchy::SYNTHETIC_ROOT_ALPHA);
    }

    #[test]
    fn self_loops_ignored() {
        let el = EdgeList::from_triples(2, [(0, 0, 1), (1, 1, 4), (0, 1, 2)]);
        let ch = build_serial(&el, ChMode::Collapsed);
        assert_eq!(ch.num_nodes(), 3);
        assert_eq!(ch.alpha(ch.root()), 1);
    }

    #[test]
    fn parallel_edges_harmless() {
        let el = EdgeList::from_triples(2, [(0, 1, 5), (0, 1, 5), (0, 1, 1)]);
        let ch = build_serial(&el, ChMode::Collapsed);
        assert_eq!(ch.num_nodes(), 3);
        // merged at phase 1 by the weight-1 copy
        assert_eq!(ch.alpha(ch.root()), 0);
    }

    #[test]
    fn edgeless_and_empty_graphs() {
        let ch = build_serial(&EdgeList::new(3), ChMode::Collapsed);
        assert_eq!(ch.n(), 3);
        assert_eq!(ch.children(ch.root()).len(), 3);
        ch.validate(None).unwrap();
        let ch = build_serial(&EdgeList::new(0), ChMode::Collapsed);
        assert_eq!(ch.num_nodes(), 2);
    }

    #[test]
    fn single_vertex() {
        let ch = build_serial(&EdgeList::new(1), ChMode::Collapsed);
        assert_eq!(ch.num_nodes(), 1);
        assert!(ch.is_leaf(ch.root()));
    }
}
