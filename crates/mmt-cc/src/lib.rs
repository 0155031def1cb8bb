//! Connected components, the MTGL operation at the heart of the paper's
//! Component Hierarchy construction.
//!
//! Three algorithms, all producing the same canonical labelling (every
//! vertex labelled by the smallest vertex id in its component):
//!
//! * [`dsu`] — serial union-find with union by rank and path halving; the
//!   correctness oracle and the engine of the serial CH builder;
//! * [`label_prop`] — parallel label propagation with pointer-jumping
//!   shortcuts; our stand-in for the MTGL "bully" algorithm, which spreads
//!   writes across the `label` array instead of funnelling every hook
//!   through a few tree roots;
//! * [`shiloach_vishkin`](mod@shiloach_vishkin) — the classic hook-and-shortcut algorithm the
//!   paper calls out as suffering hot spots on the MTA-2; kept as the
//!   ablation comparator (`a2_cc_algorithms` bench).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrent_dsu;
pub mod dsu;
pub mod label_prop;
pub mod shiloach_vishkin;
pub mod verify;

pub use concurrent_dsu::{concurrent_components, ConcurrentDsu};
pub use dsu::DisjointSets;
pub use label_prop::label_propagation;
pub use shiloach_vishkin::shiloach_vishkin;

use mmt_graph::types::{Edge, VertexId};

/// A component labelling: `labels[v]` is the canonical (smallest) vertex id
/// of `v`'s connected component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Canonical label per vertex.
    pub labels: Vec<VertexId>,
    /// Number of distinct components.
    pub count: usize,
}

impl Components {
    /// Builds from a raw label array, flattening one level of indirection
    /// and counting components. Labels must be root-stable after one hop
    /// (`labels[labels[v]]` is a fixpoint), which all algorithms in this
    /// crate guarantee.
    pub fn from_labels(mut labels: Vec<VertexId>) -> Self {
        for v in 0..labels.len() {
            let l = labels[v] as usize;
            labels[v] = labels[l];
            debug_assert_eq!(labels[labels[v] as usize], labels[v]);
        }
        let count = labels
            .iter()
            .enumerate()
            .filter(|&(v, &l)| v as VertexId == l)
            .count();
        Self { labels, count }
    }

    /// True if `u` and `v` are in the same component.
    #[inline]
    pub fn same(&self, u: VertexId, v: VertexId) -> bool {
        self.labels[u as usize] == self.labels[v as usize]
    }

    /// Number of vertices in `v`'s component (O(n) scan; used by the
    /// differential harness to cross-check SSSP reachable sets against
    /// the connected-components oracle).
    pub fn member_count(&self, v: VertexId) -> usize {
        let label = self.labels[v as usize];
        self.labels.iter().filter(|&&l| l == label).count()
    }
}

/// The edge-set view the CC algorithms consume: any slice of undirected
/// edges over `n` vertices. Weights are ignored here; the CH builder filters
/// by weight *before* calling CC, exactly like the paper's Algorithm 1.
#[derive(Debug, Clone, Copy)]
pub struct EdgeSet<'a> {
    /// Vertex count.
    pub n: usize,
    /// Undirected edges.
    pub edges: &'a [Edge],
}

/// Which CC algorithm to run (for callers that switch by configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcAlgorithm {
    /// Serial union-find.
    SerialDsu,
    /// Parallel label propagation ("bully"-style).
    LabelPropagation,
    /// Shiloach–Vishkin hook + shortcut.
    ShiloachVishkin,
    /// One-pass parallel lock-free union-find.
    ConcurrentDsu,
}

/// Runs the selected algorithm.
pub fn connected_components(set: EdgeSet<'_>, algo: CcAlgorithm) -> Components {
    match algo {
        CcAlgorithm::SerialDsu => {
            let mut dsu = DisjointSets::new(set.n);
            for e in set.edges {
                dsu.union(e.u, e.v);
            }
            dsu.into_components()
        }
        CcAlgorithm::LabelPropagation => label_propagation(set),
        CcAlgorithm::ShiloachVishkin => shiloach_vishkin(set),
        CcAlgorithm::ConcurrentDsu => concurrent_components(set),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_from_flat_labels() {
        let c = Components::from_labels(vec![0, 0, 2, 2, 2]);
        assert_eq!(c.count, 2);
        assert!(c.same(0, 1));
        assert!(c.same(3, 4));
        assert!(!c.same(1, 2));
    }

    #[test]
    fn member_count_sizes_components() {
        let c = Components::from_labels(vec![0, 0, 2, 2, 2, 5]);
        assert_eq!(c.member_count(1), 2);
        assert_eq!(c.member_count(3), 3);
        assert_eq!(c.member_count(5), 1);
    }

    #[test]
    fn all_algorithms_agree_on_a_small_graph() {
        let edges = vec![
            Edge::new(0, 1, 1),
            Edge::new(2, 3, 1),
            Edge::new(3, 4, 1),
            Edge::new(6, 6, 1),
        ];
        let set = EdgeSet {
            n: 7,
            edges: &edges,
        };
        let a = connected_components(set, CcAlgorithm::SerialDsu);
        let b = connected_components(set, CcAlgorithm::LabelPropagation);
        let c = connected_components(set, CcAlgorithm::ShiloachVishkin);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.count, 4); // {0,1}, {2,3,4}, {5}, {6}
    }
}
