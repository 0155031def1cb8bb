//! The Component Hierarchy (CH) data structure.
//!
//! Thorup's CH is a tree over a weighted undirected graph `G`:
//! `Component(v, i)` is the subgraph reachable from `v` along edges of
//! weight `< 2^i`; the children of a level-`i` CH node are the connected
//! components left after removing edges of weight `≥ 2^{i-1}`. Leaves are
//! the vertices of `G`, the root represents the whole graph (paper
//! Figure 1).
//!
//! The structure here is frozen and array-backed (structure-of-arrays, CSR
//! children), because the paper's headline use-case — many simultaneous
//! SSSP queries sharing one CH — requires the hierarchy to be read-only
//! and compact. Per-query mutable state lives in `mmt-thorup`'s
//! `ThorupInstance`, not here.
//!
//! Node ids: `0..n` are leaves (leaf `i` *is* vertex `i`), internal nodes
//! follow in construction order, the root is always the last node.

use mmt_graph::types::{Dist, VertexId, INF};
use mmt_graph::{CsrGraph, VertexPermutation};

/// Bucket shift of the synthetic root inserted above disconnected graphs.
/// There are no edges between its children, so any shift is valid; 64
/// saturates `bucket_of` to bucket 0 for every finite distance.
pub const SYNTHETIC_ROOT_ALPHA: u8 = 64;

/// A frozen Component Hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentHierarchy {
    n: usize,
    parent: Vec<u32>,
    alpha: Vec<u8>,
    children_offsets: Vec<u32>,
    children: Vec<u32>,
    leaf_count: Vec<u32>,
    root: u32,
}

/// Mutable accumulator used by the builders in this crate. It writes the
/// frozen layout as it goes: each node's children are appended to one
/// children array when the node is added, and its leaf count is summed
/// from theirs, so freezing only trims the arrays to their length.
#[derive(Debug, Default)]
pub struct ChAssembler {
    n: usize,
    parent: Vec<u32>,
    alpha: Vec<u8>,
    children_offsets: Vec<u32>,
    children: Vec<u32>,
    leaf_count: Vec<u32>,
    /// Leaves under the children added to the open node so far.
    open_leaves: u32,
    /// Nodes without a parent.
    orphans: usize,
}

impl ChAssembler {
    /// Starts a hierarchy over `n` graph vertices: nodes `0..n` are leaves.
    /// Room is reserved for the `2n − 1` nodes a collapsed hierarchy can
    /// reach; a faithful one grows past it.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize / 2, "node ids are u32");
        let room = 2 * n;
        let mut parent = Vec::with_capacity(room);
        parent.extend(0..n as u32);
        let mut alpha = Vec::with_capacity(room);
        alpha.resize(n, 0);
        let mut children_offsets = Vec::with_capacity(room + 1);
        children_offsets.resize(n + 1, 0);
        let mut leaf_count = Vec::with_capacity(room);
        leaf_count.resize(n, 1);
        Self {
            n,
            parent,
            alpha,
            children_offsets,
            children: Vec::with_capacity(room),
            leaf_count,
            open_leaves: 0,
            orphans: n,
        }
    }

    /// Number of vertices (leaves).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total nodes so far.
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Makes `child`, an existing parentless node, a child of the node the
    /// next [`Self::close_node`] adds.
    #[inline]
    pub(crate) fn add_child(&mut self, child: u32) {
        let id = self.parent.len() as u32;
        let slot = &mut self.parent[child as usize];
        debug_assert_eq!(*slot, child, "child {child} already has a parent");
        *slot = id;
        self.children.push(child);
        self.open_leaves += self.leaf_count[child as usize];
        self.orphans -= 1;
    }

    /// Adds an internal node with the given bucket shift (`alpha = level-1`
    /// for a node formed at phase `level`) over the children added since
    /// the last node. Returns the new node id.
    pub(crate) fn close_node(&mut self, alpha: u8) -> u32 {
        let id = self.parent.len() as u32;
        debug_assert!(
            self.children.len() > *self.children_offsets.last().unwrap() as usize,
            "an internal node needs children"
        );
        self.parent.push(id);
        self.alpha.push(alpha);
        self.children_offsets.push(self.children.len() as u32);
        self.leaf_count.push(std::mem::take(&mut self.open_leaves));
        self.orphans += 1;
        id
    }

    /// Adds an internal node with the given bucket shift over `children`,
    /// which must be existing parentless nodes. Returns the new node id.
    pub fn add_node(&mut self, alpha: u8, children: impl IntoIterator<Item = u32>) -> u32 {
        for c in children {
            self.add_child(c);
        }
        self.close_node(alpha)
    }

    /// Freezes into a [`ComponentHierarchy`]. If several parentless nodes
    /// remain (disconnected graph), a synthetic root is inserted above them.
    pub fn finish(mut self) -> ComponentHierarchy {
        assert!(self.orphans > 0, "hierarchy must have at least one node");
        debug_assert_eq!(self.open_leaves, 0, "a node was left open");
        if self.orphans > 1 {
            let orphans: Vec<u32> = (0..self.parent.len() as u32)
                .filter(|&v| self.parent[v as usize] == v)
                .collect();
            self.add_node(SYNTHETIC_ROOT_ALPHA, orphans);
        }
        // The last node is nobody's child (children precede parents), so
        // the one parentless node is the last.
        let root = self.parent.len() as u32 - 1;
        self.parent.shrink_to_fit();
        self.alpha.shrink_to_fit();
        self.children_offsets.shrink_to_fit();
        self.children.shrink_to_fit();
        self.leaf_count.shrink_to_fit();
        ComponentHierarchy {
            n: self.n,
            parent: self.parent,
            alpha: self.alpha,
            children_offsets: self.children_offsets,
            children: self.children,
            leaf_count: self.leaf_count,
            root,
        }
    }
}

impl ComponentHierarchy {
    /// Number of graph vertices (= leaves).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total number of CH nodes (leaves + internal).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Number of internal (non-leaf) nodes.
    #[inline]
    pub fn num_internal(&self) -> usize {
        self.num_nodes() - self.n
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> u32 {
        self.root
    }

    /// True if `node` is a leaf (i.e. a graph vertex).
    #[inline]
    pub fn is_leaf(&self, node: u32) -> bool {
        (node as usize) < self.n
    }

    /// The vertex a leaf node stands for.
    #[inline]
    pub fn vertex_of_leaf(&self, node: u32) -> VertexId {
        debug_assert!(self.is_leaf(node));
        node
    }

    /// The leaf node of a vertex.
    #[inline]
    pub fn leaf_of_vertex(&self, v: VertexId) -> u32 {
        v
    }

    /// Parent of `node` (the root is its own parent).
    #[inline]
    pub fn parent(&self, node: u32) -> u32 {
        self.parent[node as usize]
    }

    /// Bucket shift of `node`: children are bucketed by
    /// `mind(child) >> alpha(node)`. Equals `level - 1` for a node formed
    /// at phase `level` of Algorithm 1.
    #[inline]
    pub fn alpha(&self, node: u32) -> u8 {
        self.alpha[node as usize]
    }

    /// Children of `node` (empty for leaves).
    #[inline]
    pub fn children(&self, node: u32) -> &[u32] {
        let lo = self.children_offsets[node as usize] as usize;
        let hi = self.children_offsets[node as usize + 1] as usize;
        &self.children[lo..hi]
    }

    /// Number of leaves (graph vertices) in the subtree of `node`.
    #[inline]
    pub fn leaves_below(&self, node: u32) -> u32 {
        self.leaf_count[node as usize]
    }

    /// The bucket a value `mind` falls into under `node`'s shift, or `None`
    /// when `mind` is infinite (unreached component).
    #[inline]
    pub fn bucket_of(&self, node: u32, mind: Dist) -> Option<u64> {
        if mind == INF {
            None
        } else {
            Some(mmt_platform::atomic::saturating_shr(
                mind,
                self.alpha[node as usize] as u32,
            ))
        }
    }

    /// All vertices in the subtree of `node`, by explicit stack DFS.
    pub fn subtree_vertices(&self, node: u32) -> Vec<VertexId> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(x) = stack.pop() {
            if self.is_leaf(x) {
                out.push(self.vertex_of_leaf(x));
            } else {
                stack.extend_from_slice(self.children(x));
            }
        }
        out
    }

    /// Depth of the tree (a single-leaf hierarchy has depth 1).
    pub fn depth(&self) -> usize {
        // Longest leaf-to-root chain, computed by walking parents.
        let mut best = 0;
        for leaf in 0..self.n as u32 {
            let mut d = 1;
            let mut x = leaf;
            while self.parent(x) != x {
                x = self.parent(x);
                d += 1;
            }
            best = best.max(d);
        }
        best.max(1)
    }

    /// Heap bytes of the frozen structure.
    pub fn heap_bytes(&self) -> usize {
        self.parent.capacity() * 4
            + self.alpha.capacity()
            + self.children_offsets.capacity() * 4
            + self.children.capacity() * 4
            + self.leaf_count.capacity() * 4
    }

    /// The CH-DFS vertex order: leaves in the order a depth-first walk from
    /// the root meets them, children visited in construction order.
    ///
    /// Because every CH node's leaves form one contiguous run of this
    /// order, relabeling the graph by the returned permutation makes every
    /// Thorup component index-contiguous — the traversal's "visit all
    /// vertices of this component" loops become sequential memory sweeps.
    pub fn dfs_leaf_order(&self) -> VertexPermutation {
        let mut order = Vec::with_capacity(self.n);
        let mut stack = vec![self.root];
        while let Some(x) = stack.pop() {
            if self.is_leaf(x) {
                order.push(self.vertex_of_leaf(x));
            } else {
                // Reversed so the first child is popped first: leaves come
                // out in left-to-right construction order.
                stack.extend(self.children(x).iter().rev());
            }
        }
        debug_assert_eq!(order.len(), self.n);
        VertexPermutation::from_new_to_old(order).expect("a DFS meets each leaf exactly once")
    }

    /// The same hierarchy over the relabeled vertex set: leaf `v` becomes
    /// leaf `perm.to_new(v)`, so this CH matches `graph.permuted(perm)`
    /// without rebuilding from scratch.
    ///
    /// `O(num_nodes)`: leaf ids are vertex ids and internal ids stay put,
    /// so only leaf references (parent slots, children entries) move. All
    /// frozen invariants survive — every leaf id stays `< n ≤` any internal
    /// id, so children still precede parents.
    pub fn permute_leaves(&self, perm: &VertexPermutation) -> ComponentHierarchy {
        assert_eq!(self.n, perm.n(), "permutation built for a different graph");
        let n = self.n;
        let remap = |node: u32| -> u32 {
            if (node as usize) < n {
                perm.to_new(node)
            } else {
                node
            }
        };
        let mut parent = self.parent.clone();
        let mut alpha = self.alpha.clone();
        let mut leaf_count = self.leaf_count.clone();
        for old in 0..n {
            let new = perm.to_new(old as u32) as usize;
            parent[new] = remap(self.parent[old]);
            alpha[new] = self.alpha[old];
            leaf_count[new] = self.leaf_count[old];
        }
        // Children CSR: leaves have no children, so only entries move.
        let children: Vec<u32> = self.children.iter().map(|&c| remap(c)).collect();
        // Leaves all have empty child ranges, so the offsets CSR is already
        // correct for the relabeled leaves.
        debug_assert!((0..n).all(|v| self.children(v as u32).is_empty()));
        ComponentHierarchy {
            n,
            parent,
            alpha,
            children_offsets: self.children_offsets.clone(),
            children,
            leaf_count,
            root: remap(self.root),
        }
    }

    /// Checks structural invariants and, when `graph` is given, the semantic
    /// Thorup conditions:
    ///
    /// 1. tree well-formedness (single root, CSR/parent agreement, children
    ///    precede parents, leaf counts correct);
    /// 2. monotone shifts: `alpha(parent) ≥ alpha(child)` with strict
    ///    inequality for internal children;
    /// 3. **separation** — every graph edge joining two different children
    ///    of a node with shift `a` has weight `≥ 2^a`;
    /// 4. **cohesion** — the vertex set of every internal node with shift
    ///    `a` is connected using only edges of weight `< 2^(a+1)`.
    pub fn validate(&self, graph: Option<&CsrGraph>) -> Result<(), String> {
        let num = self.num_nodes();
        if self.parent(self.root) != self.root {
            return Err("root is not its own parent".into());
        }
        let mut seen_child = vec![false; num];
        for node in 0..num as u32 {
            for &c in self.children(node) {
                if c >= node {
                    return Err(format!("child {c} does not precede parent {node}"));
                }
                if self.parent(c) != node {
                    return Err(format!("parent array disagrees with CSR at {c}"));
                }
                if seen_child[c as usize] {
                    return Err(format!("node {c} has two parents"));
                }
                seen_child[c as usize] = true;
                if !self.is_leaf(c) && self.alpha(c) >= self.alpha(node) {
                    return Err(format!(
                        "internal child {c} (alpha {}) not below parent {node} (alpha {})",
                        self.alpha(c),
                        self.alpha(node)
                    ));
                }
            }
            if !self.is_leaf(node) && self.children(node).is_empty() {
                return Err(format!("internal node {node} has no children"));
            }
        }
        for node in 0..num as u32 {
            if node != self.root && !seen_child[node as usize] {
                return Err(format!("node {node} is unreachable from the root"));
            }
        }
        let total: u32 = self.leaves_below(self.root);
        if total as usize != self.n {
            return Err(format!("root covers {total} leaves, expected {}", self.n));
        }
        if let Some(g) = graph {
            if g.n() != self.n {
                return Err("graph size mismatch".into());
            }
            self.validate_semantics(g)?;
        }
        Ok(())
    }

    fn validate_semantics(&self, g: &CsrGraph) -> Result<(), String> {
        // Map each vertex to the child-of-`node` subtree it belongs to, one
        // internal node at a time (test-scale O(n · depth); fine for the
        // sizes the validators run at).
        let mut child_of: Vec<u32> = vec![u32::MAX; self.n];
        for node in self.n as u32..self.num_nodes() as u32 {
            let a = self.alpha(node);
            for &c in self.children(node) {
                for v in self.subtree_vertices(c) {
                    child_of[v as usize] = c;
                }
            }
            let threshold: Dist = if a >= 64 { Dist::MAX } else { 1u64 << a };
            // Separation: inter-child edges must be >= 2^a.
            for &c in self.children(node) {
                for u in self.subtree_vertices(c) {
                    for (v, w) in g.edges_from(u) {
                        let cv = child_of[v as usize];
                        if cv != u32::MAX && cv != c && (w as Dist) < threshold {
                            return Err(format!(
                                "edge ({u},{v}) of weight {w} crosses children of node {node} with alpha {a}"
                            ));
                        }
                    }
                }
            }
            // Cohesion: the node's vertex set is connected via edges < 2^(a+1).
            let verts = self.subtree_vertices(node);
            if verts.len() > 1 && a < 64 {
                let limit: Dist = 1u64 << (a as u32 + 1).min(63);
                if !connected_under(g, &verts, limit) {
                    return Err(format!(
                        "node {node} (alpha {a}) is not connected using edges < {limit}"
                    ));
                }
            }
            // Reset markers for the next node.
            for v in verts {
                child_of[v as usize] = u32::MAX;
            }
        }
        Ok(())
    }
}

fn connected_under(g: &CsrGraph, verts: &[VertexId], limit: Dist) -> bool {
    use std::collections::VecDeque;
    let mut inset = vec![false; g.n()];
    for &v in verts {
        inset[v as usize] = true;
    }
    let mut seen = vec![false; g.n()];
    let mut queue = VecDeque::new();
    queue.push_back(verts[0]);
    seen[verts[0] as usize] = true;
    let mut reached = 0usize;
    while let Some(u) = queue.pop_front() {
        reached += 1;
        for (v, w) in g.edges_from(u) {
            if (w as Dist) < limit && inset[v as usize] && !seen[v as usize] {
                seen[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    reached == verts.len()
}

impl mmt_platform::MemFootprint for ComponentHierarchy {
    fn heap_bytes(&self) -> usize {
        ComponentHierarchy::heap_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_graph::gen::shapes;

    /// Hand-build the CH of Figure 1's graph: two weight-1 triangles joined
    /// by a weight-8 edge.
    fn figure_one_ch() -> (ComponentHierarchy, CsrGraph) {
        let g = CsrGraph::from_edge_list(&shapes::figure_one());
        let mut asm = ChAssembler::new(6);
        // Phase 1 (alpha 0): both triangles collapse (weight-1 edges < 2).
        let t1 = asm.add_node(0, vec![0, 1, 2]);
        let t2 = asm.add_node(0, vec![3, 4, 5]);
        // Phase 4 (alpha 3): the weight-8 edge merges them (8 < 16).
        let root = asm.add_node(3, vec![t1, t2]);
        let ch = asm.finish();
        assert_eq!(ch.root(), root);
        (ch, g)
    }

    #[test]
    fn paper_figure_1() {
        let (ch, g) = figure_one_ch();
        assert_eq!(ch.n(), 6);
        assert_eq!(ch.num_nodes(), 9);
        assert_eq!(ch.num_internal(), 3);
        assert_eq!(ch.leaves_below(ch.root()), 6);
        assert_eq!(ch.leaves_below(6), 3);
        assert_eq!(ch.depth(), 3);
        ch.validate(Some(&g)).unwrap();
    }

    #[test]
    fn bucket_of_uses_alpha() {
        let (ch, _) = figure_one_ch();
        let root = ch.root();
        assert_eq!(ch.alpha(root), 3);
        assert_eq!(ch.bucket_of(root, 0), Some(0));
        assert_eq!(ch.bucket_of(root, 7), Some(0));
        assert_eq!(ch.bucket_of(root, 8), Some(1));
        assert_eq!(ch.bucket_of(root, INF), None);
        // Triangle nodes shift by 0: bucket == distance.
        assert_eq!(ch.bucket_of(6, 5), Some(5));
    }

    #[test]
    fn subtree_vertices_cover_leaves() {
        let (ch, _) = figure_one_ch();
        let mut left = ch.subtree_vertices(6);
        left.sort_unstable();
        assert_eq!(left, vec![0, 1, 2]);
        let mut all = ch.subtree_vertices(ch.root());
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn synthetic_root_for_disconnected() {
        // Two isolated vertices: finish() must add a synthetic root.
        let asm = ChAssembler::new(2);
        let ch = asm.finish();
        assert_eq!(ch.num_nodes(), 3);
        assert_eq!(ch.alpha(ch.root()), SYNTHETIC_ROOT_ALPHA);
        assert_eq!(ch.bucket_of(ch.root(), 123456), Some(0));
        ch.validate(None).unwrap();
    }

    #[test]
    fn single_vertex_hierarchy() {
        let asm = ChAssembler::new(1);
        let ch = asm.finish();
        assert_eq!(ch.num_nodes(), 1);
        assert_eq!(ch.root(), 0);
        assert!(ch.is_leaf(ch.root()));
        assert_eq!(ch.depth(), 1);
        ch.validate(None).unwrap();
    }

    #[test]
    fn validate_rejects_separation_violation() {
        // Claim the two triangles split at alpha 4 (threshold 16): the
        // weight-8 bridge then *violates* separation.
        let g = CsrGraph::from_edge_list(&shapes::figure_one());
        let mut asm = ChAssembler::new(6);
        let t1 = asm.add_node(0, vec![0, 1, 2]);
        let t2 = asm.add_node(0, vec![3, 4, 5]);
        asm.add_node(4, vec![t1, t2]);
        let ch = asm.finish();
        let err = ch.validate(Some(&g)).unwrap_err();
        assert!(err.contains("crosses children"), "{err}");
    }

    #[test]
    fn validate_rejects_incohesive_node() {
        // Two vertices with NO edge between them, merged under alpha 0
        // (claims connectivity via edges < 2).
        let g = CsrGraph::from_edge_list(&mmt_graph::types::EdgeList::new(2));
        let mut asm = ChAssembler::new(2);
        asm.add_node(0, vec![0, 1]);
        let ch = asm.finish();
        let err = ch.validate(Some(&g)).unwrap_err();
        assert!(err.contains("not connected"), "{err}");
    }

    #[test]
    fn validate_rejects_alpha_inversion() {
        let mut asm = ChAssembler::new(3);
        let a = asm.add_node(5, vec![0, 1]);
        asm.add_node(5, vec![a, 2]); // parent alpha == child alpha: invalid
        let ch = asm.finish();
        assert!(ch.validate(None).is_err());
    }

    #[test]
    fn heap_bytes_nonzero() {
        let (ch, _) = figure_one_ch();
        assert!(ch.heap_bytes() > 0);
    }

    #[test]
    fn dfs_leaf_order_makes_components_contiguous() {
        let (ch, _) = figure_one_ch();
        let perm = ch.dfs_leaf_order();
        assert_eq!(perm.n(), 6);
        // Both triangles ({0,1,2} and {3,4,5}) must land in contiguous
        // index ranges of the new order.
        for node in [6u32, 7] {
            let news: Vec<u32> = ch
                .subtree_vertices(node)
                .iter()
                .map(|&v| perm.to_new(v))
                .collect();
            let lo = *news.iter().min().unwrap();
            let hi = *news.iter().max().unwrap();
            assert_eq!(
                (hi - lo + 1) as usize,
                news.len(),
                "component {node} not contiguous: {news:?}"
            );
        }
    }

    #[test]
    fn dfs_order_on_generated_graph_is_a_permutation() {
        let spec = mmt_graph::WorkloadSpec::new(
            mmt_graph::GraphClass::Rmat,
            mmt_graph::WeightDist::PolyLog,
            7,
            8,
        );
        let g = CsrGraph::from_edge_list(&spec.generate());
        let ch = crate::build_serial(&spec.generate(), crate::ChMode::Collapsed);
        let perm = ch.dfs_leaf_order();
        let mut olds: Vec<u32> = (0..g.n() as u32).map(|i| perm.to_old(i)).collect();
        olds.sort_unstable();
        assert_eq!(olds, (0..g.n() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn permute_leaves_matches_rebuilding_on_the_permuted_graph() {
        let spec = mmt_graph::WorkloadSpec::new(
            mmt_graph::GraphClass::Random,
            mmt_graph::WeightDist::Uniform,
            7,
            6,
        );
        let g = CsrGraph::from_edge_list(&spec.generate());
        let ch = crate::build_serial(&spec.generate(), crate::ChMode::Collapsed);
        for perm in [ch.dfs_leaf_order(), VertexPermutation::bfs(&g)] {
            let pg = g.permuted(&perm);
            let pch = ch.permute_leaves(&perm);
            // The remapped hierarchy satisfies every Thorup invariant
            // against the permuted graph.
            pch.validate(Some(&pg)).unwrap();
            assert_eq!(pch.num_nodes(), ch.num_nodes());
            assert_eq!(pch.root(), ch.root());
            assert_eq!(pch.depth(), ch.depth());
            // Subtree leaf sets correspond through the permutation.
            for node in pch.n() as u32..pch.num_nodes() as u32 {
                let mut got = pch.subtree_vertices(node);
                let mut want: Vec<u32> = ch
                    .subtree_vertices(node)
                    .iter()
                    .map(|&v| perm.to_new(v))
                    .collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "node {node}");
            }
        }
    }

    #[test]
    fn permute_leaves_single_vertex_root() {
        let asm = ChAssembler::new(1);
        let ch = asm.finish();
        let pch = ch.permute_leaves(&VertexPermutation::identity(1));
        assert_eq!(pch.root(), 0);
        pch.validate(None).unwrap();
    }
}
