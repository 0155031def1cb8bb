//! Component Hierarchy statistics — the quantities behind the paper's
//! Table 2 ("Comp" = total components, "Children" = average children per
//! component, "Instance" = memory for a single SSSP instance) — plus the
//! canonical signature used to compare hierarchies across builders.

use crate::hierarchy::ComponentHierarchy;
use mmt_graph::types::VertexId;

/// Table 2-style statistics of a hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct ChStats {
    /// Graph vertices (leaves).
    pub n: usize,
    /// Total CH nodes, the paper's "Comp" column.
    pub components: usize,
    /// Internal nodes only.
    pub internal: usize,
    /// Average number of children per internal node, the "Children" column.
    pub avg_children: f64,
    /// Maximum number of children of any node.
    pub max_children: usize,
    /// Tree depth.
    pub depth: usize,
    /// Bytes of the frozen hierarchy itself.
    pub hierarchy_bytes: usize,
    /// Bytes of one per-query SSSP instance over this hierarchy (dist +
    /// mind + settled bits), the "Instance" column.
    pub instance_bytes: usize,
}

impl ChStats {
    /// Computes the statistics.
    pub fn of(ch: &ComponentHierarchy) -> Self {
        let internal = ch.num_internal();
        let total_children: usize = (0..ch.num_nodes() as u32)
            .map(|v| ch.children(v).len())
            .sum();
        let max_children = (0..ch.num_nodes() as u32)
            .map(|v| ch.children(v).len())
            .max()
            .unwrap_or(0);
        Self {
            n: ch.n(),
            components: ch.num_nodes(),
            internal,
            avg_children: if internal == 0 {
                0.0
            } else {
                total_children as f64 / internal as f64
            },
            max_children,
            depth: ch.depth(),
            hierarchy_bytes: ch.heap_bytes(),
            instance_bytes: instance_bytes(ch),
        }
    }
}

/// Memory of one Thorup query instance over `ch`: an 8-byte atomic distance
/// per vertex, an 8-byte `mind` per node, and one settled bit per vertex.
/// Must be kept in sync with `mmt-thorup::instance::ThorupInstance`'s
/// layout.
pub fn instance_bytes(ch: &ComponentHierarchy) -> usize {
    8 * ch.n() + 8 * ch.num_nodes() + ch.n().div_ceil(8)
}

/// A builder-independent description of a hierarchy: for every internal
/// node, its bucket shift and the sorted set of vertices below it, the
/// whole list sorted. Two correct builders must produce equal signatures
/// (node *ids* may differ, the component structure may not).
pub fn canonical_signature(ch: &ComponentHierarchy) -> Vec<(u8, Vec<VertexId>)> {
    let mut sig: Vec<(u8, Vec<VertexId>)> = (ch.n() as u32..ch.num_nodes() as u32)
        .map(|node| {
            let mut verts = ch.subtree_vertices(node);
            verts.sort_unstable();
            (ch.alpha(node), verts)
        })
        .collect();
    sig.sort();
    sig
}

impl std::fmt::Display for ChStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "components={} (internal {}) avg_children={:.2} max_children={} depth={} ch={} instance={}",
            self.components,
            self.internal,
            self.avg_children,
            self.max_children,
            self.depth,
            mmt_platform::mem::fmt_bytes(self.hierarchy_bytes),
            mmt_platform::mem::fmt_bytes(self.instance_bytes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder_dsu::build_serial;
    use crate::ChMode;
    use mmt_graph::gen::shapes;

    #[test]
    fn figure_one_stats() {
        let ch = build_serial(&shapes::figure_one(), ChMode::Collapsed);
        let s = ChStats::of(&ch);
        assert_eq!(s.n, 6);
        assert_eq!(s.components, 9);
        assert_eq!(s.internal, 3);
        assert!((s.avg_children - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.max_children, 3);
        assert_eq!(s.depth, 3);
        assert!(s.instance_bytes > 0);
        assert!(s.hierarchy_bytes > 0);
    }

    #[test]
    fn faithful_mode_has_more_components() {
        let el = shapes::figure_one();
        let collapsed = ChStats::of(&build_serial(&el, ChMode::Collapsed));
        let faithful = ChStats::of(&build_serial(&el, ChMode::Faithful));
        assert!(faithful.components > collapsed.components);
        // Chains have exactly one child, so the faithful average drops.
        assert!(faithful.avg_children < collapsed.avg_children);
    }

    #[test]
    fn signature_distinguishes_structures() {
        let a = canonical_signature(&build_serial(&shapes::path(4, 1), ChMode::Collapsed));
        let b = canonical_signature(&build_serial(&shapes::path(4, 2), ChMode::Collapsed));
        // Same tree shape but different alphas -> different signatures.
        assert_ne!(a, b);
    }

    #[test]
    fn instance_formula() {
        let ch = build_serial(&shapes::path(9, 1), ChMode::Collapsed);
        // 9 vertices, 10 nodes: 72 + 80 + 2
        assert_eq!(instance_bytes(&ch), 8 * 9 + 8 * 10 + 2);
    }

    #[test]
    fn display_contains_fields() {
        let ch = build_serial(&shapes::star(4, 2), ChMode::Collapsed);
        let text = ChStats::of(&ch).to_string();
        assert!(text.contains("components="));
        assert!(text.contains("instance="));
    }
}
