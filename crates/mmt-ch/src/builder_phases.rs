//! Parallel Component Hierarchy construction — the paper's Algorithm 1.
//!
//! The CH is built "naively in `log C` phases" from the original graph
//! (not the minimum spanning tree — the paper found that faster in
//! practice; the MST route is kept in [`crate::builder_mst`] as the
//! ablation). Phase `i` admits the edges of weight `< 2^i`; every set of
//! phase-`(i-1)` components they connect becomes one CH node.
//!
//! The edges are bucketed by phase once, and one concurrent union-find
//! lives across all phases, so each edge is looked at in exactly one phase
//! and a phase costs work in proportion to its own weight band, not to the
//! whole graph. Phase `i`:
//!
//! 1. find, in parallel, the pre-phase roots of both ends of every band
//!    edge (weights in `[2^{i-1}, 2^i)`) and drop the edges already inside
//!    one component;
//! 2. union the remaining root pairs in parallel;
//! 3. sort the old roots by their new root and add one CH node per merged
//!    set.
//!
//! [`ConcurrentDsu`] always hooks the larger root under the smaller, so a
//! root is its set's minimum vertex whatever the thread interleaving. Nodes
//! are added in ascending new-root order with children in ascending
//! old-root order, which makes the tree — node ids, child order, alphas —
//! identical at every pool size. This is the code path behind the paper's
//! Table 3 and the top half of Figure 4.

use crate::builder_dsu::phase_of;
use crate::hierarchy::{ChAssembler, ComponentHierarchy};
use mmt_cc::ConcurrentDsu;
use mmt_graph::types::{EdgeList, VertexId};
use rayon::prelude::*;

/// Builds the collapsed CH of `el` (single-child chains skipped; at most
/// `2n - 1` nodes). The faithful form comes from
/// [`crate::build_serial`].
pub fn build_parallel(el: &EdgeList) -> ComponentHierarchy {
    let n = el.n;
    if n == 0 {
        // An empty graph still needs a root node for a well-formed tree.
        let mut asm = ChAssembler::new(1);
        asm.add_node(0, vec![0]);
        return asm.finish();
    }
    let mut asm = ChAssembler::new(n);
    let (ends, band_end) = bucket_by_phase(el);
    let dsu = ConcurrentDsu::new(n);
    // CH node currently standing for each component, indexed by its root.
    let mut node_of: Vec<u32> = (0..n as u32).collect();
    for phase in 1..band_end.len() {
        let band = &ends[band_end[phase - 1]..band_end[phase]];
        let crossing: Vec<(VertexId, VertexId)> = band
            .par_iter()
            .filter_map(|&(u, v)| {
                let (ru, rv) = (dsu.find(u), dsu.find(v));
                (ru != rv).then_some((ru, rv))
            })
            .collect();
        if crossing.is_empty() {
            continue;
        }
        crossing.par_iter().for_each(|&(ru, rv)| {
            dsu.union(ru, rv);
        });
        // `new_root << 32 | old_root`: sorted, each merged set is a run of
        // at least two distinct old roots, sets in ascending new-root order.
        let mut merged: Vec<u64> = crossing
            .par_iter()
            .flat_map_iter(|&(ru, rv)| {
                let root = u64::from(dsu.find(ru)) << 32;
                [root | u64::from(ru), root | u64::from(rv)]
            })
            .collect();
        merged.par_sort_unstable();
        merged.dedup();
        let alpha = (phase - 1) as u8;
        for set in merged.chunk_by(|a, b| a >> 32 == b >> 32) {
            let children = set.iter().map(|&k| node_of[k as u32 as usize]).collect();
            node_of[(set[0] >> 32) as usize] = asm.add_node(alpha, children);
        }
    }
    asm.finish()
}

/// Counting-sorts the non-loop edges' endpoints by the phase that admits
/// them. Returns the endpoints and `band_end`, where phase `i`'s band is
/// `band_end[i - 1]..band_end[i]`. A weight-0 edge (rejected by `phase_of`
/// in debug builds) joins phase 1, the first with `w < 2^i`.
fn bucket_by_phase(el: &EdgeList) -> (Vec<(VertexId, VertexId)>, Vec<usize>) {
    let max_phase = el
        .edges
        .par_iter()
        .map(|e| phase_of(e.w))
        .max()
        .unwrap_or(0) as usize;
    if max_phase == 0 {
        return (Vec::new(), vec![0]);
    }
    let band_of = |w| (phase_of(w) as usize).max(1);
    let mut band_end = vec![0usize; max_phase + 1];
    for e in el.edges.iter().filter(|e| !e.is_self_loop()) {
        band_end[band_of(e.w)] += 1;
    }
    for i in 1..=max_phase {
        band_end[i] += band_end[i - 1];
    }
    // `next[i - 1]`: the first free slot of phase `i`'s band.
    let mut next = band_end.clone();
    let mut ends = vec![(0, 0); band_end[max_phase]];
    for e in el.edges.iter().filter(|e| !e.is_self_loop()) {
        let slot = &mut next[band_of(e.w) - 1];
        ends[*slot] = (e.u, e.v);
        *slot += 1;
    }
    (ends, band_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder_dsu::build_serial;
    use crate::stats::canonical_signature;
    use crate::ChMode;
    use mmt_graph::gen::{shapes, GraphClass, WeightDist, WorkloadSpec};
    use mmt_graph::CsrGraph;

    fn assert_same_hierarchy(el: &EdgeList) {
        let serial = build_serial(el, ChMode::Collapsed);
        let parallel = build_parallel(el);
        let g = CsrGraph::from_edge_list(el);
        parallel.validate(Some(&g)).unwrap();
        serial.validate(Some(&g)).unwrap();
        assert_eq!(
            canonical_signature(&serial),
            canonical_signature(&parallel),
            "serial and parallel builders disagree"
        );
    }

    #[test]
    fn matches_serial_on_figure_one() {
        assert_same_hierarchy(&shapes::figure_one());
    }

    #[test]
    fn matches_serial_on_shapes() {
        assert_same_hierarchy(&shapes::path(9, 3));
        assert_same_hierarchy(&shapes::star(7, 5));
        assert_same_hierarchy(&shapes::complete(6, 2));
        assert_same_hierarchy(&EdgeList::from_triples(
            5,
            [(0, 1, 1), (1, 2, 2), (2, 3, 4), (3, 4, 8)],
        ));
    }

    #[test]
    fn matches_serial_on_random_graphs() {
        for class in [GraphClass::Random, GraphClass::Rmat, GraphClass::Road] {
            for dist in [WeightDist::Uniform, WeightDist::PolyLog] {
                for log_c in [1, 4, 8] {
                    let mut spec = WorkloadSpec::new(class, dist, 7, log_c);
                    spec.seed = 42;
                    assert_same_hierarchy(&spec.generate());
                }
            }
        }
    }

    #[test]
    fn disconnected_and_degenerate_inputs() {
        let el = EdgeList::from_triples(4, [(0, 1, 2), (2, 3, 2)]);
        assert_same_hierarchy(&el);
        let ch = build_parallel(&EdgeList::new(3));
        assert_eq!(ch.children(ch.root()).len(), 3);
        let ch = build_parallel(&EdgeList::new(0));
        assert_eq!(ch.num_nodes(), 2);
        let ch = build_parallel(&EdgeList::new(1));
        assert!(ch.is_leaf(ch.root()));
    }

    #[test]
    fn bands_hold_each_non_loop_edge_once_in_input_order() {
        let el = EdgeList::from_triples(4, [(0, 1, 3), (1, 2, 1), (2, 2, 9), (2, 3, 2), (3, 0, 8)]);
        let (ends, band_end) = bucket_by_phase(&el);
        // Phase 4 (weights 8..16) exists because of the self loop's
        // weight; the loop itself is in no band.
        assert_eq!(band_end, vec![0, 1, 3, 3, 4]);
        assert_eq!(ends, vec![(1, 2), (0, 1), (2, 3), (3, 0)]);
        let (ends, band_end) = bucket_by_phase(&EdgeList::new(2));
        assert!(ends.is_empty());
        assert_eq!(band_end, vec![0]);
    }

    /// FNV-1a of the [`crate::io::write_ch`] bytes of [`build_parallel`]
    /// on seeded `2^10` inputs, recorded from the contract-and-relabel
    /// builder this one replaced: any change in node ids, child order or
    /// alphas changes a fingerprint.
    const PINNED: [(GraphClass, WeightDist, u32, u64); 18] = [
        (
            GraphClass::Random,
            WeightDist::Uniform,
            2,
            0xbdc1_8026_450e_05d0,
        ),
        (
            GraphClass::Random,
            WeightDist::Uniform,
            8,
            0xf67f_fec8_315a_144c,
        ),
        (
            GraphClass::Random,
            WeightDist::Uniform,
            16,
            0x88b8_a2bb_6735_7a30,
        ),
        (
            GraphClass::Random,
            WeightDist::PolyLog,
            2,
            0x0932_911f_28d7_96bd,
        ),
        (
            GraphClass::Random,
            WeightDist::PolyLog,
            8,
            0x7ace_1a15_30d9_9fcd,
        ),
        (
            GraphClass::Random,
            WeightDist::PolyLog,
            16,
            0x3f55_4e54_bcff_96eb,
        ),
        (
            GraphClass::Rmat,
            WeightDist::Uniform,
            2,
            0x0812_dfb6_989c_82bb,
        ),
        (
            GraphClass::Rmat,
            WeightDist::Uniform,
            8,
            0x139e_0863_b682_68a2,
        ),
        (
            GraphClass::Rmat,
            WeightDist::Uniform,
            16,
            0x1146_341d_989b_0790,
        ),
        (
            GraphClass::Rmat,
            WeightDist::PolyLog,
            2,
            0x3c21_0b2a_45e2_dd4b,
        ),
        (
            GraphClass::Rmat,
            WeightDist::PolyLog,
            8,
            0xf4ce_7dad_15f7_097e,
        ),
        (
            GraphClass::Rmat,
            WeightDist::PolyLog,
            16,
            0xfc18_0a02_4410_d763,
        ),
        (
            GraphClass::Road,
            WeightDist::Uniform,
            2,
            0xc312_89c2_e3d9_bcce,
        ),
        (
            GraphClass::Road,
            WeightDist::Uniform,
            8,
            0x87a5_7bde_9e33_65f3,
        ),
        (
            GraphClass::Road,
            WeightDist::Uniform,
            16,
            0x65e7_e7e3_3b8b_87d7,
        ),
        (
            GraphClass::Road,
            WeightDist::PolyLog,
            2,
            0xfc9a_c109_f504_3ab2,
        ),
        (
            GraphClass::Road,
            WeightDist::PolyLog,
            8,
            0x6e57_882c_0c15_74fb,
        ),
        (
            GraphClass::Road,
            WeightDist::PolyLog,
            16,
            0xdd0e_7f4b_8570_d785,
        ),
    ];

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn pinned_hierarchies_at_every_pool_size() {
        for (class, dist, log_c, want) in PINNED {
            let spec = WorkloadSpec::new(class, dist, 10, log_c);
            let el = spec.generate();
            for threads in [1, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let ch = pool.install(|| build_parallel(&el));
                let mut bytes = Vec::new();
                crate::io::write_ch(&mut bytes, &ch).unwrap();
                assert_eq!(fnv1a(&bytes), want, "{} at {threads} threads", spec.name());
            }
        }
    }
}
