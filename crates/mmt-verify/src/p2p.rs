//! Point-to-point differential layer: the truncated-Dijkstra s–t oracle
//! and a pair sweep holding every P2P solver to it across a case.
//!
//! The full-SSSP differential runner already compares the P2P engines'
//! per-pair answers entry for entry (they sit in
//! [`all_engines`](crate::engine::all_engines) as `p2p-bidi` and
//! `p2p-delta-early`). This layer is the *targeted* complement: an
//! independent oracle that stops the moment the target settles — so its
//! work is shaped like the engines under test, not like a full query —
//! driven over a pair set that always includes `s == t`, adjacent pairs,
//! far pairs, and (on disconnected cases) proven-unreachable targets.

use crate::case::GraphCase;
use mmt_baselines::{
    bidirectional_st, delta_stepping_st, BidiScratch, DeltaConfig, DeltaScratch, Divergence,
    DivergenceKind,
};
use mmt_graph::types::{Dist, VertexId, Weight, INF};
use mmt_graph::{CsrGraph, SplitCsr};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Exact s–t distance by Dijkstra truncated at the target: the search
/// stops the moment `t` is settled (popped with a live key), or proves
/// unreachability by exhausting s's component. This is the textbook
/// stopping rule — `t`'s label is final when popped because pop order is
/// nondecreasing — and deliberately shares no code with either engine
/// under test.
pub fn truncated_dijkstra(g: &CsrGraph, s: VertexId, t: VertexId) -> Dist {
    assert!(
        (s as usize) < g.n() && (t as usize) < g.n(),
        "endpoint out of range"
    );
    let mut dist = vec![INF; g.n()];
    let mut heap = BinaryHeap::new();
    dist[s as usize] = 0;
    heap.push(Reverse((0 as Dist, s)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        if u == t {
            return d;
        }
        for (v, w) in g.edges_from(u) {
            let nd = d + w as Dist;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    INF
}

/// The deterministic pair set for one case: every source the differential
/// runner would pick crossed with the endpoints, the source itself
/// (`s == t`), near neighbours and the middle — and on small cases the
/// full all-pairs square.
fn pairs_for(case: &GraphCase) -> Vec<(VertexId, VertexId)> {
    let n = case.n() as VertexId;
    if n <= 24 {
        return (0..n).flat_map(|s| (0..n).map(move |t| (s, t))).collect();
    }
    let sources = [0, 1, n / 2, n - 2, n - 1];
    let targets = [0, 1, n / 3, n / 2, n - 2, n - 1];
    let mut pairs = Vec::new();
    for &s in &sources {
        pairs.push((s, s)); // s == t, always
        for &t in &targets {
            pairs.push((s, t));
        }
    }
    pairs
}

/// Cross-checks `p2p-bidi` and `p2p-delta-early` against the truncated
/// oracle over `pairs_for` on one case. Both engines reuse one scratch
/// across the whole sweep (the served configuration). Returns the number
/// of pairs checked.
pub fn check_p2p_case(case: &GraphCase) -> Result<usize, Divergence> {
    let g = &case.graph;
    let mut bidi = BidiScratch::new();
    let delta = DeltaConfig::adaptive(g).delta().min(u32::MAX as u64) as Weight;
    let split = SplitCsr::new(g, delta.max(1));
    let mut dscratch = DeltaScratch::new(&split);
    let mismatch = |engine: &str, s: VertexId, t: VertexId, got: Dist, want: Dist| {
        Divergence::new(
            DivergenceKind::OracleMismatch,
            s,
            format!("s-t answer disagrees with truncated Dijkstra (t = {t})"),
        )
        .for_engine(engine)
        .for_case(&case.name)
        .at(t, got, want)
    };
    let pairs = pairs_for(case);
    for &(s, t) in &pairs {
        let want = truncated_dijkstra(g, s, t);
        let (got, _) = bidirectional_st(g, s, t, &mut bidi, None)
            .expect("uncancellable query cannot be interrupted");
        if got != want {
            return Err(mismatch("p2p-bidi", s, t, got, want));
        }
        let got = delta_stepping_st(&split, s, t, &mut dscratch, None, None)
            .expect("uncancellable query cannot be interrupted");
        if got != want {
            return Err(mismatch("p2p-delta-early", s, t, got, want));
        }
    }
    Ok(pairs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{adversarial_corpus, full_corpus, seed_from_env};
    use mmt_baselines::dijkstra;
    use mmt_graph::gen::shapes;
    use mmt_graph::types::EdgeList;

    #[test]
    fn truncated_oracle_matches_full_dijkstra() {
        let g = CsrGraph::from_edge_list(&shapes::figure_one());
        let full = dijkstra(&g, 0);
        for t in 0..g.n() as VertexId {
            assert_eq!(truncated_dijkstra(&g, 0, t), full[t as usize], "t={t}");
        }
    }

    #[test]
    fn truncated_oracle_proves_unreachability_and_s_equals_t() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(4, [(0, 1, 2), (2, 3, 1)]));
        assert_eq!(truncated_dijkstra(&g, 0, 3), INF);
        assert_eq!(truncated_dijkstra(&g, 3, 0), INF);
        assert_eq!(truncated_dijkstra(&g, 2, 2), 0);
    }

    #[test]
    fn adversarial_corpus_includes_the_hard_shapes() {
        // The sweep below is only meaningful if the corpus actually
        // contains disconnected cases (unreachable targets) and zero
        // weights; assert that before relying on it.
        let corpus = adversarial_corpus(seed_from_env());
        assert!(corpus.len() >= 6, "adversarial corpus shrank");
        assert!(
            corpus.iter().any(|c| {
                let d = dijkstra(&c.graph, 0);
                d.contains(&INF)
            }),
            "no disconnected case in the adversarial corpus"
        );
        assert!(
            corpus.iter().any(|c| c.has_zero_weights()),
            "no zero-weight case in the adversarial corpus"
        );
    }

    #[test]
    fn p2p_engines_match_the_truncated_oracle_across_the_full_corpus() {
        let mut pairs = 0;
        let corpus = full_corpus(seed_from_env());
        let cases = corpus.len();
        for case in &corpus {
            pairs += check_p2p_case(case).unwrap();
        }
        // Count assertions: every case swept, with a real pair budget —
        // including the all-pairs squares of the small adversarial cases.
        assert!(cases >= 10, "corpus shrank to {cases} cases");
        assert!(pairs >= 35 * cases, "only {pairs} pairs over {cases} cases");
    }

    #[test]
    fn pair_sets_always_cover_the_hard_spots() {
        // Small cases sweep the full all-pairs square.
        let small = GraphCase::new("fig1", shapes::figure_one());
        let pairs = pairs_for(&small);
        assert_eq!(pairs.len(), small.n() * small.n());
        // Large cases still pin s == t, both endpoints, and far pairs.
        let big = GraphCase::new("path", shapes::path(100, 1));
        let pairs = pairs_for(&big);
        assert!(pairs.iter().any(|&(s, t)| s == t));
        assert!(pairs.contains(&(0, 99)));
        assert!(pairs.contains(&(99, 0)));
        assert!(pairs.len() >= 30);
    }
}
