//! Exact one-lane stepping work, pinned.
//!
//! On one lane the stepping kernels are deterministic: the order in which
//! a bucket's vertices are extracted, relaxed and re-queued is a function
//! of the graph alone. So the work counters are exact quantities, and any
//! refactor of the kernels must reproduce them bit for bit. This test pins
//! `(arcs_scanned, relaxations, settled, bucket_expansions)` and an FNV-1a
//! fingerprint of the distance array for Δ-, Δ*- and ρ-stepping from fixed
//! sources, and for Δ-early s–t on fixed pairs (whose fingerprint covers
//! the tentative labels left at the early exit), on seeded 2^10 graphs.

use mmt_baselines::{
    adaptive_delta, default_rho, delta_star_presplit, delta_stepping_presplit, delta_stepping_st,
    rho_stepping_presplit, DeltaScratch, StepScratch,
};
use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
use mmt_graph::types::{Dist, VertexId};
use mmt_graph::{CsrGraph, SplitCsr};
use mmt_platform::{with_pool, CountersSnapshot, EventCounters};

/// `(arcs_scanned, relaxations, settled, bucket_expansions, fnv1a(dist))`.
type Work = [u64; 5];

fn fnv1a(dist: &[Dist]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for d in dist {
        for b in d.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn work(c: CountersSnapshot, dist: &[Dist]) -> Work {
    [
        c.arcs_scanned,
        c.relaxations,
        c.settled,
        c.bucket_expansions,
        fnv1a(dist),
    ]
}

fn graph(class: GraphClass, wd: WeightDist) -> (String, CsrGraph) {
    let mut spec = WorkloadSpec::new(class, wd, 10, 10);
    spec.seed = 1;
    (spec.name(), CsrGraph::from_edge_list(&spec.generate()))
}

fn sources(n: usize) -> [VertexId; 3] {
    [0, n as VertexId / 3, n as VertexId - 1]
}

fn pairs(n: usize) -> [(VertexId, VertexId); 3] {
    let n = n as VertexId;
    [(0, n - 1), (n / 2, 7), (n / 4, n / 4 + 33)]
}

/// Every pinned solve on `g`, in a fixed order: Δ, Δ*, ρ per source, then
/// Δ-early per pair.
fn measure(g: &CsrGraph) -> Vec<Work> {
    let delta = adaptive_delta(g).min(u32::MAX as u64) as u32;
    let split = SplitCsr::new(g, delta);
    let mut delta_scratch = DeltaScratch::new(&split);
    let mut step: StepScratch = StepScratch::new(&split);
    let mut out = Vec::new();
    for s in sources(g.n()) {
        let ev = EventCounters::new();
        delta_stepping_presplit(&split, s, &mut delta_scratch, Some(&ev));
        out.push(work(ev.snapshot(), &delta_scratch.to_distances()));
        let ev = EventCounters::new();
        delta_star_presplit(&split, s, &mut step, Some(&ev));
        out.push(work(ev.snapshot(), &step.to_distances()));
        let ev = EventCounters::new();
        rho_stepping_presplit(&split, s, default_rho(g.n()), &mut step, Some(&ev));
        out.push(work(ev.snapshot(), &step.to_distances()));
    }
    for (s, t) in pairs(g.n()) {
        let ev = EventCounters::new();
        let d = delta_stepping_st(&split, s, t, &mut delta_scratch, Some(&ev), None);
        let dist = delta_scratch.to_distances();
        assert_eq!(d, Some(dist[t as usize]));
        out.push(work(ev.snapshot(), &dist));
    }
    out
}

/// Recorded on the four kernels this loop replaced (one row per solve, in
/// [`measure`] order).
const PINNED: [(&str, [Work; 12]); 3] = [
    (
        "Rand-UWD-2^10-2^10",
        [
            [8222, 8222, 1024, 49, 3954040867299627605],
            [8325, 8325, 1024, 34, 3954040867299627605],
            [9565, 9565, 1024, 15, 3954040867299627605],
            [8229, 8229, 1024, 47, 9377059015119648985],
            [8387, 8387, 1024, 33, 9377059015119648985],
            [9295, 9295, 1024, 14, 9377059015119648985],
            [8211, 8211, 1024, 55, 2702079422561470167],
            [8307, 8307, 1024, 39, 2702079422561470167],
            [9186, 9186, 1024, 14, 2702079422561470167],
            [54, 54, 6, 7, 15331148435218766365],
            [4236, 4236, 498, 31, 15611300007639298027],
            [1253, 1253, 141, 20, 12120836334638000019],
        ],
    ),
    (
        "RMAT-PWD-2^10-2^10",
        [
            [10740, 10740, 1008, 29, 12886319171386400987],
            [13139, 13139, 1008, 20, 12886319171386400987],
            [13386, 13386, 1008, 10, 12886319171386400987],
            [10966, 10966, 1008, 32, 14472505470457295503],
            [13621, 13621, 1008, 22, 14472505470457295503],
            [14209, 14209, 1008, 11, 14472505470457295503],
            [11362, 11362, 1008, 36, 3266929400235871446],
            [14267, 14267, 1008, 26, 3266929400235871446],
            [16157, 16157, 1008, 14, 3266929400235871446],
            [10642, 10642, 963, 14, 12957924581992481685],
            [10503, 10503, 909, 11, 10230372179407744711],
            [9861, 9861, 908, 10, 4616306136934130275],
        ],
    ),
    (
        "Road-UWD-2^10-2^10",
        [
            [4121, 4121, 1024, 93, 6380455589432866658],
            [4152, 4152, 1024, 65, 6380455589432866658],
            [4508, 4508, 1024, 30, 6380455589432866658],
            [4131, 4131, 1024, 79, 13253867905294593108],
            [4176, 4176, 1024, 58, 13253867905294593108],
            [4523, 4523, 1024, 28, 13253867905294593108],
            [4119, 4119, 1024, 89, 2779247822531935376],
            [4159, 4159, 1024, 64, 2779247822531935376],
            [4495, 4495, 1024, 27, 2779247822531935376],
            [3845, 3845, 951, 82, 3251488956948007251],
            [1128, 1128, 282, 40, 4320820942122643682],
            [34, 34, 9, 10, 9931168311522358934],
        ],
    ),
];

#[test]
fn one_lane_stepping_work_is_pinned() {
    let families = [
        (GraphClass::Random, WeightDist::Uniform),
        (GraphClass::Rmat, WeightDist::PolyLog),
        (GraphClass::Road, WeightDist::Uniform),
    ];
    with_pool(1, || {
        for ((class, wd), (name, want)) in families.into_iter().zip(PINNED) {
            let (spec_name, g) = graph(class, wd);
            assert_eq!(spec_name, name);
            let got = measure(&g);
            assert_eq!(got, want, "{name}: one-lane work moved; got {got:?}");
        }
    });
}
