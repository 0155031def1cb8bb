//! Exact one-lane Thorup work, pinned.
//!
//! On one lane a Thorup solve is deterministic: which children a bucket
//! expansion gathers, the order it visits them in and how far each `mind`
//! update climbs are functions of the graph and the hierarchy alone. So
//! the solver's event counters are exact quantities, and any rewrite of
//! how a solve writes its instance must reproduce them bit for bit. This
//! test pins `(settled, relaxations, improvements, bucket_expansions,
//! mind_propagation_hops)` and an FNV-1a fingerprint of the distance array
//! for full solves from fixed sources and for `solve_target` on fixed
//! pairs (whose fingerprint covers the labels left at the early exit), on
//! seeded 2^10 graphs, under both the serial and the default
//! configuration.

use mmt_baselines::dijkstra;
use mmt_ch::build_parallel;
use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
use mmt_graph::types::{Dist, VertexId};
use mmt_graph::CsrGraph;
use mmt_platform::{with_pool, CountersSnapshot, EventCounters};
use mmt_thorup::{ThorupConfig, ThorupInstance, ThorupSolver};

/// `(settled, relaxations, improvements, bucket_expansions,
/// mind_propagation_hops, fnv1a(dist))`.
type Work = [u64; 6];

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
        c.settled,
        c.relaxations,
        c.improvements,
        c.bucket_expansions,
        c.mind_propagation_hops,
        fnv1a(dist),
    ]
}

fn sources(n: usize) -> [VertexId; 3] {
    [0, n as VertexId / 3, n as VertexId - 1]
}

fn pairs(n: usize) -> [(VertexId, VertexId); 2] {
    let n = n as VertexId;
    [(0, n - 1), (n / 2, 7)]
}

/// Every pinned solve on `g` under `config`, in a fixed order: one full
/// solve per source, then one targeted solve per pair.
fn measure(g: &CsrGraph, ch: &mmt_ch::ComponentHierarchy, config: ThorupConfig) -> Vec<Work> {
    let solver = ThorupSolver::new(g, ch).with_config(config);
    let inst = ThorupInstance::new(ch);
    let mut out = Vec::new();
    for s in sources(g.n()) {
        let ev = EventCounters::new();
        inst.reset(ch);
        solver.with_counters(&ev).solve_into(&inst, s);
        let dist = inst.distances();
        assert_eq!(dist, dijkstra(g, s), "source {s}");
        out.push(work(ev.snapshot(), &dist));
    }
    for (s, t) in pairs(g.n()) {
        let ev = EventCounters::new();
        inst.reset(ch);
        let d = solver.with_counters(&ev).solve_target(&inst, s, t);
        assert_eq!(d, dijkstra(g, s)[t as usize], "pair ({s}, {t})");
        out.push(work(ev.snapshot(), &inst.distances()));
    }
    out
}

/// Recorded on the solver before serial solves stopped using atomic
/// read-modify-writes: per family, the serial configuration's rows, then
/// the default configuration's (each in [`measure`] order). One value was
/// re-pinned since: the default configuration's Rand-UWD solve from 1023
/// takes 1,584 bucket expansions, not 1,585, now that a parallel-tier
/// gather reports the true minimum `mind`.
const PINNED: [(&str, [[Work; 5]; 2]); 3] = [
    (
        "Rand-UWD-2^10-2^10",
        [
            [
                [1024, 8192, 1851, 1586, 2461, 3954040867299627605],
                [1024, 8192, 1823, 1590, 2408, 9377059015119648985],
                [1024, 8192, 1825, 1584, 2465, 2702079422561470167],
                [6, 56, 51, 18, 108, 4374017120308957499],
                [604, 5037, 1666, 924, 2284, 16034544701668297376],
            ],
            [
                [1024, 8192, 1853, 1586, 2463, 3954040867299627605],
                [1024, 8192, 1823, 1590, 2408, 9377059015119648985],
                [1024, 8192, 1834, 1584, 2475, 2702079422561470167],
                [6, 56, 51, 18, 108, 4374017120308957499],
                [604, 5037, 1666, 924, 2284, 16034544701668297376],
            ],
        ],
    ),
    (
        "RMAT-PWD-2^10-2^10",
        [
            [
                [1008, 8190, 1917, 812, 2257, 12886319171386400987],
                [1008, 8190, 1877, 816, 2255, 14472505470457295503],
                [1008, 8190, 1885, 816, 2226, 3266929400235871446],
                [956, 8071, 1911, 771, 2251, 16593714573978786369],
                [764, 7148, 1845, 544, 2190, 11770903086996740083],
            ],
            [
                [1008, 8190, 1917, 812, 2257, 12886319171386400987],
                [1008, 8190, 1877, 816, 2255, 14472505470457295503],
                [1008, 8190, 1885, 816, 2226, 3266929400235871446],
                [956, 8071, 1911, 771, 2251, 16593714573978786369],
                [764, 7148, 1845, 544, 2190, 11770903086996740083],
            ],
        ],
    ),
    (
        "Road-UWD-2^10-2^10",
        [
            [
                [1024, 4096, 1347, 2078, 1868, 6380455589432866658],
                [1024, 4096, 1348, 2076, 1880, 13253867905294593108],
                [1024, 4096, 1351, 2070, 1886, 2779247822531935376],
                [972, 3902, 1333, 1992, 1854, 8405913999425828468],
                [179, 710, 348, 444, 536, 3150208257546936031],
            ],
            [
                [1024, 4096, 1347, 2078, 1868, 6380455589432866658],
                [1024, 4096, 1348, 2076, 1880, 13253867905294593108],
                [1024, 4096, 1351, 2070, 1886, 2779247822531935376],
                [972, 3902, 1333, 1992, 1854, 8405913999425828468],
                [179, 710, 348, 444, 536, 3150208257546936031],
            ],
        ],
    ),
];

#[test]
fn one_lane_thorup_work_is_pinned() {
    let families = [
        (GraphClass::Random, WeightDist::Uniform),
        (GraphClass::Rmat, WeightDist::PolyLog),
        (GraphClass::Road, WeightDist::Uniform),
    ];
    with_pool(1, || {
        for ((class, wd), (name, want)) in families.into_iter().zip(PINNED) {
            let mut spec = WorkloadSpec::new(class, wd, 10, 10);
            spec.seed = 1;
            assert_eq!(spec.name(), name);
            let el = spec.generate();
            let g = CsrGraph::from_edge_list(&el);
            let ch = build_parallel(&el);
            for (config, want) in [ThorupConfig::serial(), ThorupConfig::new()]
                .into_iter()
                .zip(want)
            {
                let got = measure(&g, &ch, config);
                assert_eq!(
                    got, want,
                    "{name} {config:?}: one-lane work moved; got {got:?}"
                );
            }
        }
    });
}
