//! Parallel Component Hierarchy construction — the paper's Algorithm 1.
//!
//! The CH is built "naively in `log C` phases" from the original graph
//! (not the minimum spanning tree — the paper found that faster in
//! practice; the MST route is kept in [`crate::builder_mst`] as the
//! ablation). Phase `i` admits the edges of weight `< 2^i`; every set of
//! phase-`(i-1)` components they connect becomes one CH node.
//!
//! One parallel region ([`team::run`]) of [`thread_budget`] lanes runs the
//! whole build, so its threads are spawned once, whatever the number of
//! phases, and one concurrent union-find lives across all phases. Each lane
//! first buckets its contiguous share of the edge list by the phase that
//! admits each edge, so each edge is looked at in exactly one phase and a
//! phase costs work in proportion to its own weight band, not to the whole
//! graph. Phase `i`'s band (weights in `[2^{i-1}, 2^i)`) is the lanes'
//! buckets for `i`, concatenated in lane order, and the phase takes three
//! barrier-separated steps, each lane working into its own buffers, which
//! it keeps across phases:
//!
//! 1. *find*: the pre-phase roots of both ends of every edge in an equal
//!    share of the band, keeping the root pairs of different components;
//! 2. *union*: the lane's own root pairs;
//! 3. *group*: `new_root << 32 | old_root` for both roots of each of the
//!    lane's pairs, sorted, without repeats.
//!
//! Lane 0 then merges the lanes' keys and emits one CH node per run of
//! equal new roots, straight into the flat arrays of a [`ChAssembler`]. A
//! band of fewer than 2,048 edges (`INLINE_BAND_BELOW`) takes all three
//! steps on lane 0 alone, with no barrier crossing, and an edge list of
//! fewer than 32,768 (`INLINE_BELOW`), or a one-lane budget, spawns
//! nothing. Both cutoffs are measured crossovers (EXPERIMENTS, "Inline
//! cutoffs").
//!
//! [`ConcurrentDsu`] always hooks the larger root under the smaller, so a
//! root is its set's minimum vertex whatever the thread interleaving. Nodes
//! are added in ascending new-root order with children in ascending
//! old-root order, which makes the tree — node ids, child order, alphas —
//! identical at every lane count. This is the code path behind the paper's
//! Table 3 and the top half of Figure 4.

use crate::builder_dsu::phase_of;
use crate::hierarchy::{ChAssembler, ComponentHierarchy};
use mmt_cc::ConcurrentDsu;
use mmt_graph::types::{Edge, EdgeList, VertexId};
use mmt_platform::team::{self, Team};
use mmt_platform::thread_budget;
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

/// Bands `1..BANDS`: phase `i` admits weights in `[2^{i-1}, 2^i)`, and
/// `phase_of(u32::MAX)` is 32.
const BANDS: usize = 33;

/// An edge list with fewer edges than this is built on the calling
/// thread alone. On a 2-vCPU host a 2-lane build of a Rand graph took
/// 1.00–3.3× the time of a 1-lane build from 2^10 to 2^14 edges, and
/// 0.90–0.98× at 2^15.
const INLINE_BELOW: usize = 1 << 15;

/// A band with fewer edges than this is found, united and grouped by lane
/// 0 alone. On a 2-vCPU host, 2 lanes took 0.99–1.00× of lane 0's time on
/// a Rand-UWD-2^17-2^17 band of 1,029 or 2,031 edges and 0.86–0.90× on
/// one of 4,018. Road bands cross lower, near 500 edges; RMAT bands gain
/// little at any size (0.97–1.09× from 16K edges up), since their hub
/// vertices keep both lanes on the same union-find lines.
const INLINE_BAND_BELOW: usize = 1 << 11;

/// Builds the collapsed CH of `el` (single-child chains skipped; at most
/// `2n - 1` nodes). The faithful form comes from
/// [`crate::build_serial`].
pub fn build_parallel(el: &EdgeList) -> ComponentHierarchy {
    let n = el.n;
    if n == 0 {
        // An empty graph still needs a root node for a well-formed tree.
        let mut asm = ChAssembler::new(1);
        asm.add_node(0, [0]);
        return asm.finish();
    }
    let lanes = if el.edges.len() < INLINE_BELOW {
        1
    } else {
        thread_budget().max(1)
    };
    let build = Build {
        el,
        dsu: ConcurrentDsu::new(n),
        lanes: (0..lanes).map(|_| Lane::default()).collect(),
    };
    team::run(
        lanes,
        |team| build.lead(team),
        |lane, step| build.work(lane, step),
    )
}

/// What every lane does in one phase of the region.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Bucket the lane's share of the edge list by band.
    Bucket,
    /// Keep the crossing root pairs of the lane's share of `band`, whose
    /// `size` edges are split among `parts` lanes.
    Find {
        band: usize,
        size: usize,
        parts: usize,
    },
    /// Union the lane's crossing pairs.
    Union,
    /// Key the lane's crossing pairs by new root.
    Group,
}

/// One lane's buffers, kept for the whole build. Padded to 128 bytes so
/// that two lanes filling their own buffers never write one cache line.
/// Only a panic, which ends the build, poisons a lock, so a poisoned
/// guard is recovered and never read after the panic surfaces.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Lane {
    /// Written by this lane in the bucket phase, read by every lane after.
    bands: RwLock<Bands>,
    /// Written by this lane in a phase, read by lane 0 between phases.
    found: Mutex<Found>,
}

impl Lane {
    fn bands(&self) -> RwLockReadGuard<'_, Bands> {
        self.bands.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn found(&self) -> MutexGuard<'_, Found> {
        self.found.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The non-loop edges of a share of the edge list, bucketed by band.
#[derive(Debug)]
struct Bands {
    ends: Vec<(VertexId, VertexId)>,
    /// Band `b` is `ends[start[b]..start[b + 1]]`.
    start: [usize; BANDS + 1],
}

impl Default for Bands {
    fn default() -> Self {
        Self {
            ends: Vec::new(),
            start: [0; BANDS + 1],
        }
    }
}

impl Bands {
    fn band(&self, b: usize) -> &[(VertexId, VertexId)] {
        &self.ends[self.start[b]..self.start[b + 1]]
    }
}

#[derive(Debug, Default)]
struct Found {
    /// Pre-phase roots of the band edges that join two components.
    crossing: Vec<(VertexId, VertexId)>,
    /// `new_root << 32 | old_root` for both roots of every crossing pair,
    /// sorted, without repeats.
    keys: Vec<u64>,
}

/// The band that admits weight `w`. A weight-0 edge (rejected by
/// `phase_of` in debug builds) joins band 1, the first with `w < 2^i`.
fn band_of(w: u32) -> usize {
    (phase_of(w) as usize).max(1)
}

/// Counting-sorts the endpoints of `share`'s non-loop edges into `bands`
/// by band, each band in input order.
fn bucket(share: &[Edge], bands: &mut Bands) {
    let Bands { ends, start } = bands;
    *start = [0; BANDS + 1];
    for e in share.iter().filter(|e| !e.is_self_loop()) {
        start[band_of(e.w) + 1] += 1;
    }
    for b in 1..=BANDS {
        start[b] += start[b - 1];
    }
    let mut next = *start;
    ends.clear();
    ends.resize(start[BANDS], (0, 0));
    for e in share.iter().filter(|e| !e.is_self_loop()) {
        let slot = &mut next[band_of(e.w)];
        ends[*slot] = (e.u, e.v);
        *slot += 1;
    }
}

/// What every lane of one build shares: the input, the union-find and
/// the lanes' buffers.
struct Build<'e> {
    el: &'e EdgeList,
    dsu: ConcurrentDsu,
    lanes: Vec<Lane>,
}

impl Build<'_> {
    /// Lane 0: posts every phase and emits the nodes.
    fn lead(&self, team: &Team<'_, Step>) -> ComponentHierarchy {
        let n = self.el.n;
        let mut asm = ChAssembler::new(n);
        // CH node currently standing for each component, indexed by its root.
        let mut node_of: Vec<u32> = (0..n as u32).collect();
        team.phase(Step::Bucket);
        for band in 1..BANDS {
            let size: usize = self.lanes.iter().map(|l| l.bands().band(band).len()).sum();
            if size == 0 {
                continue;
            }
            let parts = if size < INLINE_BAND_BELOW {
                1
            } else {
                self.lanes.len()
            };
            let run = |step| {
                if parts == 1 {
                    self.work(0, step)
                } else {
                    team.phase(step)
                }
            };
            run(Step::Find { band, size, parts });
            let lanes = &self.lanes[..parts];
            if lanes.iter().all(|l| l.found().crossing.is_empty()) {
                continue;
            }
            run(Step::Union);
            run(Step::Group);
            let found: Vec<MutexGuard<'_, Found>> = lanes.iter().map(Lane::found).collect();
            let keys: Vec<&[u64]> = found.iter().map(|f| f.keys.as_slice()).collect();
            emit(&mut asm, &mut node_of, (band - 1) as u8, &keys);
        }
        asm.finish()
    }

    /// One lane's part of `step`.
    fn work(&self, lane: usize, step: Step) {
        match step {
            Step::Bucket => {
                let (edges, lanes) = (&self.el.edges, self.lanes.len());
                let share = &edges[edges.len() * lane / lanes..edges.len() * (lane + 1) / lanes];
                let mut bands = self.lanes[lane]
                    .bands
                    .write()
                    .unwrap_or_else(PoisonError::into_inner);
                bucket(share, &mut bands);
            }
            Step::Find { band, size, parts } => {
                let mut found = self.lanes[lane].found();
                found.crossing.clear();
                let (lo, hi) = (size * lane / parts, size * (lane + 1) / parts);
                // `at`: where `other`'s bucket starts in the band.
                let mut at = 0;
                for other in &self.lanes {
                    if at >= hi {
                        break;
                    }
                    let bands = other.bands();
                    let piece = bands.band(band);
                    let end = at + piece.len();
                    let mine = &piece[lo.clamp(at, end) - at..hi.clamp(at, end) - at];
                    for &(u, v) in mine {
                        let (ru, rv) = (self.dsu.find(u), self.dsu.find(v));
                        if ru != rv {
                            found.crossing.push((ru, rv));
                        }
                    }
                    at = end;
                }
            }
            Step::Union => {
                for &(ru, rv) in &self.lanes[lane].found().crossing {
                    self.dsu.union(ru, rv);
                }
            }
            Step::Group => {
                let found = &mut *self.lanes[lane].found();
                found.keys.clear();
                for &(ru, rv) in &found.crossing {
                    let root = u64::from(self.dsu.find(ru)) << 32;
                    found
                        .keys
                        .extend([root | u64::from(ru), root | u64::from(rv)]);
                }
                found.keys.sort_unstable();
                found.keys.dedup();
            }
        }
    }
}

/// Adds one node of shift `alpha` per new root in the merge of `lists`
/// (each sorted, without repeats; a key may repeat across lists), over
/// the nodes standing for its old roots in ascending order, and makes it
/// the node standing for the new root.
fn emit(asm: &mut ChAssembler, node_of: &mut [u32], alpha: u8, lists: &[&[u64]]) {
    let mut heads = vec![0; lists.len()];
    // Keys are below 2^63: vertex ids fit in 31 bits.
    let mut last = u64::MAX;
    loop {
        let mut pick: Option<(usize, u64)> = None;
        for (l, list) in lists.iter().enumerate() {
            if let Some(&key) = list.get(heads[l]) {
                if pick.is_none_or(|(_, min)| key < min) {
                    pick = Some((l, key));
                }
            }
        }
        let Some((l, key)) = pick else { break };
        heads[l] += 1;
        if key == last {
            continue;
        }
        if last != u64::MAX && last >> 32 != key >> 32 {
            node_of[(last >> 32) as usize] = asm.close_node(alpha);
        }
        last = key;
        asm.add_child(node_of[key as u32 as usize]);
    }
    if last != u64::MAX {
        node_of[(last >> 32) as usize] = asm.close_node(alpha);
    }
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
        let mut bands = Bands::default();
        bucket(&el.edges, &mut bands);
        // The self loop is in no band.
        assert_eq!(bands.ends, vec![(1, 2), (0, 1), (2, 3), (3, 0)]);
        assert_eq!(bands.band(1), &[(1, 2)]);
        assert_eq!(bands.band(2), &[(0, 1), (2, 3)]);
        assert!(bands.band(3).is_empty());
        assert_eq!(bands.band(4), &[(3, 0)]);
        assert!((5..BANDS).all(|b| bands.band(b).is_empty()));
        // A lane's buffers are refilled, not appended to.
        bucket(&EdgeList::new(2).edges, &mut bands);
        assert!(bands.ends.is_empty());
        assert!((1..BANDS).all(|b| bands.band(b).is_empty()));
    }

    /// A build opens one region of `lanes − 1` threads whatever its phase
    /// count, and none when its budget is one lane or its edge list is
    /// shorter than a band worth sharing.
    #[test]
    fn a_build_opens_one_region_whatever_its_phase_count() {
        for log_c in [1, 6, 17] {
            let el =
                WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 13, log_c).generate();
            assert!(el.edges.len() >= INLINE_BELOW);
            let want = build_serial(&el, ChMode::Collapsed);
            for lanes in [1u64, 2, 4] {
                let before = team::spawns();
                let ch = mmt_platform::with_pool(lanes as usize, || build_parallel(&el));
                let after = team::spawns();
                assert_eq!(canonical_signature(&ch), canonical_signature(&want));
                assert_eq!(
                    after.regions - before.regions,
                    u64::from(lanes > 1),
                    "log C {log_c}"
                );
                assert_eq!(after.threads - before.threads, lanes - 1, "log C {log_c}");
            }
        }
        let small = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 9, 9).generate();
        assert!(small.edges.len() < INLINE_BELOW);
        let before = team::spawns();
        mmt_platform::with_pool(4, || build_parallel(&small));
        assert_eq!(team::spawns(), before);
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

    /// Fingerprints, as in [`PINNED`], of inputs whose large bands are
    /// shared among the lanes, recorded from the builder that ran every
    /// phase's find, union and sort as separate rayon calls.
    const PINNED_LARGE: [(GraphClass, WeightDist, u32, u32, u64); 3] = [
        (
            GraphClass::Random,
            WeightDist::Uniform,
            15,
            15,
            0x57ac_5c3c_e2c5_434a,
        ),
        (
            GraphClass::Rmat,
            WeightDist::PolyLog,
            14,
            14,
            0x93d6_58fe_32b3_bd75,
        ),
        (
            GraphClass::Road,
            WeightDist::Uniform,
            14,
            14,
            0x5a04_ae0a_03bd_b701,
        ),
    ];

    #[test]
    fn pinned_large_hierarchies_at_every_lane_count() {
        for (class, dist, log_n, log_c, want) in PINNED_LARGE {
            let spec = WorkloadSpec::new(class, dist, log_n, log_c);
            let el = spec.generate();
            // At least one band is shared among the lanes.
            let mut bands = Bands::default();
            bucket(&el.edges, &mut bands);
            assert!((1..BANDS).any(|b| bands.band(b).len() >= INLINE_BAND_BELOW));
            for lanes in [1, 2, 4] {
                let ch = mmt_platform::with_pool(lanes, || build_parallel(&el));
                let mut bytes = Vec::new();
                crate::io::write_ch(&mut bytes, &ch).unwrap();
                assert_eq!(fnv1a(&bytes), want, "{} at {lanes} lanes", spec.name());
            }
        }
    }
}
