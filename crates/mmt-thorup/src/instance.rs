//! Per-query mutable state for one Thorup SSSP computation.
//!
//! The paper's headline economics (Section 5.2): "It is more memory
//! efficient to allocate a new instance of the CH than it is to create a
//! copy of the entire graph. Thus, multiple Thorup queries using a shared
//! CH is more efficient than several Δ-stepping queries each with a
//! separate copy of the graph." Everything a query mutates lives here —
//! the graph and the hierarchy stay frozen and shared:
//!
//! * `dist` — tentative distances (one atomic per vertex);
//! * `mind` — per-CH-node lower bound on the minimum tentative distance of
//!   its unsettled vertices (the paper's `minD`; `INF` once every vertex
//!   below is settled or unreachable, which ends a visit);
//! * `settled` — one bit per vertex.
//!
//! The cells are atomic so that a solve may visit a bucket's children in
//! parallel. A solve that visits them in turn is its instance's only
//! writer and updates the same cells with plain loads and stores (see
//! [`crate::solver`]).
//!
//! Next to the cells, an instance keeps what a solve's lanes reuse from
//! query to query: each lane's scan buffers and counters, and the member
//! list that lane 0 posts to a visit phase.

use crossbeam::utils::CachePadded;
use mmt_ch::ComponentHierarchy;
use mmt_graph::types::{Dist, VertexId, INF};
use mmt_platform::{AtomicBitSet, AtomicMinU64, EventCounters};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};

/// Mutable state of one SSSP query over a shared Component Hierarchy.
#[derive(Debug)]
pub struct ThorupInstance {
    pub(crate) dist: Vec<AtomicMinU64>,
    pub(crate) mind: Vec<AtomicMinU64>,
    pub(crate) settled: AtomicBitSet,
    /// Cooperative cancellation flag for targeted (s–t) queries.
    pub(crate) stop: AtomicBool,
    /// The lanes' scratch. A solve holds this lock from start to end.
    /// Survives [`reset`](Self::reset): warm buffers are the point.
    pub(crate) lanes: Mutex<Lanes>,
}

/// What a solve's lanes keep between queries.
#[derive(Debug, Default)]
pub(crate) struct Lanes {
    /// One slot per lane that has run a solve into this instance. A lane
    /// locks its own slot, so no two lanes share a pool.
    pub(crate) slots: Vec<CachePadded<Mutex<LaneScratch>>>,
    /// The members lane 0 posts to a visit phase. Written only between
    /// phases.
    pub(crate) posted: RwLock<Vec<u32>>,
    /// What this instance's multi-lane solves did.
    pub(crate) stats: RegionStats,
}

/// What the parallel regions of multi-lane solves into one instance did,
/// summed over those solves (see [`ThorupInstance::region_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Regions opened: one per multi-lane solve, none for a one-lane
    /// solve.
    pub regions: u64,
    /// Visit phases posted: buckets whose small members every lane
    /// claimed.
    pub visit_phases: u64,
    /// Scan phases posted: parallel-tier gathers cut into several shares.
    pub scan_phases: u64,
}

impl Lanes {
    /// Grows to at least `lanes` slots.
    pub(crate) fn grow(&mut self, lanes: usize) {
        if self.slots.len() < lanes {
            self.slots.resize_with(lanes, Default::default);
        }
    }
}

/// One lane's scratch: its recycled scan buffers, its share of the last
/// scan phase and its own event counters.
#[derive(Debug, Default)]
pub(crate) struct LaneScratch {
    pub(crate) buffers: ScanBuffers,
    /// Members of this lane's share of a scan phase.
    pub(crate) share: Vec<u32>,
    /// Minimum child `mind` over that share.
    pub(crate) share_min: Dist,
    /// What this lane counted in the visit phases of an instrumented
    /// solve. Lane 0 folds it into the solve's counters when the region
    /// closes, so no two lanes bump one counter's cache line.
    pub(crate) counters: EventCounters,
}

/// Recycled `toVisit` scan buffers, one per live visit frame.
#[derive(Debug, Default)]
pub(crate) struct ScanBuffers {
    idle: Vec<Vec<u32>>,
    created: usize,
}

impl ScanBuffers {
    /// An empty scan buffer, warm when one is idle.
    pub(crate) fn acquire(&mut self) -> Vec<u32> {
        self.idle.pop().unwrap_or_else(|| {
            self.created += 1;
            Vec::new()
        })
    }

    /// Takes `buf` back, keeping its capacity.
    pub(crate) fn release(&mut self, mut buf: Vec<u32>) {
        buf.clear();
        self.idle.push(buf);
    }
}

impl ThorupInstance {
    /// Allocates a fresh instance shaped for `ch`, ready for one query.
    pub fn new(ch: &ComponentHierarchy) -> Self {
        Self {
            dist: (0..ch.n()).map(|_| AtomicMinU64::new(INF)).collect(),
            mind: (0..ch.num_nodes())
                .map(|_| AtomicMinU64::new(INF))
                .collect(),
            settled: AtomicBitSet::new(ch.n()),
            stop: AtomicBool::new(false),
            lanes: Mutex::default(),
        }
    }

    /// Re-arms a used instance for another query over the same hierarchy
    /// (cheaper than reallocating; [`InstancePool`](crate::InstancePool)
    /// reuses instances this way).
    pub fn reset(&self, ch: &ComponentHierarchy) {
        assert_eq!(
            self.mind.len(),
            ch.num_nodes(),
            "instance/hierarchy mismatch"
        );
        for d in &self.dist {
            d.store(INF);
        }
        for m in &self.mind {
            m.store(INF);
        }
        self.settled.clear_all();
        self.stop.store(false, Ordering::Release);
    }

    /// Current tentative distance of `v`.
    #[inline]
    pub fn dist_of(&self, v: VertexId) -> Dist {
        self.dist[v as usize].load()
    }

    /// Snapshot of all distances (the query result).
    pub fn distances(&self) -> Vec<Dist> {
        self.dist.iter().map(|d| d.load()).collect()
    }

    /// Copies all distances into `out` (cleared first). Does not allocate
    /// when `out` already has the capacity — the batched serving path
    /// writes results into pooled buffers this way.
    pub fn copy_distances_into(&self, out: &mut Vec<Dist>) {
        out.clear();
        out.extend(self.dist.iter().map(|d| d.load()));
    }

    /// Number of `toVisit` scan buffers this instance has ever allocated,
    /// over all lanes. Flat across a window of queries ⇒ the scans ran
    /// allocation-free.
    pub fn scan_buffers_created(&self) -> usize {
        let lanes = self.lanes.lock();
        lanes.slots.iter().map(|s| s.lock().buffers.created).sum()
    }

    /// What the parallel regions of multi-lane solves into this instance
    /// did, summed over those solves. Survives [`reset`](Self::reset).
    pub fn region_stats(&self) -> RegionStats {
        self.lanes.lock().stats
    }

    /// True if `v` has been settled (`d(v) = δ(v)` finalised).
    #[inline]
    pub fn is_settled(&self, v: VertexId) -> bool {
        self.settled.get(v as usize)
    }

    /// Number of settled vertices.
    pub fn settled_count(&self) -> usize {
        self.settled.count_ones()
    }

    /// Heap bytes of this instance — the paper's Table 2 "Instance"
    /// column.
    pub fn heap_bytes(&self) -> usize {
        (self.dist.len() + self.mind.len()) * std::mem::size_of::<AtomicMinU64>()
            + self.dist.len().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_ch::{build_serial, ChMode};
    use mmt_graph::gen::shapes;

    #[test]
    fn fresh_instance_is_armed() {
        let ch = build_serial(&shapes::figure_one(), ChMode::Collapsed);
        let inst = ThorupInstance::new(&ch);
        assert_eq!(inst.dist_of(0), INF);
        assert!(!inst.is_settled(3));
        assert_eq!(inst.settled_count(), 0);
        assert_eq!(inst.mind[ch.root() as usize].load(), INF);
    }

    #[test]
    fn reset_rearms() {
        let ch = build_serial(&shapes::figure_one(), ChMode::Collapsed);
        let inst = ThorupInstance::new(&ch);
        inst.dist[2].store(5);
        inst.mind[2].store(5);
        inst.settled.set(2);
        inst.stop.store(true, Ordering::Release);
        inst.reset(&ch);
        assert_eq!(inst.dist_of(2), INF);
        assert_eq!(inst.mind[2].load(), INF);
        assert!(!inst.is_settled(2));
        assert!(!inst.stop.load(Ordering::Acquire));
    }

    #[test]
    fn heap_bytes_match_stats_formula() {
        let ch = build_serial(&shapes::path(9, 1), ChMode::Collapsed);
        let inst = ThorupInstance::new(&ch);
        assert_eq!(inst.heap_bytes(), mmt_ch::stats::instance_bytes(&ch));
    }
}
