//! The multi-graph registry: `Arc`-shared graphs and resident-bytes
//! accounting.
//!
//! The paper amortises one Component Hierarchy over many queries; the
//! registry amortises many *graphs* over one process. Each registered
//! graph is kept as given, in its own adjacency order, behind one `Arc`
//! that every shard worker of that graph shares, and everything the
//! registry keeps resident (graph plus hierarchy) is tallied in a
//! [`MemoryGauge`], which the service's admission check reads to shed
//! work under memory pressure.
//!
//! Identity is typed: [`GraphId`] routes requests to shards and
//! [`QueryId`] names an admitted request — no raw `usize` crosses the
//! public service surface.
//!
//! Eviction is refcounted, not forced: [`GraphRegistry::evict`] drops the
//! registry's own `Arc`s and subtracts the accounting immediately, but
//! in-flight solves holding graph and hierarchy `Arc`s finish normally —
//! the data dies when the last reference does.

use crate::error::{InputError, ServiceError};
use mmt_ch::ComponentHierarchy;
use mmt_graph::CsrGraph;
use mmt_platform::MemoryGauge;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Identifies a registered graph. Issued by [`GraphRegistry::register`];
/// routes requests to the graph's shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphId(u32);

impl GraphId {
    pub(crate) fn from_index(i: usize) -> Self {
        Self(i as u32)
    }

    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GraphId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Identifies an admitted request, unique per service for its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(u64);

impl QueryId {
    pub(crate) fn new(raw: u64) -> Self {
        Self(raw)
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// The shared, immutable data of one registered graph. Dropped as a unit
/// on eviction; kept alive by any in-flight graph or hierarchy `Arc`s.
#[derive(Debug)]
struct GraphData {
    graph: Arc<CsrGraph>,
    ch: Arc<ComponentHierarchy>,
}

/// One registry slot. The name and gauge survive eviction (so metrics
/// keep their history); the data does not.
#[derive(Debug)]
struct Slot {
    name: String,
    /// Per-graph resident bytes (graph + hierarchy). Mirrored into the
    /// registry-wide gauge.
    resident: Arc<MemoryGauge>,
    data: Mutex<Option<Arc<GraphData>>>,
}

/// A set of graphs served behind shared `Arc`s, with typed ids and
/// resident-bytes accounting.
///
/// Register graphs up front, then hand the registry to
/// [`QueryServiceBuilder::build_registry`](crate::QueryServiceBuilder::build_registry);
/// resident-bytes queries remain available through the service's shared
/// reference.
///
/// ```
/// use mmt_ch::{build_serial, ChMode};
/// use mmt_graph::{gen::shapes, CsrGraph};
/// use mmt_thorup::GraphRegistry;
///
/// let el = shapes::figure_one();
/// let g = CsrGraph::from_edge_list(&el);
/// let ch = build_serial(&el, ChMode::Collapsed);
/// let mut registry = GraphRegistry::new();
/// let id = registry.register("figure-one", &g, ch.into()).unwrap();
/// assert_eq!(registry.graph(id).unwrap().n(), 6);
/// ```
#[derive(Debug, Default)]
pub struct GraphRegistry {
    slots: Vec<Slot>,
    gauge: MemoryGauge,
}

impl GraphRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a copy of `graph` with its hierarchy under `name`. The
    /// graph plus hierarchy bytes are recorded as resident. Fails with
    /// [`InputError::GraphMismatch`] when the hierarchy was built for a
    /// different vertex count.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        graph: &CsrGraph,
        ch: Arc<ComponentHierarchy>,
    ) -> Result<GraphId, InputError> {
        if graph.n() != ch.n() {
            return Err(InputError::GraphMismatch {
                graph_n: graph.n(),
                ch_n: ch.n(),
            });
        }
        let graph = Arc::new(graph.clone());
        let id = GraphId::from_index(self.slots.len());
        let base_bytes = graph.heap_bytes() + ch.heap_bytes();
        let resident = Arc::new(MemoryGauge::new());
        resident.add(base_bytes);
        self.gauge.add(base_bytes);
        self.slots.push(Slot {
            name: name.into(),
            resident,
            data: Mutex::new(Some(Arc::new(GraphData { graph, ch }))),
        });
        Ok(id)
    }

    /// Number of graphs ever registered (evicted slots included — ids are
    /// never reused).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Every id ever issued, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = GraphId> + '_ {
        (0..self.slots.len()).map(GraphId::from_index)
    }

    /// True when `id` is registered and not evicted.
    pub fn contains(&self, id: GraphId) -> bool {
        self.slot(id)
            .is_ok_and(|s| s.data.lock().expect("registry lock").is_some())
    }

    /// The name `id` was registered under.
    pub fn name(&self, id: GraphId) -> Result<&str, InputError> {
        self.slot(id).map(|s| s.name.as_str())
    }

    fn slot(&self, id: GraphId) -> Result<&Slot, InputError> {
        self.slots
            .get(id.index())
            .ok_or(InputError::UnknownGraph { graph: id })
    }

    fn data(&self, id: GraphId) -> Result<Arc<GraphData>, ServiceError> {
        let slot = self.slot(id)?;
        slot.data
            .lock()
            .expect("registry lock")
            .as_ref()
            .map(Arc::clone)
            .ok_or(ServiceError::GraphEvicted)
    }

    /// The graph as registered — the adjacency every solver of this
    /// graph shares.
    pub fn graph(&self, id: GraphId) -> Result<Arc<CsrGraph>, ServiceError> {
        Ok(Arc::clone(&self.data(id)?.graph))
    }

    /// The graph's Component Hierarchy (natural leaf order).
    pub fn hierarchy(&self, id: GraphId) -> Result<Arc<ComponentHierarchy>, ServiceError> {
        Ok(Arc::clone(&self.data(id)?.ch))
    }

    /// Evicts the whole graph: the registry drops its graph and hierarchy
    /// and subtracts all of the graph's resident bytes. Returns true when
    /// the graph was resident. The id stays issued (never reused);
    /// subsequent requests for it see [`ServiceError::GraphEvicted`].
    pub fn evict(&self, id: GraphId) -> bool {
        let Ok(slot) = self.slot(id) else {
            return false;
        };
        let data = slot.data.lock().expect("registry lock").take();
        match data {
            Some(_) => {
                let bytes = slot.resident.resident();
                slot.resident.sub(bytes);
                self.gauge.sub(bytes);
                true
            }
            None => false,
        }
    }

    /// Resident bytes currently attributed to `id` (zero after eviction).
    pub fn graph_resident_bytes(&self, id: GraphId) -> Result<usize, InputError> {
        self.slot(id).map(|s| s.resident.resident())
    }

    /// The per-graph resident gauge (shared with metrics reporting).
    pub(crate) fn resident_gauge(&self, id: GraphId) -> Result<Arc<MemoryGauge>, InputError> {
        self.slot(id).map(|s| Arc::clone(&s.resident))
    }

    /// Total resident bytes across every registered graph.
    pub fn resident_bytes(&self) -> usize {
        self.gauge.resident()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_ch::{build_serial, ChMode};
    use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};

    fn fixture(seed: u64) -> (CsrGraph, Arc<ComponentHierarchy>) {
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 7, 6);
        spec.seed = seed;
        let el = spec.generate();
        (
            CsrGraph::from_edge_list(&el),
            Arc::new(build_serial(&el, ChMode::Collapsed)),
        )
    }

    fn registry_with(n: usize) -> (GraphRegistry, Vec<GraphId>) {
        let mut reg = GraphRegistry::new();
        let ids = (0..n)
            .map(|i| {
                let (g, ch) = fixture(5 + i as u64);
                reg.register(format!("tenant-{i}"), &g, ch).unwrap()
            })
            .collect();
        (reg, ids)
    }

    #[test]
    fn typed_ids_display_and_route() {
        let (reg, ids) = registry_with(3);
        assert_eq!(reg.len(), 3);
        assert_eq!(ids[1].to_string(), "g1");
        assert_eq!(QueryId::new(7).to_string(), "q7");
        assert_eq!(reg.name(ids[2]).unwrap(), "tenant-2");
        let bogus = GraphId::from_index(9);
        assert!(matches!(
            reg.name(bogus),
            Err(InputError::UnknownGraph { graph }) if graph == bogus
        ));
    }

    #[test]
    fn graphs_are_served_as_registered() {
        let (g, ch) = fixture(3);
        let mut reg = GraphRegistry::new();
        let id = reg.register("natural", &g, ch).unwrap();
        // Field for field, adjacency order included: `CsrGraph` derives
        // `Eq` over its offsets, targets and weights.
        assert_eq!(*reg.graph(id).unwrap(), g);
    }

    #[test]
    fn n_graphs_store_each_arc_array_exactly_once() {
        let (reg, ids) = registry_with(4);
        // Every request for a graph shares the registry's one copy.
        for &id in &ids {
            assert!(Arc::ptr_eq(
                &reg.graph(id).unwrap(),
                &reg.graph(id).unwrap()
            ));
        }
        // Resident accounting says so too: total resident equals the sum
        // of per-graph graph + hierarchy bytes, each counted once.
        let expected: usize = ids
            .iter()
            .map(|&id| {
                reg.graph(id).unwrap().heap_bytes() + reg.hierarchy(id).unwrap().heap_bytes()
            })
            .sum();
        assert_eq!(reg.resident_bytes(), expected);
    }

    #[test]
    fn evict_is_refcounted_and_final() {
        let (reg, ids) = registry_with(2);
        let (a, b) = (ids[0], ids[1]);
        let held = reg.graph(a).unwrap();
        let held_n = held.n();

        assert!(reg.contains(a));
        assert!(reg.evict(a));
        assert!(!reg.contains(a));
        assert!(!reg.evict(a), "double evict is a no-op");

        // Evicted graphs answer with the typed error...
        assert!(matches!(reg.graph(a), Err(ServiceError::GraphEvicted)));
        assert!(matches!(reg.hierarchy(a), Err(ServiceError::GraphEvicted)));
        // ...their accounting drops to zero...
        assert_eq!(reg.graph_resident_bytes(a).unwrap(), 0);
        // ...the other tenant is untouched...
        assert!(reg.graph(b).is_ok());
        assert_eq!(
            reg.resident_bytes(),
            reg.graph_resident_bytes(b).unwrap(),
            "only b remains resident"
        );
        // ...and the Arc we held across the evict still works.
        assert_eq!(held.n(), held_n);
    }

    #[test]
    fn mismatched_hierarchy_is_rejected_at_registration() {
        let (g, _) = fixture(1);
        let (_, small_ch) = {
            let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 5, 4);
            spec.seed = 2;
            let el = spec.generate();
            ((), Arc::new(build_serial(&el, ChMode::Collapsed)))
        };
        let mut reg = GraphRegistry::new();
        assert!(matches!(
            reg.register("bad", &g, small_ch),
            Err(InputError::GraphMismatch { .. })
        ));
        assert_eq!(reg.resident_bytes(), 0);
    }
}
