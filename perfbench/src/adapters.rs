//! Timing and counting adapters around the stack's public traits.
//!
//! The traced run measures the layers by wrapping the objects the serving
//! front end is built from — no tracing is added inside the program:
//!
//! * [`TimedEngine`] wraps a [`QueryEngine`]; its `prepare` is timed and
//!   hands back a [`TimedPrepared`] whose `execute` is timed.
//! * [`TimedStore`] wraps a [`ServeStore`]; its `snapshot` is timed and
//!   hands back the snapshot wrapped in a [`CountingGraph`].
//! * [`CountingGraph`] forwards every [`GrinGraph`] method — the defaulted
//!   fast paths included, so the wrapped backend keeps its own
//!   implementations — and counts each call.
//!
//! Times for calls made on the client thread land in a thread-local
//! [`ReqTrace`], so the harness can attribute them to the request it is
//! running. GRIN calls happen on HiActor shard threads; each snapshot
//! counts into its own counters and folds them into the shared
//! [`GrinTally`] when it is dropped.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gs_graph::schema::GraphSchema;
use gs_graph::{LayoutKind, Result};
use gs_grin::{
    AdjEntry, AdjScanFn, Capabilities, Direction, EId, EdgePredicate, GrinGraph, LabelId,
    PartitionInfo, PropId, VId, Value,
};
use gs_ir::{PhysicalPlan, PreparedQuery, QueryEngine, Record};
use gs_serve::ServeStore;

/// Time spent in each wrapped call on the current thread since the last
/// [`take_trace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReqTrace {
    pub snapshot_ns: u64,
    pub prepare_ns: u64,
    pub prepares: u64,
    pub execute_ns: u64,
    pub executes: u64,
}

thread_local! {
    static TRACE: Cell<ReqTrace> = const { Cell::new(ReqTrace {
        snapshot_ns: 0,
        prepare_ns: 0,
        prepares: 0,
        execute_ns: 0,
        executes: 0,
    }) };
}

fn record(f: impl FnOnce(&mut ReqTrace)) {
    TRACE.with(|c| {
        let mut t = c.get();
        f(&mut t);
        c.set(t);
    });
}

/// Returns and clears the current thread's accumulated call times.
pub fn take_trace() -> ReqTrace {
    TRACE.with(|c| c.replace(ReqTrace::default()))
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A [`QueryEngine`] that times `prepare`, `execute` and every execution
/// of the handles it prepares.
pub struct TimedEngine {
    inner: Box<dyn QueryEngine>,
}

impl TimedEngine {
    pub fn new(inner: Box<dyn QueryEngine>) -> Self {
        Self { inner }
    }
}

impl QueryEngine for TimedEngine {
    fn execute(&self, plan: &PhysicalPlan, graph: &dyn GrinGraph) -> Result<Vec<Record>> {
        let t = Instant::now();
        let out = self.inner.execute(plan, graph);
        record(|r| {
            r.execute_ns += elapsed_ns(t);
            r.executes += 1;
        });
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(&self, plan: &PhysicalPlan) -> Result<Box<dyn PreparedQuery>> {
        let t = Instant::now();
        let out = self.inner.prepare(plan);
        record(|r| {
            r.prepare_ns += elapsed_ns(t);
            r.prepares += 1;
        });
        Ok(Box::new(TimedPrepared { inner: out? }))
    }
}

/// A prepared handle whose `execute` is timed.
pub struct TimedPrepared {
    inner: Box<dyn PreparedQuery>,
}

impl PreparedQuery for TimedPrepared {
    fn execute(&self, graph: &dyn GrinGraph) -> Result<Vec<Record>> {
        let t = Instant::now();
        let out = self.inner.execute(graph);
        record(|r| {
            r.execute_ns += elapsed_ns(t);
            r.executes += 1;
        });
        out
    }

    fn plan(&self) -> &PhysicalPlan {
        self.inner.plan()
    }

    fn engine_name(&self) -> &'static str {
        self.inner.engine_name()
    }
}

/// A [`ServeStore`] whose `snapshot` is timed and returns a
/// [`CountingGraph`].
pub struct TimedStore {
    inner: Box<dyn ServeStore>,
    tally: Arc<GrinTally>,
}

impl TimedStore {
    pub fn new(inner: Box<dyn ServeStore>, tally: Arc<GrinTally>) -> Self {
        Self { inner, tally }
    }
}

impl ServeStore for TimedStore {
    fn schema(&self) -> &GraphSchema {
        self.inner.schema()
    }

    fn schema_epoch(&self) -> u64 {
        self.inner.schema_epoch()
    }

    fn data_version(&self) -> u64 {
        self.inner.data_version()
    }

    fn snapshot(&self) -> (Arc<dyn GrinGraph>, u64) {
        let t = Instant::now();
        let (graph, version) = self.inner.snapshot();
        record(|r| r.snapshot_ns += elapsed_ns(t));
        let counted = CountingGraph::new(graph, Arc::clone(&self.tally));
        (Arc::new(counted), version)
    }
}

/// The [`GrinGraph`] methods, in the order they are reported.
pub const GRIN_METHODS: [&str; 19] = [
    "capabilities",
    "topology_layout",
    "schema",
    "vertex_count",
    "edge_count",
    "vertices",
    "adjacent",
    "for_each_adjacent",
    "adjacent_slice",
    "degree",
    "vertex_range",
    "scan_adjacency",
    "vertex_property",
    "edge_property",
    "internal_id",
    "external_id",
    "vertices_by_property",
    "adjacent_filtered",
    "partition_info",
];

const CAPABILITIES: usize = 0;
const TOPOLOGY_LAYOUT: usize = 1;
const SCHEMA: usize = 2;
const VERTEX_COUNT: usize = 3;
const EDGE_COUNT: usize = 4;
const VERTICES: usize = 5;
const ADJACENT: usize = 6;
const FOR_EACH_ADJACENT: usize = 7;
const ADJACENT_SLICE: usize = 8;
const DEGREE: usize = 9;
const VERTEX_RANGE: usize = 10;
const SCAN_ADJACENCY: usize = 11;
const VERTEX_PROPERTY: usize = 12;
const EDGE_PROPERTY: usize = 13;
const INTERNAL_ID: usize = 14;
const EXTERNAL_ID: usize = 15;
const VERTICES_BY_PROPERTY: usize = 16;
const ADJACENT_FILTERED: usize = 17;
const PARTITION_INFO: usize = 18;

/// Per-method GRIN call totals, shared by every snapshot of one store.
#[derive(Default)]
pub struct GrinTally {
    calls: [AtomicU64; GRIN_METHODS.len()],
}

impl GrinTally {
    /// Totals in [`GRIN_METHODS`] order.
    pub fn totals(&self) -> [u64; GRIN_METHODS.len()] {
        std::array::from_fn(|i| self.calls[i].load(Ordering::Relaxed))
    }

    /// Zeroes the totals (snapshots still alive fold in when dropped).
    pub fn reset(&self) {
        for c in &self.calls {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// A [`GrinGraph`] that forwards every method to `inner` and counts the
/// calls.
pub struct CountingGraph {
    inner: Arc<dyn GrinGraph>,
    calls: [AtomicU64; GRIN_METHODS.len()],
    tally: Arc<GrinTally>,
}

impl CountingGraph {
    pub fn new(inner: Arc<dyn GrinGraph>, tally: Arc<GrinTally>) -> Self {
        Self {
            inner,
            calls: Default::default(),
            tally,
        }
    }

    #[inline]
    fn hit(&self, method: usize) {
        self.calls[method].fetch_add(1, Ordering::Relaxed);
    }

    /// Calls made through this handle so far, in [`GRIN_METHODS`] order.
    pub fn calls(&self) -> [u64; GRIN_METHODS.len()] {
        std::array::from_fn(|i| self.calls[i].load(Ordering::Relaxed))
    }
}

impl Drop for CountingGraph {
    fn drop(&mut self) {
        for (total, mine) in self.tally.calls.iter().zip(&self.calls) {
            let n = mine.load(Ordering::Relaxed);
            if n > 0 {
                total.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

impl GrinGraph for CountingGraph {
    fn capabilities(&self) -> Capabilities {
        self.hit(CAPABILITIES);
        self.inner.capabilities()
    }

    fn topology_layout(&self) -> LayoutKind {
        self.hit(TOPOLOGY_LAYOUT);
        self.inner.topology_layout()
    }

    fn schema(&self) -> &GraphSchema {
        self.hit(SCHEMA);
        self.inner.schema()
    }

    fn vertex_count(&self, label: LabelId) -> usize {
        self.hit(VERTEX_COUNT);
        self.inner.vertex_count(label)
    }

    fn edge_count(&self, label: LabelId) -> usize {
        self.hit(EDGE_COUNT);
        self.inner.edge_count(label)
    }

    fn vertices(&self, label: LabelId) -> Box<dyn Iterator<Item = VId> + '_> {
        self.hit(VERTICES);
        self.inner.vertices(label)
    }

    fn adjacent(
        &self,
        v: VId,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
    ) -> Box<dyn Iterator<Item = AdjEntry> + '_> {
        self.hit(ADJACENT);
        self.inner.adjacent(v, vlabel, elabel, dir)
    }

    fn for_each_adjacent(
        &self,
        v: VId,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
        f: &mut dyn FnMut(AdjEntry),
    ) {
        self.hit(FOR_EACH_ADJACENT);
        self.inner.for_each_adjacent(v, vlabel, elabel, dir, f)
    }

    fn adjacent_slice(
        &self,
        v: VId,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
    ) -> Option<(&[VId], &[EId])> {
        self.hit(ADJACENT_SLICE);
        self.inner.adjacent_slice(v, vlabel, elabel, dir)
    }

    fn degree(&self, v: VId, vlabel: LabelId, elabel: LabelId, dir: Direction) -> usize {
        self.hit(DEGREE);
        self.inner.degree(v, vlabel, elabel, dir)
    }

    fn vertex_range(&self, label: LabelId) -> Option<Range<u64>> {
        self.hit(VERTEX_RANGE);
        self.inner.vertex_range(label)
    }

    fn scan_adjacency(
        &self,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
        f: &mut AdjScanFn<'_>,
    ) -> bool {
        self.hit(SCAN_ADJACENCY);
        self.inner.scan_adjacency(vlabel, elabel, dir, f)
    }

    fn vertex_property(&self, label: LabelId, v: VId, prop: PropId) -> Value {
        self.hit(VERTEX_PROPERTY);
        self.inner.vertex_property(label, v, prop)
    }

    fn edge_property(&self, label: LabelId, e: EId, prop: PropId) -> Value {
        self.hit(EDGE_PROPERTY);
        self.inner.edge_property(label, e, prop)
    }

    fn internal_id(&self, label: LabelId, external: u64) -> Option<VId> {
        self.hit(INTERNAL_ID);
        self.inner.internal_id(label, external)
    }

    fn external_id(&self, label: LabelId, v: VId) -> Option<u64> {
        self.hit(EXTERNAL_ID);
        self.inner.external_id(label, v)
    }

    fn vertices_by_property(&self, label: LabelId, prop: PropId, value: &Value) -> Vec<VId> {
        self.hit(VERTICES_BY_PROPERTY);
        self.inner.vertices_by_property(label, prop, value)
    }

    fn adjacent_filtered<'a>(
        &'a self,
        v: VId,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
        pred: &'a EdgePredicate,
    ) -> Box<dyn Iterator<Item = AdjEntry> + 'a> {
        self.hit(ADJACENT_FILTERED);
        self.inner.adjacent_filtered(v, vlabel, elabel, dir, pred)
    }

    fn partition_info(&self) -> Option<PartitionInfo> {
        self.hit(PARTITION_INFO);
        self.inner.partition_info()
    }
}
